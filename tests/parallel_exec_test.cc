// Differential and governance suite for the hash kernels' morsel-driven
// lane pipelines (docs/PARALLELISM.md).  The oracle is always the single-threaded
// definitional path (mra/algebra) — Definition 3.1 for join multiplicities,
// Definition 3.3 for aggregates, δ for dedup — so any partitioning or merge
// bug shows up as a bag mismatch, not just a flaky count.
//
// The matrix runs every hash kernel at worker counts 1/2/8 and
// morsel/batch granularities 1/7/1024 over seeded random inputs whose
// multiplicities reach 10^6 (multiplicity arithmetic must not be rebuilt
// from row repetition).  A second matrix runs whole lane pipelines — the
// plan shapes of the analytic workload, through the planner — against
// EvaluatePlan.  The cancel hammer and the failpoint kills are the TSan
// targets: cancellation arriving from another thread must land within one
// morsel on every lane and unwind with balanced memory accounting and no
// leftover sort runs.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "mra/algebra/evaluator.h"
#include "mra/algebra/ops.h"
#include "mra/common/config.h"
#include "mra/exec/exec_context.h"
#include "mra/exec/operator.h"
#include "mra/exec/sort.h"
#include "mra/fault/failpoint.h"
#include "mra/lang/binder.h"
#include "mra/lang/interpreter.h"
#include "mra/lang/parser.h"
#include "mra/obs/metrics.h"
#include "mra/parallel/parallel_ops.h"
#include "mra/parallel/worker_pool.h"
#include "test_util.h"

namespace mra {
namespace {

using mra::testing::RandomIntRelation;

exec::PhysOpPtr Scan(const Relation& rel) {
  return std::make_unique<exec::ScanOp>(&rel);
}

exec::PhysOpPtr LaneJoin(const Relation& left, const Relation& right,
                             size_t workers, size_t morsel) {
  return std::make_unique<parallel::HashJoinOp>(
      std::vector<size_t>{0}, std::vector<size_t>{0}, nullptr, Scan(left),
      Scan(right), workers, morsel);
}

exec::PhysOpPtr LaneGroupBy(const Relation& input,
                                const std::vector<size_t>& keys,
                                const std::vector<AggSpec>& aggs,
                                size_t workers, size_t morsel) {
  auto schema = ops::GroupBySchema(keys, aggs, input.schema());
  EXPECT_TRUE(schema.ok()) << schema.status().ToString();
  return std::make_unique<parallel::HashGroupByOp>(
      keys, aggs, *schema, Scan(input), workers, morsel);
}

std::vector<AggSpec> AllAggs() {
  return {{AggKind::kSum, 1, "sum_v"},
          {AggKind::kCnt, 0, "cnt"},
          {AggKind::kMin, 1, "min_v"},
          {AggKind::kMax, 1, "max_v"}};
}

// --- The differential matrix: 8 seeds x workers {1,2,8} x morsel {1,7,1024}
// --- x multiplicities {1, 5, 10^6}, every operator against its definition.

TEST(ParallelExecDifferential, JoinGroupByDedupMatchDefinitionalOracle) {
  const size_t worker_counts[] = {1, 2, 8};
  const size_t granularities[] = {1, 7, 1024};
  const uint64_t multiplicities[] = {1, 5, 1000000};
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    uint64_t max_mult = multiplicities[seed % 3];
    Relation r = RandomIntRelation(rng, 2, 200, 40, max_mult);
    Relation s = RandomIntRelation(rng, 2, 150, 40, max_mult);

    auto join_oracle = ops::Join(Eq(Attr(0), Attr(2)), r, s);
    auto group_oracle = ops::GroupBy({0}, AllAggs(), r);
    auto dedup_oracle = ops::Unique(r);
    ASSERT_OK(join_oracle);
    ASSERT_OK(group_oracle);
    ASSERT_OK(dedup_oracle);

    for (size_t workers : worker_counts) {
      for (size_t morsel : granularities) {
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " workers=" + std::to_string(workers) +
                     " morsel=" + std::to_string(morsel) +
                     " mult=" + std::to_string(max_mult));
        auto join = exec::ExecuteToRelation(
            *LaneJoin(r, s, workers, morsel), morsel);
        ASSERT_OK(join);
        EXPECT_REL_EQ(*join, *join_oracle);

        auto grouped = exec::ExecuteToRelation(
            *LaneGroupBy(r, {0}, AllAggs(), workers, morsel), morsel);
        ASSERT_OK(grouped);
        EXPECT_REL_EQ(*grouped, *group_oracle);

        auto deduped = exec::ExecuteToRelation(
            *std::make_unique<parallel::DedupOp>(Scan(r), workers,
                                                         morsel),
            morsel);
        ASSERT_OK(deduped);
        EXPECT_REL_EQ(*deduped, *dedup_oracle);
      }
    }
  }
}

TEST(ParallelExecDifferential, ResidualPredicateFiltersMatchPairs) {
  // Equi-key plus a non-hashable residual: the residual must run against
  // the concatenated tuple in whichever lane found the match.
  std::mt19937_64 rng(99);
  Relation r = RandomIntRelation(rng, 2, 120, 20, 4);
  Relation s = RandomIntRelation(rng, 2, 120, 20, 4);
  auto oracle =
      ops::Join(And(Eq(Attr(0), Attr(2)), Lt(Attr(1), Attr(3))), r, s);
  ASSERT_OK(oracle);
  auto op = std::make_unique<parallel::HashJoinOp>(
      std::vector<size_t>{0}, std::vector<size_t>{0}, Lt(Attr(1), Attr(3)),
      Scan(r), Scan(s), /*workers=*/4, /*morsel_size=*/7);
  auto result = exec::ExecuteToRelation(*op);
  ASSERT_OK(result);
  EXPECT_REL_EQ(*result, *oracle);
}

TEST(ParallelExecDifferential, KeyFreeAggregationKeepsEmptyInputGroup) {
  // Definition 3.3's key-free case: one global group, present even over an
  // empty input (CNT = 0, SUM = 0; AVG/MIN/MAX undefined).  The merge
  // phase must synthesise it when no lane saw a row.
  std::vector<AggSpec> aggs = {{AggKind::kCnt, 0, "cnt"},
                               {AggKind::kSum, 1, "sum_v"}};
  Relation empty(RelationSchema("e", {{"c1", Type::Int()},
                                      {"c2", Type::Int()}}));
  std::mt19937_64 rng(7);
  Relation full = RandomIntRelation(rng, 2, 50, 10, 1000000);
  for (const Relation* input : {&empty, &full}) {
    auto oracle = ops::GroupBy({}, aggs, *input);
    ASSERT_OK(oracle);
    auto result = exec::ExecuteToRelation(
        *LaneGroupBy(*input, {}, aggs, /*workers=*/8, /*morsel=*/7));
    ASSERT_OK(result);
    EXPECT_REL_EQ(*result, *oracle);
  }
}

// --- Governance: cancellation, deadline and budget kills reach every lane.

Relation BigPairs(size_t n) {
  Relation rel(RelationSchema("big", {{"k", Type::Int()},
                                      {"v", Type::Int()}}));
  for (size_t i = 0; i < n; ++i) {
    rel.InsertUnchecked(
        Tuple({Value::Int(static_cast<int64_t>(i % (n / 16 + 1))),
               Value::Int(static_cast<int64_t>(i))}),
        1 + i % 3);
  }
  return rel;
}

TEST(ParallelExecGovernance, CancelHammerFromAnotherThread) {
  // The TSan target: an external cancel lands while 8 lanes are mid-build
  // or mid-probe.  Whatever the timing, the query either completes with
  // the right bag or dies with kCancelled — and the memory accounting
  // balances either way.  Many iterations walk the cancel point across
  // every phase.
  Relation r = BigPairs(6000);
  auto oracle = ops::Join(Eq(Attr(0), Attr(2)), r, r);
  ASSERT_OK(oracle);
  for (int round = 0; round < 12; ++round) {
    exec::ExecContext ctx;
    auto op = LaneJoin(r, r, /*workers=*/8, /*morsel=*/64);
    op->SetExecContext(&ctx);
    std::thread killer([&ctx, round] {
      std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
      ctx.RequestCancel();
    });
    auto result = exec::ExecuteToRelation(*op, 64);
    killer.join();
    if (result.ok()) {
      EXPECT_REL_EQ(*result, *oracle) << "round " << round;
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
          << "round " << round << ": " << result.status().ToString();
    }
    EXPECT_EQ(ctx.mem_used(), 0u) << "round " << round;
  }
}

TEST(ParallelExecGovernance, FailpointCancelKillsEachParallelOperator) {
  // exec.cancel.batch trips on the very first batch pull, so the kill
  // arrives while the build scan is feeding worker lanes; the fresh rerun
  // after disarm proves no poisoned pool or operator state survives.
  Relation r = BigPairs(4000);
  struct Case {
    const char* name;
    std::function<exec::PhysOpPtr()> build;
  };
  const Case cases[] = {
      {"join", [&] { return LaneJoin(r, r, 8, 32); }},
      {"groupby", [&] { return LaneGroupBy(r, {0}, AllAggs(), 8, 32); }},
      {"dedup",
       [&] {
         return std::make_unique<parallel::DedupOp>(Scan(r), 8, 32);
       }},
  };
  for (const Case& c : cases) {
    ASSERT_TRUE(fault::FaultRegistry::Global()
                    .ConfigureFromSpec("exec.cancel.batch=error")
                    .ok());
    exec::ExecContext ctx;
    auto op = c.build();
    op->SetExecContext(&ctx);
    auto killed = exec::ExecuteToRelation(*op, 32);
    fault::FaultRegistry::Global().DisarmAll();
    ASSERT_FALSE(killed.ok()) << c.name << " survived an armed cancel";
    EXPECT_EQ(killed.status().code(), StatusCode::kCancelled) << c.name;
    EXPECT_EQ(ctx.mem_used(), 0u) << c.name;

    exec::ExecContext clean_ctx;
    auto rerun = c.build();
    rerun->SetExecContext(&clean_ctx);
    EXPECT_TRUE(exec::ExecuteToRelation(*rerun, 32).ok())
        << c.name << " failed after disarm";
  }
}

TEST(ParallelExecGovernance, DeadlineKillLandsWithinAMorsel) {
  // An already-expired deadline must stop the fan-out at the first morsel
  // boundary on every lane with kDeadlineExceeded.
  Relation r = BigPairs(20000);
  exec::ExecContext ctx;
  ctx.SetDeadlineAfterMs(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  auto op = LaneJoin(r, r, /*workers=*/8, /*morsel=*/16);
  op->SetExecContext(&ctx);
  auto killed = exec::ExecuteToRelation(*op, 16);
  ASSERT_FALSE(killed.ok());
  EXPECT_EQ(killed.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ctx.mem_used(), 0u);
}

TEST(ParallelExecGovernance, MemoryBudgetTripsDuringParallelBuild) {
  Relation r = BigPairs(20000);
  exec::ExecContext ctx;
  ctx.SetMemoryBudget(4 * 1024);  // Far below the build footprint.
  auto op = LaneJoin(r, r, /*workers=*/4, /*morsel=*/256);
  op->SetExecContext(&ctx);
  auto killed = exec::ExecuteToRelation(*op, 256);
  ASSERT_FALSE(killed.ok());
  EXPECT_EQ(killed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctx.mem_used(), 0u);
}

// --- Lane pipelines: the analytic workload's plan shapes end to end.

/// fact(k, v) ⋈ dim(k, g) at test scale, loaded and analyzed so the
/// planner arms the parallel kernels (threshold 1).
std::unique_ptr<Database> AnalyticDb(uint64_t max_mult) {
  auto db = Database::Open();
  EXPECT_TRUE(db.ok());
  std::mt19937_64 rng(max_mult);
  Relation fact(RelationSchema("fact", {{"k", Type::Int()},
                                        {"v", Type::Int()}}));
  Relation dim(RelationSchema("dim", {{"k", Type::Int()},
                                      {"g", Type::Int()}}));
  for (int64_t k = 0; k < 80; ++k) {
    dim.InsertUnchecked(Tuple({Value::Int(k), Value::Int(k % 7)}), 1);
  }
  for (int i = 0; i < 300; ++i) {
    fact.InsertUnchecked(
        Tuple({Value::Int(static_cast<int64_t>(rng() % 100)),
               Value::Int(static_cast<int64_t>(rng() % 400))}),
        1 + rng() % max_mult);
  }
  for (Relation* rel : {&fact, &dim}) {
    const std::string name = rel->schema().name();
    EXPECT_OK((*db)->CreateRelation(rel->schema()));
    auto txn = (*db)->Begin();
    EXPECT_OK(txn);
    EXPECT_OK((*txn)->Insert(name, *rel));
    EXPECT_OK((*txn)->Commit());
    EXPECT_OK((*db)->Analyze(name));
  }
  return std::move(*db);
}

// ⋈→π→Γ, ⋈→Top-K, π→δ→Γ and σ→sort(spill)→Γ.
const char* const kAnalyticShapes[] = {
    "groupby([%4], sum(%2), cnt(%1), join(%1 = %3, fact, dim))",
    "sort([-%2], join(%1 = %3, fact, dim), 10)",
    "groupby([], cnt(%1), unique(project([%2], fact)))",
    "groupby([], cnt(%1), max(%2), sort([%2], select(%2 < 300, fact)))",
};

Relation Definitional(const Database& db, const char* query) {
  auto expr = lang::ParseRelExpr(query);
  EXPECT_OK(expr);
  auto plan = lang::BindRelExpr(**expr, db.catalog());
  EXPECT_OK(plan);
  auto rel = EvaluatePlan(**plan, db.catalog());
  EXPECT_OK(rel);
  return *rel;
}

TEST(LanePipelineDifferential, AnalyticShapesMatchEvaluatePlan) {
  for (uint64_t max_mult : {uint64_t{4}, uint64_t{1000000}}) {
    auto db = AnalyticDb(max_mult);
    std::vector<Relation> oracles;
    for (const char* query : kAnalyticShapes) {
      oracles.push_back(Definitional(*db, query));
    }
    for (size_t lanes : {1, 2, 4, 8}) {
      for (size_t morsel : {1, 7, 1024}) {
        for (uint64_t spill : {uint64_t{0}, uint64_t{256}}) {
          lang::Interpreter interp(db.get(), ConfigBuilder()
                                                 .Workers(lanes)
                                                 .MorselSize(morsel)
                                                 .ParallelThreshold(1)
                                                 .SortSpillBytes(spill)
                                                 .Build());
          for (size_t q = 0; q < std::size(kAnalyticShapes); ++q) {
            SCOPED_TRACE(std::string(kAnalyticShapes[q]) +
                         " lanes=" + std::to_string(lanes) +
                         " morsel=" + std::to_string(morsel) +
                         " spill=" + std::to_string(spill) +
                         " mult=" + std::to_string(max_mult));
            auto got = interp.Query(kAnalyticShapes[q]);
            ASSERT_OK(got);
            EXPECT_REL_EQ(*got, oracles[q]);
          }
        }
      }
    }
  }
}

TEST(LanePipelineDifferential, ChainedProbesShareOneLane) {
  // Γ(σ(r ⋈ s) ⋈ t): both probes fuse into the group-by's pipeline, so
  // the inner probe's flush runs the filter and the outer probe inside
  // the same lane before the inner one resumes.
  std::mt19937_64 rng(5);
  Relation r = RandomIntRelation(rng, 2, 300, 30, 5);
  Relation s = RandomIntRelation(rng, 2, 60, 30, 3);
  Relation t = RandomIntRelation(rng, 2, 60, 30, 1000000);
  std::vector<AggSpec> aggs = {{AggKind::kSum, 1, "sum_v"},
                               {AggKind::kCnt, 0, "cnt"}};
  auto rs = ops::Join(Eq(Attr(1), Attr(2)), r, s);
  ASSERT_OK(rs);
  auto kept = ops::Select(Lt(Attr(0), Lit(int64_t{20})), *rs);
  ASSERT_OK(kept);
  auto rst = ops::Join(Eq(Attr(3), Attr(4)), *kept, t);
  ASSERT_OK(rst);
  auto oracle = ops::GroupBy({5}, aggs, *rst);
  ASSERT_OK(oracle);
  ASSERT_GT(rst->distinct_size(), 100u);  // Many flushes below 1024.
  for (size_t workers : {1, 2, 4, 8}) {
    for (size_t morsel : {1, 7, 1024}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " morsel=" + std::to_string(morsel));
      auto inner = std::make_unique<parallel::HashJoinOp>(
          std::vector<size_t>{1}, std::vector<size_t>{0}, nullptr, Scan(r),
          Scan(s), workers, morsel);
      auto filtered = std::make_unique<exec::FilterOp>(
          Lt(Attr(0), Lit(int64_t{20})), std::move(inner));
      auto outer = std::make_unique<parallel::HashJoinOp>(
          std::vector<size_t>{3}, std::vector<size_t>{0}, nullptr,
          std::move(filtered), Scan(t), workers, morsel);
      auto schema = ops::GroupBySchema({5}, aggs, outer->schema());
      ASSERT_OK(schema);
      parallel::HashGroupByOp root({5}, aggs, *schema,
                                           std::move(outer), workers, morsel);
      auto got = exec::ExecuteToRelation(root, morsel);
      ASSERT_OK(got);
      EXPECT_REL_EQ(*got, *oracle);
    }
  }
}

/// The first EXPLAIN line naming `op`, from the name on; empty if none.
std::string LineOf(const std::string& text, const std::string& op) {
  size_t at = text.find(op);
  if (at == std::string::npos) return "";
  return text.substr(at, text.find('\n', at) - at);
}

/// The `workers=` figure on the first EXPLAIN ANALYZE line naming `op`.
int WorkersOf(const std::string& text, const std::string& op) {
  std::string line = LineOf(text, op);
  if (line.empty()) return -1;
  size_t w = line.find("workers=");
  if (w == std::string::npos) return 0;
  return std::atoi(line.c_str() + w + 8);
}

TEST(LanePipelinePlanner, NestedBreakersRunOnTheFullLease) {
  // One lease per pipeline, taken when the pipeline starts: with the pool
  // idle, the join and δ under a Γ get the whole lease instead of what the
  // parent left over.
  auto db = AnalyticDb(4);
  lang::Interpreter interp(
      db.get(), ConfigBuilder().Workers(4).ParallelThreshold(1).Build());
  const int lease = static_cast<int>(
      std::min<size_t>(4, parallel::WorkerPool::Global().capacity()));
  auto join = interp.ExplainAnalyze(kAnalyticShapes[0]);
  ASSERT_OK(join);
  EXPECT_EQ(WorkersOf(*join, "HashGroupBy"), lease) << *join;
  EXPECT_EQ(WorkersOf(*join, "HashJoin"), lease) << *join;
  auto distinct = interp.ExplainAnalyze(kAnalyticShapes[2]);
  ASSERT_OK(distinct);
  EXPECT_EQ(WorkersOf(*distinct, "Dedup"), lease) << *distinct;
  // Γ over δ's serial emission runs on one lane.
  EXPECT_EQ(WorkersOf(*distinct, "HashGroupBy"), 1) << *distinct;
  auto sorted = interp.ExplainAnalyze(kAnalyticShapes[3]);
  ASSERT_OK(sorted);
  EXPECT_EQ(WorkersOf(*sorted, "Sort"), lease) << *sorted;
  EXPECT_EQ(WorkersOf(*sorted, "HashGroupBy"), 1) << *sorted;
}

TEST(LanePipelinePlanner, BreakerOverASelectiveParallelJoinRunsParallel) {
  // The join's inputs clear the threshold but its estimated output does
  // not; the Γ above still goes parallel so the probe fuses into its lanes
  // instead of running on the thread that pulls the join.
  auto db = AnalyticDb(4);
  lang::Interpreter interp(
      db.get(), ConfigBuilder().Workers(4).ParallelThreshold(400).Build());
  const char* query =
      "groupby([%4], cnt(%1), join(%1 = %3, fact, select(%2 = 1, dim)))";
  auto text = interp.Explain(query);
  ASSERT_OK(text);
  EXPECT_NE(LineOf(*text, "HashJoin").find("parallel: 4 lanes"),
            std::string::npos)
      << *text;
  EXPECT_NE(LineOf(*text, "HashGroupBy").find("parallel: 4 lanes"),
            std::string::npos)
      << *text;
  auto got = interp.Query(query);
  ASSERT_OK(got);
  EXPECT_REL_EQ(*got, Definitional(*db, query));
}

/// Points the sort spill at a private directory for the test's lifetime,
/// so counting run files is not disturbed by other processes.
class PrivateTempDir {
 public:
  PrivateTempDir() {
    const char* old = std::getenv("TMPDIR");
    if (old != nullptr) old_ = old;
    dir_ = std::filesystem::temp_directory_path() /
           ("mra_pipeline_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    ::setenv("TMPDIR", dir_.c_str(), 1);
  }
  ~PrivateTempDir() {
    if (old_.empty()) {
      ::unsetenv("TMPDIR");
    } else {
      ::setenv("TMPDIR", old_.c_str(), 1);
    }
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  size_t Files() const {
    size_t n = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      (void)entry;
      ++n;
    }
    return n;
  }

 private:
  std::string old_;
  std::filesystem::path dir_;
};

TEST(LanePipelineGovernance, KillMidPipelineLeaksNoBudgetOrRunFiles) {
  // Γ(⋈) and Γ(sort(σ)) with a spilling sort, killed by cancel from
  // another thread and by an expired deadline, and Γ(⋈) by the budget (the
  // sort sheds budget pressure by spilling): whatever lands where, nothing
  // stays charged and no run file survives.
  PrivateTempDir tmp;
  Relation r = BigPairs(20000);
  std::vector<AggSpec> aggs = {{AggKind::kSum, 1, "sum_v"},
                               {AggKind::kCnt, 0, "cnt"}};
  auto join_groupby = [&] {
    auto join = LaneJoin(r, r, 8, 64);
    auto schema = ops::GroupBySchema({0}, aggs, join->schema());
    EXPECT_OK(schema);
    return exec::PhysOpPtr(std::make_unique<parallel::HashGroupByOp>(
        std::vector<size_t>{0}, aggs, *schema, std::move(join), 8, 64));
  };
  auto sort_groupby = [&] {
    auto sort = std::make_unique<exec::SortOp>(
        std::vector<size_t>{1}, std::vector<bool>{false}, 0,
        /*spill_bytes=*/64 * 1024,
        std::make_unique<exec::FilterOp>(Lt(Attr(1), Lit(int64_t{15000})),
                                         Scan(r)),
        /*workers=*/8, /*morsel_size=*/64);
    auto schema = ops::GroupBySchema({}, aggs, sort->schema());
    EXPECT_OK(schema);
    return exec::PhysOpPtr(std::make_unique<parallel::HashGroupByOp>(
        std::vector<size_t>{}, aggs, *schema, std::move(sort), 8, 64));
  };
  for (bool is_join : {true, false}) {
    std::function<exec::PhysOpPtr()> build =
        is_join ? std::function<exec::PhysOpPtr()>(join_groupby)
                : std::function<exec::PhysOpPtr()>(sort_groupby);
    for (int round = 0; round < 6; ++round) {
      exec::ExecContext ctx;
      auto op = build();
      op->SetExecContext(&ctx);
      std::thread killer([&ctx, round] {
        std::this_thread::sleep_for(std::chrono::microseconds(200 * round));
        ctx.RequestCancel();
      });
      auto result = exec::ExecuteToRelation(*op, 64);
      killer.join();
      if (!result.ok()) {
        EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
            << result.status().ToString();
      }
      EXPECT_EQ(ctx.mem_used(), 0u) << "cancel round " << round;
      EXPECT_EQ(tmp.Files(), 0u) << "cancel round " << round;
    }
    {
      exec::ExecContext ctx;
      ctx.SetDeadlineAfterMs(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      auto op = build();
      op->SetExecContext(&ctx);
      auto killed = exec::ExecuteToRelation(*op, 64);
      ASSERT_FALSE(killed.ok());
      EXPECT_EQ(killed.status().code(), StatusCode::kDeadlineExceeded);
      EXPECT_EQ(ctx.mem_used(), 0u);
      EXPECT_EQ(tmp.Files(), 0u);
    }
    if (is_join) {
      exec::ExecContext ctx;
      ctx.SetMemoryBudget(16 * 1024);
      auto op = build();
      op->SetExecContext(&ctx);
      auto killed = exec::ExecuteToRelation(*op, 64);
      ASSERT_FALSE(killed.ok());
      EXPECT_EQ(killed.status().code(), StatusCode::kResourceExhausted);
      EXPECT_EQ(ctx.mem_used(), 0u);
      EXPECT_EQ(tmp.Files(), 0u);
    }
  }
}

// --- The pool itself.

TEST(WorkerPoolTest, ParallelForRunsEveryLaneExactlyOnce) {
  auto& pool = parallel::WorkerPool::Global();
  auto lease = pool.Admit(4);
  std::vector<std::atomic<int>> hits(lease.lanes());
  pool.ParallelFor(lease, [&](size_t lane) { hits[lane].fetch_add(1); });
  for (size_t lane = 0; lane < hits.size(); ++lane) {
    EXPECT_EQ(hits[lane].load(), 1) << "lane " << lane;
  }
}

TEST(WorkerPoolTest, SaturationShedsToSerialLease) {
  auto& pool = parallel::WorkerPool::Global();
  // Drain the pool, then the next admission must degrade to one lane (the
  // caller's own) rather than queue.
  std::vector<parallel::WorkerPool::Lease> hogs;
  for (size_t i = 0; i < pool.capacity() + 1; ++i) {
    hogs.push_back(pool.Admit(2));
  }
  auto starved = pool.Admit(8);
  EXPECT_EQ(starved.lanes(), 1u);
  hogs.clear();  // Leases return their lanes on destruction...
  auto refreshed = pool.Admit(2);
  EXPECT_GE(refreshed.lanes(), 2u);  // ...so admission recovers.
}

// --- Planner integration: EXPLAIN ANALYZE carries the lane metrics.

TEST(ParallelExecPlanner, ExplainAnalyzeRendersWorkersAndCpu) {
  auto db = Database::Open();
  ASSERT_OK(db);
  lang::Interpreter interp(
      db->get(), ConfigBuilder().Workers(4).ParallelThreshold(1).Build());
  ASSERT_OK(interp.ExecuteScript(
      "create t(g: int, v: int);"
      "insert(t, {(1, 10) : 3, (1, 20), (2, 5) : 2, (3, 7), (4, 1)});",
      nullptr));
  ASSERT_OK(interp.ExecuteScript("analyze t;", nullptr));
  auto text = interp.ExplainAnalyze("groupby([%1], sum(%2), unique(t))");
  ASSERT_OK(text);
  EXPECT_NE(text->find("HashGroupBy"), std::string::npos) << *text;
  EXPECT_NE(text->find("Dedup"), std::string::npos) << *text;
  EXPECT_NE(text->find("workers="), std::string::npos) << *text;
  EXPECT_NE(text->find("cpu="), std::string::npos) << *text;
}

TEST(ParallelExecPlanner, ThresholdKeepsSmallQueriesSerial) {
  auto db = Database::Open();
  ASSERT_OK(db);
  ASSERT_OK(lang::Interpreter(db->get()).ExecuteScript(
      "create t(g: int, v: int);"
      "insert(t, {(1, 10) : 3, (1, 20), (2, 5) : 2, (3, 7), (4, 1)});"
      "analyze t;",
      nullptr));
  const char* join_query = "groupby([%1], sum(%4), join(%1 = %3, t, t))";
  auto join_oracle = Definitional(**db, join_query);

  // Default config (workers 0): every hash kernel runs its one-lane
  // pipeline, and the join's probe is fused into the group-by's.
  lang::Interpreter serial(db->get());
  auto analyzed = serial.ExplainAnalyze(join_query);
  ASSERT_OK(analyzed);
  EXPECT_EQ(WorkersOf(*analyzed, "HashJoin"), 1) << *analyzed;
  EXPECT_EQ(WorkersOf(*analyzed, "HashGroupBy"), 1) << *analyzed;
  EXPECT_EQ(analyzed->find("parallel:"), std::string::npos) << *analyzed;
  auto got = serial.Query(join_query);
  ASSERT_OK(got);
  EXPECT_REL_EQ(*got, join_oracle);

  // Default threshold (8192 estimated rows) vs a 5-row table: one lane
  // even with workers available — for the breakers over a one-lane join
  // too, which must not take the workers from it.
  lang::Interpreter interp(db->get(), ConfigBuilder().Workers(4).Build());
  for (const char* query :
       {"groupby([%1], sum(%2), unique(t))", join_query,
        "sort([%1], join(%1 = %3, t, t))"}) {
    auto text = interp.ExplainAnalyze(query);
    ASSERT_OK(text);
    EXPECT_EQ(text->find("parallel:"), std::string::npos) << *text;
    EXPECT_EQ(text->find("workers=4"), std::string::npos) << *text;
  }
  got = interp.Query(join_query);
  ASSERT_OK(got);
  EXPECT_REL_EQ(*got, join_oracle);
}

}  // namespace
}  // namespace mra
