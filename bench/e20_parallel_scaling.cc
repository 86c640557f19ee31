// E20 — morsel-driven intra-query parallel scaling (supersedes E11, which
// measured the old free-standing parallel helpers; docs/PARALLELISM.md).
//
// The claim: at the 1M-row scale the partitioned hash kernels scale with
// worker lanes — the 4-worker join+group-by pipeline runs >= 2x faster
// than 1 worker — while the 1-worker parallel operator stays within 5% of
// the serial kernel (a one-lane lease skips radix routing entirely, so
// the morsel scheduler must be nearly free when it buys nothing).
//
// Both claims print "REGRESSION" lines when violated so the CI smoke run
// can grep for them; the scaling check is skipped (with a note) on
// machines with fewer than 4 hardware threads, where a 2x expectation is
// physically meaningless.  Result multisets are asserted identical across
// all lane counts before anything is timed.  A per-layer split (scans,
// build, probe, Γ) from the operators' own timing follows the table, with
// the plan's teardown after the drain as a last column.
//
//   $ ./build/bench/e20_parallel_scaling               # full 1M-row run
//   $ ./build/bench/e20_parallel_scaling --rows 50000  # CI smoke scale

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "mra/algebra/ops.h"
#include "mra/exec/operator.h"
#include "mra/expr/scalar_expr.h"
#include "mra/obs/op_metrics.h"
#include "mra/parallel/parallel_ops.h"

namespace mra {
namespace bench {
namespace {

Relation MakeInput(size_t distinct, int64_t value_range, uint64_t seed,
                   const char* name) {
  util::IntRelationOptions options;
  options.name = name;
  options.distinct_tuples = distinct;
  options.arity = 2;
  options.value_range = value_range;
  options.duplicates = util::DupDistribution::kUniform;
  options.max_multiplicity = 4;
  options.seed = seed;
  return Unwrap(util::MakeIntRelation(options));
}

constexpr size_t kMorsel = 1024;

/// The measured pipeline: Γ_{k, sum, cnt}(jl ⋈_{k=k} jr) — a partitioned
/// build+probe feeding a partitioned two-phase aggregation.
exec::PhysOpPtr BuildPipeline(const Relation* left, const Relation* right,
                              size_t workers) {
  std::vector<AggSpec> aggs = {{AggKind::kSum, 1, "sum_v"},
                               {AggKind::kCnt, 0, "cnt"}};
  exec::PhysOpPtr join;
  if (workers <= 1) {
    // workers == 0 selects the serial kernels outright — the overhead
    // baseline; workers == 1 is the parallel operator on a one-lane lease.
    join = workers == 0
               ? exec::PhysOpPtr(std::make_unique<exec::HashJoinOp>(
                     std::vector<size_t>{0}, std::vector<size_t>{0}, nullptr,
                     std::make_unique<exec::ScanOp>(left),
                     std::make_unique<exec::ScanOp>(right)))
               : exec::PhysOpPtr(std::make_unique<parallel::ParallelHashJoinOp>(
                     std::vector<size_t>{0}, std::vector<size_t>{0}, nullptr,
                     std::make_unique<exec::ScanOp>(left),
                     std::make_unique<exec::ScanOp>(right), 1, kMorsel));
  } else {
    join = std::make_unique<parallel::ParallelHashJoinOp>(
        std::vector<size_t>{0}, std::vector<size_t>{0}, nullptr,
        std::make_unique<exec::ScanOp>(left),
        std::make_unique<exec::ScanOp>(right), workers, kMorsel);
  }
  RelationSchema schema =
      Unwrap(ops::GroupBySchema({0}, aggs, join->schema()));
  if (workers == 0) {
    return std::make_unique<exec::HashGroupByOp>(std::vector<size_t>{0}, aggs,
                                                 schema, std::move(join));
  }
  return std::make_unique<parallel::ParallelHashGroupByOp>(
      std::vector<size_t>{0}, aggs, schema, std::move(join),
      std::max<size_t>(workers, 1), kMorsel);
}

uint64_t Drain(exec::PhysicalOperator& root) {
  MRA_CHECK(root.Open().ok());
  exec::RowBatch batch;
  uint64_t weighted = 0;
  while (true) {
    MRA_CHECK(root.NextBatch(batch).ok());
    if (batch.empty()) break;
    for (const exec::Row& row : batch) weighted += row.count;
  }
  root.Close();
  return weighted;
}

double SecondsToDrain(const std::function<exec::PhysOpPtr()>& make,
                      uint64_t* weighted_out) {
  double best = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    exec::PhysOpPtr root = make();
    auto start = std::chrono::steady_clock::now();
    *weighted_out = Drain(*root);
    auto end = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double>(end - start).count());
  }
  return best;
}

/// One timed drain, split by layer from the operators' own metrics (wall
/// time, each layer exclusive of the ones below it): both scans, the
/// join's build and probe, and the group-by on top — then the teardown,
/// timed here: destroying the drained plan with its hash arenas.
void PrintLayerSplit(const Relation* left, const Relation* right,
                     size_t workers) {
  exec::PhysOpPtr root = BuildPipeline(left, right, workers);
  {
    obs::ScopedExecTiming timing(true);
    Drain(*root);
  }
  const exec::PhysicalOperator& join = *root->children()[0];
  const obs::OperatorMetrics& probe_scan = join.children()[0]->metrics();
  const obs::OperatorMetrics& build_scan = join.children()[1]->metrics();
  const obs::OperatorMetrics& j = join.metrics();
  auto ms = [](double ns) { return ns / 1e6; };
  const double scans_ms = ms(probe_scan.total_ns() + build_scan.total_ns());
  const double build_ms =
      ms(static_cast<double>(j.open_ns) - build_scan.total_ns());
  const double probe_ms =
      ms(static_cast<double>(j.next_ns) - probe_scan.total_ns());
  const double group_by_ms =
      ms(static_cast<double>(root->metrics().total_ns()) - j.total_ns());
  auto start = std::chrono::steady_clock::now();
  root.reset();
  const double teardown_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
  Row("%-10zu %-10.1f %-10.1f %-10.1f %-10.1f %-10.1f", workers, scans_ms,
      build_ms, probe_ms, group_by_ms, teardown_ms);
}

void VerifyScaling(size_t rows) {
  Header("E20: morsel-driven parallel scaling",
         "Claim: the partitioned hash join + group-by pipeline at 1M rows "
         "reaches >= 2x at 4 workers over 1, and the 1-worker parallel "
         "operator costs <= 5% over the serial kernel (one-lane leases "
         "skip radix routing).");

  size_t side = std::max<size_t>(10'000, rows / 2);
  int64_t range = static_cast<int64_t>(side) / 2;
  Relation jl = MakeInput(side, range, 20, "jl");
  Relation jr = MakeInput(side, range, 21, "jr");

  // One reference bag, asserted identical across every lane count.
  Relation reference =
      Unwrap(exec::ExecuteToRelation(*BuildPipeline(&jl, &jr, 0)));
  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    Relation result =
        Unwrap(exec::ExecuteToRelation(*BuildPipeline(&jl, &jr, workers)));
    MRA_CHECK(result.Equals(reference))
        << "parallel pipeline changed the result multiset at workers="
        << workers;
  }

  Row("%-10s %-12s %-12s %-10s", "workers", "seconds", "speedup",
      "vs serial");
  uint64_t weighted = 0;
  double serial_s =
      SecondsToDrain([&] { return BuildPipeline(&jl, &jr, 0); }, &weighted);
  Row("%-10s %-12.4f %-12s %-10s", "serial", serial_s, "-", "1.00x");
  double one_worker_s = 0.0;
  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    double s = SecondsToDrain(
        [&] { return BuildPipeline(&jl, &jr, workers); }, &weighted);
    if (workers == 1) one_worker_s = s;
    Row("%-10zu %-12.4f %-11.2fx %-9.2fx", workers,
        s, one_worker_s / s, serial_s / s);
  }

  double overhead = one_worker_s / serial_s - 1.0;
  Row("");
  Row("1-worker overhead over serial kernels: %.1f%%", overhead * 100.0);
  if (overhead > 0.05) {
    Row("REGRESSION: 1-worker parallel operator costs %.1f%% over the "
        "serial kernel (budget: 5%%)", overhead * 100.0);
  }

  Row("");
  Row("layer split, ms (workers 0 = serial kernels):");
  Row("%-10s %-10s %-10s %-10s %-10s %-10s", "workers", "scans", "build",
      "probe", "group-by", "teardown");
  for (size_t workers : {size_t{0}, size_t{1}, size_t{4}}) {
    PrintLayerSplit(&jl, &jr, workers);
  }

  unsigned hw = std::thread::hardware_concurrency();
  if (hw < 4) {
    Row("note: %u hardware threads < 4 — the 2x scaling check is skipped "
        "on this machine", hw);
    return;
  }
  double four_worker_s = SecondsToDrain(
      [&] { return BuildPipeline(&jl, &jr, 4); }, &weighted);
  double speedup = one_worker_s / four_worker_s;
  Row("4-worker speedup over 1 worker: %.2fx", speedup);
  if (speedup < 2.0) {
    Row("REGRESSION: 4-worker speedup %.2fx below the 2x bar", speedup);
  }
}

// --- Microbenchmarks across lane counts. ---

void BM_ParallelPipeline(benchmark::State& state) {
  size_t workers = static_cast<size_t>(state.range(0));
  size_t side = 500'000;
  Relation l = MakeInput(side, static_cast<int64_t>(side) / 2, 20, "l");
  Relation r = MakeInput(side, static_cast<int64_t>(side) / 2, 21, "r");
  for (auto _ : state) {
    exec::PhysOpPtr root = BuildPipeline(&l, &r, workers);
    benchmark::DoNotOptimize(Drain(*root));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(side));
}
BENCHMARK(BM_ParallelPipeline)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
}  // namespace bench
}  // namespace mra

int main(int argc, char** argv) {
  size_t rows = 1'000'000;
  // Strip --rows N before benchmark::Initialize sees (and rejects) it.
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc) {
      rows = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  mra::bench::VerifyScaling(rows);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  mra::bench::DumpMetricsJson("E20");
  return 0;
}
