// Differential multiset-correctness suite for the hash kernels
// (parallel::HashJoinOp, HashGroupByOp, DedupOp — one implementation each,
// run here mostly on one lane).
//
// Each operator is checked against its *definitional* implementation in
// mra/algebra/ops.h — direct transcriptions of Definitions 3.1/3.2/3.4 —
// over randomized multisets, demanding exact multiset equality (Def 2.3:
// the same tuples with the same multiplicities).  The set-semantics algebra
// (mra/setalg) serves as the degeneration oracle: hash δ must coincide with
// the set interpretation, and an Example-3.2-style case pins down that hash
// group-by follows the bag semantics where set semantics silently differs.
//
// The suite also pins the non-algebraic surface: Def 3.3 partiality of
// AVG/MIN/MAX over an empty input through both the XRA and SQL front ends,
// the planner's hash-vs-fallback choice as shown by EXPLAIN (ANALYZE),
// the build footprint estimate the planner charges a join with, and the
// process-wide hash.* metrics.

#include <gtest/gtest.h>

#include <random>
#include <unordered_map>

#include "mra/algebra/ops.h"
#include "mra/exec/operator.h"
#include "mra/exec/hash_table.h"
#include "mra/exec/physical_planner.h"
#include "mra/lang/interpreter.h"
#include "mra/obs/metrics.h"
#include "mra/parallel/parallel_ops.h"
#include "mra/setalg/set_ops.h"
#include "mra/sql/translator.h"
#include "test_util.h"

namespace mra {
namespace exec {
namespace {

using ::mra::parallel::DedupOp;
using ::mra::parallel::HashGroupByOp;
using ::mra::parallel::HashJoinOp;
using ::mra::testing::IntRel;
using ::mra::testing::IntTuple;
using ::mra::testing::PaperBeerDb;
using ::mra::testing::RandomIntRelation;
using ::mra::testing::RandomMixedRelation;

// Input profiles: multiplicity 1 degenerates to set behaviour on δ-free
// plans, 5 exercises ordinary bags, the huge profile guards the count
// arithmetic (products reach ~10^12, far past uint32).
struct Profile {
  uint64_t max_multiplicity;
  size_t max_distinct;
  int64_t value_range;
};
constexpr Profile kProfiles[] = {
    {1, 200, 25}, {5, 200, 25}, {1'000'000, 40, 8}};

/// Executes at an odd batch capacity and at the default one, and checks
/// each drain against `expected`.
void ExpectOperatorResult(const std::function<PhysOpPtr()>& make,
                          const Relation& expected, const char* what) {
  for (size_t capacity : {size_t{7}, kDefaultBatchSize}) {
    PhysOpPtr op = make();
    auto got = ExecuteToRelation(*op, capacity);
    ASSERT_OK(got);
    EXPECT_REL_EQ(*got, expected) << what << " (capacity=" << capacity << ")";
  }
}

class HashOpsDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HashOpsDifferentialTest, HashJoinMatchesDefinitionalJoin) {
  std::mt19937_64 rng(GetParam());
  for (const Profile& p : kProfiles) {
    Relation r = RandomIntRelation(rng, 2, p.max_distinct, p.value_range,
                                   p.max_multiplicity);
    Relation s = RandomIntRelation(rng, 2, p.max_distinct, p.value_range,
                                   p.max_multiplicity);
    ExprPtr condition = Eq(Attr(0), Attr(2));
    auto oracle = ops::Join(condition, r, s);
    ASSERT_OK(oracle);
    ExpectOperatorResult(
        [&] {
          return std::make_unique<HashJoinOp>(
              std::vector<size_t>{0}, std::vector<size_t>{0}, nullptr,
              std::make_unique<ScanOp>(&r), std::make_unique<ScanOp>(&s));
        },
        *oracle, "hash join vs Def 3.2 join");
  }
}

TEST_P(HashOpsDifferentialTest, HashJoinMultiKeyAndResidual) {
  std::mt19937_64 rng(GetParam());
  Relation r = RandomIntRelation(rng, 3, 300, 10, 5);
  Relation s = RandomIntRelation(rng, 3, 300, 10, 5);
  // %0=%3 ∧ %1=%4 as keys, %2 < %5 as residual.
  ExprPtr condition =
      And(And(Eq(Attr(0), Attr(3)), Eq(Attr(1), Attr(4))),
          Lt(Attr(2), Attr(5)));
  auto oracle = ops::Join(condition, r, s);
  ASSERT_OK(oracle);
  ExpectOperatorResult(
      [&] {
        return std::make_unique<HashJoinOp>(
            std::vector<size_t>{0, 1}, std::vector<size_t>{0, 1},
            Lt(Attr(2), Attr(5)), std::make_unique<ScanOp>(&r),
            std::make_unique<ScanOp>(&s));
      },
      *oracle, "multi-key hash join with residual");
}

TEST_P(HashOpsDifferentialTest, HashJoinAllDuplicateInputs) {
  // Every row identical on both sides: one hash bucket, maximal chaining,
  // and the output multiplicity is exactly the product of the input sizes
  // (Def 3.1: (E1 × E3)(x1 ⊕ x3) = E1(x1) · E3(x3)).
  uint64_t m = 2 + GetParam(), n = 5 + GetParam();
  Relation r = IntRel("r", {{7, 1}}, 2);
  Relation s = IntRel("s", {{7, 2}}, 2);
  Relation rm(r.schema()), sn(s.schema());
  ASSERT_OK(rm.Insert(IntTuple({7, 1}), m));
  ASSERT_OK(sn.Insert(IntTuple({7, 2}), n));
  auto oracle = ops::Join(Eq(Attr(0), Attr(2)), rm, sn);
  ASSERT_OK(oracle);
  EXPECT_EQ(oracle->Multiplicity(IntTuple({7, 1, 7, 2})), m * n);
  ExpectOperatorResult(
      [&] {
        return std::make_unique<HashJoinOp>(
            std::vector<size_t>{0}, std::vector<size_t>{0}, nullptr,
            std::make_unique<ScanOp>(&rm), std::make_unique<ScanOp>(&sn));
      },
      *oracle, "all-duplicate hash join");
}

TEST_P(HashOpsDifferentialTest, HashJoinEmptySides) {
  std::mt19937_64 rng(GetParam());
  Relation r = RandomIntRelation(rng, 2, 100, 20, 5);
  Relation empty(r.schema());
  for (auto [left, right] : {std::pair<const Relation*, const Relation*>{
                                 &r, &empty},
                             {&empty, &r},
                             {&empty, &empty}}) {
    auto oracle = ops::Join(Eq(Attr(0), Attr(2)), *left, *right);
    ASSERT_OK(oracle);
    ExpectOperatorResult(
        [&, left = left, right = right] {
          return std::make_unique<HashJoinOp>(
              std::vector<size_t>{0}, std::vector<size_t>{0}, nullptr,
              std::make_unique<ScanOp>(left),
              std::make_unique<ScanOp>(right));
        },
        *oracle, "hash join with empty side(s)");
  }
}

TEST(HashOpsTest, HashJoinMixedTypeKeys) {
  // String key (beer.brewery = brewery.name) over the paper's database:
  // hash-key equality must agree with = on strings, and "pils" carries
  // multiplicity 2 through the join.
  PaperBeerDb db;
  ExprPtr condition = Eq(Attr(1), Attr(3));
  auto oracle = ops::Join(condition, db.beer, db.brewery);
  ASSERT_OK(oracle);
  ExpectOperatorResult(
      [&] {
        return std::make_unique<HashJoinOp>(
            std::vector<size_t>{1}, std::vector<size_t>{0}, nullptr,
            std::make_unique<ScanOp>(&db.beer),
            std::make_unique<ScanOp>(&db.brewery));
      },
      *oracle, "string-keyed hash join");
  EXPECT_EQ(oracle->Multiplicity(
                Tuple({Value::Str("pils"), Value::Str("Guineken"),
                       Value::Real(5.0), Value::Str("Guineken"),
                       Value::Str("Amsterdam"), Value::Str("NL")})),
            2u);
}

TEST_P(HashOpsDifferentialTest, DedupMatchesDefinitionalUnique) {
  std::mt19937_64 rng(GetParam());
  for (const Profile& p : kProfiles) {
    Relation r = RandomIntRelation(rng, 2, p.max_distinct, p.value_range,
                                   p.max_multiplicity);
    auto oracle = ops::Unique(r);
    ASSERT_OK(oracle);
    // δ is also exactly the set interpretation (Def 3.4 degenerates to
    // setalg::ToSet).
    auto as_set = setalg::ToSet(r);
    ASSERT_OK(as_set);
    EXPECT_REL_EQ(*oracle, *as_set);
    for (size_t lanes : {size_t{1}, size_t{4}}) {
      ExpectOperatorResult(
          [&] {
            return std::make_unique<DedupOp>(std::make_unique<ScanOp>(&r),
                                             lanes, 16);
          },
          *oracle, "hash dedup vs Def 3.4 unique");
    }
  }
}

TEST_P(HashOpsDifferentialTest, DedupEdgeInputs) {
  // Empty input and an all-duplicate input (single distinct tuple with a
  // large multiplicity collapsing to 1).
  Relation empty = IntRel("e", {}, 2);
  Relation dup(empty.schema());
  ASSERT_OK(dup.Insert(IntTuple({3, 4}), 1'000'000 + GetParam()));
  for (const Relation* input : {&empty, &dup}) {
    auto oracle = ops::Unique(*input);
    ASSERT_OK(oracle);
    for (size_t lanes : {size_t{1}, size_t{4}}) {
      ExpectOperatorResult(
          [&, input = input] {
            return std::make_unique<DedupOp>(std::make_unique<ScanOp>(input),
                                             lanes);
          },
          *oracle, "hash dedup edge input");
    }
  }
}

TEST_P(HashOpsDifferentialTest, GroupByMatchesDefinitionalGroupBy) {
  std::mt19937_64 rng(GetParam());
  for (const Profile& p : kProfiles) {
    Relation r = RandomIntRelation(rng, 3, p.max_distinct, p.value_range,
                                   p.max_multiplicity);
    // All five aggregate kinds at once; every group that exists is
    // non-empty, so AVG/MIN/MAX are defined (partiality is tested below).
    std::vector<AggSpec> aggs = {{AggKind::kCnt, 0, "n"},
                                 {AggKind::kSum, 1, "s"},
                                 {AggKind::kAvg, 1, "a"},
                                 {AggKind::kMin, 2, "lo"},
                                 {AggKind::kMax, 2, "hi"}};
    for (const std::vector<size_t>& keys :
         {std::vector<size_t>{0}, std::vector<size_t>{0, 1},
          std::vector<size_t>{}}) {
      if (keys.empty() && r.size() == 0) continue;  // Partial, tested below.
      auto oracle = ops::GroupBy(keys, aggs, r);
      ASSERT_OK(oracle);
      auto schema = ops::GroupBySchema(keys, aggs, r.schema());
      ASSERT_OK(schema);
      ExpectOperatorResult(
          [&] {
            return std::make_unique<HashGroupByOp>(
                keys, aggs, *schema, std::make_unique<ScanOp>(&r));
          },
          *oracle, "hash group-by vs Def 3.4 Γ");
    }
  }
}

TEST(HashOpsTest, GroupByFollowsBagSemanticsNotSetSemantics) {
  // Example 3.2 in miniature: a duplicated row must be aggregated once per
  // occurrence.  The bag oracle and the hash operator agree; the
  // set-semantics Γ sees the distinct tuple once and differs.
  Relation r(IntRel("r", {{1, 10}}, 2).schema());
  ASSERT_OK(r.Insert(IntTuple({1, 10}), 2));
  ASSERT_OK(r.Insert(IntTuple({2, 5}), 1));
  std::vector<AggSpec> aggs = {{AggKind::kSum, 1, "s"}};
  auto bag = ops::GroupBy({0}, aggs, r);
  ASSERT_OK(bag);
  auto set = setalg::GroupBy({0}, aggs, r);
  ASSERT_OK(set);
  EXPECT_EQ(bag->Multiplicity(IntTuple({1, 20})), 1u);  // 10 counted twice.
  EXPECT_EQ(set->Multiplicity(IntTuple({1, 10})), 1u);  // …or once, set-wise.
  EXPECT_FALSE(bag->Equals(*set));
  auto schema = ops::GroupBySchema({0}, aggs, r.schema());
  ASSERT_OK(schema);
  ExpectOperatorResult(
      [&] {
        return std::make_unique<HashGroupByOp>(
            std::vector<size_t>{0}, aggs, *schema,
            std::make_unique<ScanOp>(&r));
      },
      *bag, "hash group-by must follow the bag oracle");
}

TEST_P(HashOpsDifferentialTest, JoinDegeneratesToSetJoinOnSupports) {
  // δ(E1 ⋈ E2) = δ(E1) ⋈_set δ(E2): deduping the hash join's bag output
  // yields exactly the set-semantics join of the supports.
  std::mt19937_64 rng(GetParam());
  Relation r = RandomIntRelation(rng, 2, 150, 20, 5);
  Relation s = RandomIntRelation(rng, 2, 150, 20, 5);
  auto set_join = setalg::Join(Eq(Attr(0), Attr(2)), r, s);
  ASSERT_OK(set_join);
  auto op = std::make_unique<DedupOp>(std::make_unique<HashJoinOp>(
      std::vector<size_t>{0}, std::vector<size_t>{0}, nullptr,
      std::make_unique<ScanOp>(&r), std::make_unique<ScanOp>(&s)));
  auto got = ExecuteToRelation(*op);
  ASSERT_OK(got);
  EXPECT_REL_EQ(*got, *set_join);
}

TEST(HashOpsTest, OperatorReopenRecyclesArena) {
  // Executing the same operator instance twice must give identical results:
  // the second Open reuses the parked hash arena (HashKeyIndex::Reset).
  std::mt19937_64 rng(99);
  Relation r = RandomIntRelation(rng, 2, 200, 25, 5);
  Relation s = RandomIntRelation(rng, 2, 200, 25, 5);
  HashJoinOp join(std::vector<size_t>{0}, std::vector<size_t>{0}, nullptr,
                  std::make_unique<ScanOp>(&r), std::make_unique<ScanOp>(&s));
  auto first = ExecuteToRelation(join);
  ASSERT_OK(first);
  auto second = ExecuteToRelation(join);
  ASSERT_OK(second);
  EXPECT_REL_EQ(*first, *second);

  DedupOp dedup(std::make_unique<ScanOp>(&r));
  auto d1 = ExecuteToRelation(dedup);
  ASSERT_OK(d1);
  auto d2 = ExecuteToRelation(dedup);
  ASSERT_OK(d2);
  EXPECT_REL_EQ(*d1, *d2);

  std::vector<AggSpec> aggs = {{AggKind::kSum, 1, "s"}};
  auto schema = ops::GroupBySchema({0}, aggs, r.schema());
  ASSERT_OK(schema);
  HashGroupByOp gb(std::vector<size_t>{0}, aggs, *schema,
                   std::make_unique<ScanOp>(&r));
  auto g1 = ExecuteToRelation(gb);
  ASSERT_OK(g1);
  auto g2 = ExecuteToRelation(gb);
  ASSERT_OK(g2);
  EXPECT_REL_EQ(*g1, *g2);
}

// --- Flat hash arenas (mra/exec/hash_table.h). ---

Tuple Materialize(TupleView view) {
  return Tuple(std::vector<Value>(view.begin(), view.end()));
}

/// (string, int) rows whose strings are too long for the small-string
/// buffer, so the arenas own heap payloads (what ASan watches on moves).
Tuple LongStringRow(int i) {
  return Tuple({Value::Str("a-key-long-enough-to-live-on-the-heap-" +
                           std::to_string(i)),
                Value::Int(i % 3)});
}

TEST(HashArenaTest, StringMixedAndMultiAttributeKeys) {
  std::mt19937_64 rng(5);
  Relation mixed = RandomMixedRelation(rng, 400, 3);
  ASSERT_GT(mixed.distinct_size(), 0u);
  // The string column alone, every column of every type, a permuted
  // multi-attribute key with a repeat, and the empty key (one group).
  const std::vector<std::vector<size_t>> keys = {
      {3}, {0, 1, 2, 3, 4, 5}, {5, 3, 1, 3}, {}};
  for (const std::vector<size_t>& attrs : keys) {
    HashKeyIndex index;
    std::unordered_map<Tuple, size_t, TupleHash, TupleEq> reference;
    for (const auto& [row, m] : mixed) {
      bool inserted = false;
      size_t id = index.InsertKey(row, attrs, &inserted);
      auto [it, fresh] =
          reference.emplace(row.Project(attrs), reference.size());
      EXPECT_EQ(inserted, fresh);
      EXPECT_EQ(id, it->second);
    }
    ASSERT_EQ(index.size(), reference.size());
    for (const auto& [key, id] : reference) {
      EXPECT_EQ(Materialize(index.key(id)), key);
    }
    for (const auto& [row, m] : mixed) {
      EXPECT_EQ(index.FindKey(row, attrs), reference.at(row.Project(attrs)));
    }
    if (!attrs.empty()) {
      Tuple absent({Value::Bool(true), Value::Int(99), Value::Real(-1.0),
                    Value::Str("not-a-generated-string"),
                    Value::DecimalScaled(1), Value::Date(1)});
      EXPECT_EQ(index.FindKey(absent, attrs), HashKeyIndex::kNotFound);
    }
  }
}

TEST(HashArenaTest, AbsorbMovesStringKeysAndMapsIds) {
  const std::vector<size_t> attrs = {0, 1};
  HashKeyIndex into, from;
  bool inserted = false;
  for (int i = 0; i < 100; ++i) {
    into.InsertKey(LongStringRow(i), attrs, &inserted);
  }
  for (int i = 50; i < 200; ++i) {
    from.InsertKey(LongStringRow(i), attrs, &inserted);
  }
  std::vector<size_t> ids;
  into.Absorb(from, &ids);
  // Keys 50..99 were known (ids 50..99); keys 100..199 are new and take
  // the next ids in from's order — so key i has id i throughout.
  ASSERT_EQ(ids.size(), 150u);
  EXPECT_EQ(into.size(), 200u);
  for (int i = 50; i < 200; ++i) {
    EXPECT_EQ(ids[i - 50], static_cast<size_t>(i));
    EXPECT_EQ(into.FindKey(LongStringRow(i), attrs), static_cast<size_t>(i));
    EXPECT_EQ(Materialize(into.key(i)), LongStringRow(i));
  }
  // The source is left empty with its storage released, and reusable.
  EXPECT_TRUE(from.empty());
  EXPECT_EQ(from.ApproxBytes(), 0u);
  from.InsertKey(LongStringRow(7), attrs, &inserted);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(Materialize(from.key(0)), LongStringRow(7));
  // Absorbing into an empty index takes the keys over in order.
  HashKeyIndex fresh;
  fresh.Absorb(into, &ids);
  ASSERT_EQ(fresh.size(), 200u);
  for (size_t i = 0; i < 200; ++i) EXPECT_EQ(ids[i], i);
  EXPECT_EQ(Materialize(fresh.key(150)), LongStringRow(150));
}

TEST(HashArenaTest, ResetKeepsCapacityAndReproducesIds) {
  const std::vector<size_t> attrs = {1, 0};
  HashKeyIndex index;
  auto fill = [&] {
    std::vector<size_t> ids;
    bool inserted = false;
    for (int i = 0; i < 500; ++i) {
      ids.push_back(index.InsertKey(LongStringRow(i % 321), attrs, &inserted));
    }
    return ids;
  };
  std::vector<size_t> first = fill();
  const size_t bytes = index.ApproxBytes();
  index.Reset();
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.FindKey(LongStringRow(1), attrs), HashKeyIndex::kNotFound);
  // Parked: the arenas and the slot array keep their capacity, so only
  // the string payloads leave the footprint.
  EXPECT_GT(index.ApproxBytes(), 0u);
  EXPECT_LT(index.ApproxBytes(), bytes);
  std::vector<size_t> second = fill();
  EXPECT_EQ(first, second);
  EXPECT_EQ(index.size(), 321u);
  EXPECT_EQ(index.ApproxBytes(), bytes);  // Refilled without growing.
}

TEST(HashArenaTest, JoinDuplicateKeysHugeMultiplicitiesAcrossLanes) {
  // Few key values on both sides (long chains per key), multiplicities up
  // to 1e6 (products up to 1e12), string and int keys: the join at 1 and
  // 4 lanes must yield exactly the Def 3.1 bag — the build's staged
  // arenas, moved into the partitions by RowArena::AppendFrom, included.
  auto with_strings = [](const Relation& ints) {
    Relation out(RelationSchema(
        "strs", {{"s", Type::String()}, {"i", Type::Int()}}));
    for (const auto& [row, m] : ints) {
      out.InsertUnchecked(
          Tuple({Value::Str("key-payload-well-past-sso-" +
                            std::to_string(row.at(0).int_value())),
                 row.at(1)}),
          m);
    }
    return out;
  };
  for (uint64_t seed : {1u, 2u, 3u}) {
    std::mt19937_64 rng(seed);
    Relation r_int = RandomIntRelation(rng, 2, 400, 6, 1'000'000);
    Relation s_int = RandomIntRelation(rng, 2, 400, 6, 1'000'000);
    for (bool strings : {false, true}) {
      Relation r = strings ? with_strings(r_int) : r_int;
      Relation s = strings ? with_strings(s_int) : s_int;
      auto oracle = ops::Join(Eq(Attr(0), Attr(2)), r, s);
      ASSERT_OK(oracle);
      for (size_t lanes : {size_t{1}, size_t{4}}) {
        ExpectOperatorResult(
            [&] {
              return std::make_unique<HashJoinOp>(
                  std::vector<size_t>{0}, std::vector<size_t>{0}, nullptr,
                  std::make_unique<ScanOp>(&r), std::make_unique<ScanOp>(&s),
                  lanes, 16);
            },
            *oracle, lanes == 1 ? "1-lane join" : "4-lane join");
      }
    }
  }
}

TEST(HashArenaTest, BuildEstimateCoversTheChargedFootprint) {
  // The planner picks sort-merge over hash by JoinBuildTable::EstimateBytes;
  // a one-lane build of fixed-width rows with distinct keys must never
  // charge more than that estimate, or a build the planner judged to fit
  // the budget gets killed instead of spilling.
  Relation probe = IntRel("p", {{0, 0}}, 2);
  for (int64_t n : {1'000, 10'000, 100'000}) {
    Relation build(probe.schema());
    for (int64_t i = 0; i < n; ++i) {
      build.InsertUnchecked(IntTuple({i, i % 7}), 1);
    }
    HashJoinOp join(std::vector<size_t>{0}, std::vector<size_t>{0}, nullptr,
                    std::make_unique<ScanOp>(&probe),
                    std::make_unique<ScanOp>(&build));
    ASSERT_OK(ExecuteToRelation(join).status());
    const double estimate =
        JoinBuildTable::EstimateBytes(static_cast<double>(n), 2, 1);
    EXPECT_GE(estimate, static_cast<double>(join.metrics().hash_bytes))
        << n << " rows";
    EXPECT_GT(join.metrics().hash_bytes, 0u);
  }
}

TEST(HashOpsTest, HashMetricsSurfaceInRegistryAndOperator) {
  std::mt19937_64 rng(7);
  Relation r = RandomIntRelation(rng, 2, 200, 25, 5);
  Relation s = RandomIntRelation(rng, 2, 200, 25, 5);
  // Guarantee a joinable row on each side, whatever the seed produced.
  ASSERT_OK(r.Insert(IntTuple({1, 1}), 1));
  ASSERT_OK(s.Insert(IntTuple({1, 2}), 1));
  obs::Counter* build =
      obs::MetricsRegistry::Global().GetCounter("hash.build_rows");
  obs::Counter* probe =
      obs::MetricsRegistry::Global().GetCounter("hash.probe_rows");
  obs::Gauge* peak = obs::MetricsRegistry::Global().GetGauge("hash.peak_bytes");
  uint64_t build_before = build->value();
  uint64_t probe_before = probe->value();

  HashJoinOp join(std::vector<size_t>{0}, std::vector<size_t>{0}, nullptr,
                  std::make_unique<ScanOp>(&r), std::make_unique<ScanOp>(&s));
  ASSERT_OK(ExecuteToRelation(join).status());
  EXPECT_EQ(join.metrics().build_rows, s.distinct_size());
  EXPECT_EQ(join.metrics().probe_rows, r.distinct_size());
  EXPECT_GT(join.metrics().hash_bytes, 0u);
  EXPECT_EQ(build->value() - build_before, join.metrics().build_rows);
  EXPECT_EQ(probe->value() - probe_before, join.metrics().probe_rows);
  EXPECT_GE(static_cast<uint64_t>(peak->value()), join.metrics().hash_bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HashOpsDifferentialTest,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

// --- Aggregate partiality (Def 3.3) through the front ends. ---

class HashOpsFrontEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open();
    ASSERT_OK(db);
    db_ = std::move(*db);
    interp_ = std::make_unique<lang::Interpreter>(db_.get());
    ASSERT_OK(interp_->ExecuteScript(
        "create t(a: int, b: int);"
        "create u(a: int, b: int);"
        "insert(u, {(1, 10), (1, 20), (2, 5)});",
        nullptr));
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<lang::Interpreter> interp_;
};

TEST_F(HashOpsFrontEndTest, XraAvgMinMaxOverEmptyInputAreUndefined) {
  // t is empty: the global group exists (Def 3.4's single-attribute-tuple
  // case) but AVG/MIN/MAX of zero tuples are partial — they must error
  // with kUndefined, not return 0.
  for (const char* agg : {"avg", "min", "max"}) {
    auto result =
        interp_->Query(std::string("groupby([], ") + agg + "(%1), t)");
    ASSERT_FALSE(result.ok()) << agg << " over empty input must be undefined";
    EXPECT_EQ(result.status().code(), StatusCode::kUndefined) << agg;
  }
  // CNT and SUM are total: one global row with 0.
  auto cnt = interp_->Query("groupby([], cnt(%1), t)");
  ASSERT_OK(cnt);
  EXPECT_EQ(cnt->Multiplicity(IntTuple({0})), 1u);
  auto sum = interp_->Query("groupby([], sum(%1), t)");
  ASSERT_OK(sum);
  EXPECT_EQ(sum->Multiplicity(IntTuple({0})), 1u);
}

TEST_F(HashOpsFrontEndTest, SqlAvgOverEmptyTableIsUndefined) {
  sql::SqlSession session(db_.get());
  for (const char* agg : {"AVG(b)", "MIN(b)", "MAX(b)"}) {
    auto result = session.ExecuteCollect(std::string("SELECT ") + agg +
                                         " FROM t");
    ASSERT_FALSE(result.ok()) << agg << " over empty table must be undefined";
    EXPECT_EQ(result.status().code(), StatusCode::kUndefined) << agg;
  }
  auto cnt = session.ExecuteCollect("SELECT COUNT(*) FROM t");
  ASSERT_OK(cnt);
  ASSERT_EQ(cnt->size(), 1u);
  EXPECT_EQ((*cnt)[0].Multiplicity(IntTuple({0})), 1u);
}

TEST_F(HashOpsFrontEndTest, NonEmptyGroupsKeepAvgDefined) {
  // Groups only exist where rows exist, so a keyed AVG never hits the
  // partial case — even though some *other* key value is absent.
  auto result = interp_->Query("groupby([%1], avg(%2), u)");
  ASSERT_OK(result);
  EXPECT_EQ(
      result->Multiplicity(Tuple({Value::Int(1), Value::Real(15.0)})), 1u);
  EXPECT_EQ(result->Multiplicity(Tuple({Value::Int(2), Value::Real(5.0)})),
            1u);
}

// --- Planner choice, visible through EXPLAIN (ANALYZE). ---

TEST_F(HashOpsFrontEndTest, ExplainShowsHashJoinKeysAndBuildProbeCounts) {
  auto plan = interp_->Explain("join(%1 = %3, u, u)");
  ASSERT_OK(plan);
  EXPECT_NE(plan->find("HashJoin"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("[keys: %1=%3]"), std::string::npos) << *plan;

  auto analyzed = interp_->ExplainAnalyze("join(%1 = %3, u, u)");
  ASSERT_OK(analyzed);
  EXPECT_NE(analyzed->find("HashJoin"), std::string::npos) << *analyzed;
  EXPECT_NE(analyzed->find("build="), std::string::npos) << *analyzed;
  EXPECT_NE(analyzed->find("probe="), std::string::npos) << *analyzed;
  EXPECT_NE(analyzed->find("hashKB="), std::string::npos) << *analyzed;
}

TEST_F(HashOpsFrontEndTest, ExplainShowsNestedLoopFallbackForThetaJoin) {
  auto plan = interp_->Explain("join(%1 < %3, u, u)");
  ASSERT_OK(plan);
  EXPECT_EQ(plan->find("HashJoin"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("NestedLoopJoin"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("[fallback: predicate not hashable]"),
            std::string::npos)
      << *plan;
}

}  // namespace
}  // namespace exec
}  // namespace mra
