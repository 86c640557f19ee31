// Differential test for the batch protocol: every physical operator,
// drained through NextBatch() at batch capacities 1 (degenerate), 7 (odd,
// never aligned with input sizes) and 1024 (the default), must produce the
// multiset its definitional counterpart in mra/algebra computes.  This
// pins down every NextBatchImpl — including the ones that resume a cross
// product or a key group across batch edges — and the compiled fast paths
// (CompiledPredicate, attribute-only projection).

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <random>
#include <utility>

#include "mra/algebra/closure.h"
#include "mra/algebra/ops.h"
#include "mra/exec/operator.h"
#include "mra/exec/sort.h"
#include "mra/parallel/parallel_ops.h"
#include "test_util.h"

namespace mra {
namespace exec {
namespace {

using ::mra::testing::IntRel;
using ::mra::testing::RandomIntRelation;

using ::mra::parallel::DedupOp;
using ::mra::parallel::HashGroupByOp;
using ::mra::parallel::HashJoinOp;

using OpFactory = std::function<PhysOpPtr()>;

// Drains a fresh operator tree per batch capacity — each Open re-compiles
// the fast paths, so nothing leaks between runs — and compares each drain
// with `expected`, the definitional ops:: result.
void ExpectBatchAgreement(const OpFactory& make,
                          const Result<Relation>& expected) {
  ASSERT_OK(expected);
  for (size_t capacity : {size_t{1}, size_t{7}, size_t{1024}}) {
    PhysOpPtr op = make();
    auto batched = ExecuteToRelation(*op, capacity);
    ASSERT_OK(batched);
    EXPECT_REL_EQ(*batched, *expected)
        << op->name() << " diverged at capacity " << capacity;
  }
}

PhysOpPtr Scan(const Relation* rel) { return std::make_unique<ScanOp>(rel); }

// Shared inputs: small value range so difference/intersect/join overlap,
// multiplicities up to 5 so the bag semantics are exercised.
struct Corpus {
  explicit Corpus(uint64_t seed) {
    std::mt19937_64 rng(seed);
    r = RandomIntRelation(rng, /*arity=*/2, /*max_distinct=*/200,
                          /*value_range=*/25, /*max_multiplicity=*/5);
    s = RandomIntRelation(rng, 2, 200, 25, 5);
    empty = Relation(r.schema());
  }
  Relation r, s, empty;
};

class BatchDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  Corpus c{GetParam()};
};

TEST_P(BatchDifferentialTest, ScanOp) {
  ExpectBatchAgreement([&] { return Scan(&c.r); }, c.r);
  ExpectBatchAgreement([&] { return Scan(&c.empty); }, c.empty);
}

TEST_P(BatchDifferentialTest, ConstScanOp) {
  ExpectBatchAgreement([&] { return std::make_unique<ConstScanOp>(c.s); },
                       c.s);
}

TEST_P(BatchDifferentialTest, FilterOpCompiledPredicate) {
  // %0 < 12 ∧ %1 > 3: conjunction of attr-op-literal — the compiled path.
  auto cond = [] {
    return And(Lt(Attr(0), Lit(int64_t{12})), Gt(Attr(1), Lit(int64_t{3})));
  };
  ExpectBatchAgreement(
      [&] { return std::make_unique<FilterOp>(cond(), Scan(&c.r)); },
      ops::Select(cond(), c.r));
}

TEST_P(BatchDifferentialTest, FilterOpGeneralExpression) {
  // %0 + %1 > 20 involves arithmetic, so it must take the interpreter path.
  auto cond = [] { return Gt(Add(Attr(0), Attr(1)), Lit(int64_t{20})); };
  ExpectBatchAgreement(
      [&] { return std::make_unique<FilterOp>(cond(), Scan(&c.r)); },
      ops::Select(cond(), c.r));
}

// π over `c.r` through ComputeOp, against ops::Project of the same list.
void ExpectProjectionAgreement(const Relation& input,
                               const std::function<std::vector<ExprPtr>()>&
                                   exprs) {
  auto schema = InferProjectionSchema(exprs(), input.schema());
  ASSERT_OK(schema);
  ExpectBatchAgreement(
      [&] {
        return std::make_unique<ComputeOp>(exprs(), *schema, Scan(&input));
      },
      ops::Project(exprs(), input));
}

TEST_P(BatchDifferentialTest, ComputeOpAttrOnly) {
  // Pure column shuffle — the Tuple::Project fast path.
  ExpectProjectionAgreement(c.r, [] {
    std::vector<ExprPtr> exprs;
    exprs.push_back(Attr(1));
    exprs.push_back(Attr(0));
    return exprs;
  });
}

TEST_P(BatchDifferentialTest, ComputeOpGeneralExpression) {
  ExpectProjectionAgreement(c.r, [] {
    std::vector<ExprPtr> exprs;
    exprs.push_back(Add(Attr(0), Attr(1)));
    return exprs;
  });
}

TEST_P(BatchDifferentialTest, DedupOp) {
  ExpectBatchAgreement([&] { return std::make_unique<DedupOp>(Scan(&c.r)); },
                       ops::Unique(c.r));
  ExpectBatchAgreement(
      [&] { return std::make_unique<DedupOp>(Scan(&c.empty)); }, c.empty);
}

TEST_P(BatchDifferentialTest, UnionAllOp) {
  ExpectBatchAgreement(
      [&] { return std::make_unique<UnionAllOp>(Scan(&c.r), Scan(&c.s)); },
      ops::Union(c.r, c.s));
  // Asymmetric: one side empty exercises the stream hand-over.
  ExpectBatchAgreement(
      [&] { return std::make_unique<UnionAllOp>(Scan(&c.empty), Scan(&c.s)); },
      c.s);
}

TEST_P(BatchDifferentialTest, DifferenceOp) {
  ExpectBatchAgreement(
      [&] { return std::make_unique<DifferenceOp>(Scan(&c.r), Scan(&c.s)); },
      ops::Difference(c.r, c.s));
}

TEST_P(BatchDifferentialTest, IntersectOp) {
  ExpectBatchAgreement(
      [&] { return std::make_unique<IntersectOp>(Scan(&c.r), Scan(&c.s)); },
      ops::Intersect(c.r, c.s));
}

TEST_P(BatchDifferentialTest, NestedLoopJoinOp) {
  // Product (no condition) and a theta join.
  ExpectBatchAgreement(
      [&] {
        return std::make_unique<NestedLoopJoinOp>(nullptr, Scan(&c.r),
                                                  Scan(&c.s));
      },
      ops::Product(c.r, c.s));
  ExpectBatchAgreement(
      [&] {
        return std::make_unique<NestedLoopJoinOp>(Lt(Attr(0), Attr(2)),
                                                  Scan(&c.r), Scan(&c.s));
      },
      ops::Join(Lt(Attr(0), Attr(2)), c.r, c.s));
}

TEST_P(BatchDifferentialTest, HashJoinOp) {
  ExpectBatchAgreement(
      [&] {
        return std::make_unique<HashJoinOp>(std::vector<size_t>{0},
                                            std::vector<size_t>{0}, nullptr,
                                            Scan(&c.r), Scan(&c.s));
      },
      ops::Join(Eq(Attr(0), Attr(2)), c.r, c.s));
  // With residual condition.
  ExpectBatchAgreement(
      [&] {
        return std::make_unique<HashJoinOp>(
            std::vector<size_t>{0}, std::vector<size_t>{0},
            Lt(Attr(1), Attr(3)), Scan(&c.r), Scan(&c.s));
      },
      ops::Join(And(Eq(Attr(0), Attr(2)), Lt(Attr(1), Attr(3))), c.r, c.s));
}

TEST_P(BatchDifferentialTest, HashJoinOpMultiKey) {
  ExpectBatchAgreement(
      [&] {
        return std::make_unique<HashJoinOp>(std::vector<size_t>{0, 1},
                                            std::vector<size_t>{1, 0}, nullptr,
                                            Scan(&c.r), Scan(&c.s));
      },
      ops::Join(And(Eq(Attr(0), Attr(3)), Eq(Attr(1), Attr(2))), c.r, c.s));
}

TEST_P(BatchDifferentialTest, HashJoinOpEmptySides) {
  // Empty build side: every probe misses.  Empty probe side: the build
  // table is constructed and then never probed.
  auto no_pairs = ops::Product(c.r, c.empty);
  ExpectBatchAgreement(
      [&] {
        return std::make_unique<HashJoinOp>(std::vector<size_t>{0},
                                            std::vector<size_t>{0}, nullptr,
                                            Scan(&c.r), Scan(&c.empty));
      },
      no_pairs);
  ExpectBatchAgreement(
      [&] {
        return std::make_unique<HashJoinOp>(std::vector<size_t>{0},
                                            std::vector<size_t>{0}, nullptr,
                                            Scan(&c.empty), Scan(&c.s));
      },
      no_pairs);
}

TEST_P(BatchDifferentialTest, ClosureOp) {
  ExpectBatchAgreement(
      [&] { return std::make_unique<ClosureOp>(Scan(&c.r)); },
      ops::TransitiveClosure(c.r));
}

TEST_P(BatchDifferentialTest, HashGroupByOp) {
  std::vector<AggSpec> aggs = {{AggKind::kSum, 1, "s"},
                               {AggKind::kCnt, 0, "n"},
                               {AggKind::kMax, 1, "m"}};
  auto schema = ops::GroupBySchema({0}, aggs, c.r.schema());
  ASSERT_OK(schema);
  ExpectBatchAgreement(
      [&] {
        return std::make_unique<HashGroupByOp>(std::vector<size_t>{0}, aggs,
                                               *schema, Scan(&c.r));
      },
      ops::GroupBy({0}, aggs, c.r));
}

TEST_P(BatchDifferentialTest, HashGroupByOpGlobalAndEmpty) {
  // Global group (no keys) and an empty input.  Only the total aggregates
  // (CNT/SUM) appear here: AVG/MIN/MAX over the empty input are undefined
  // by Def 3.3 and would (correctly) error on both sides.
  std::vector<AggSpec> aggs = {{AggKind::kCnt, 0, "n"},
                               {AggKind::kSum, 1, "s"}};
  auto schema = ops::GroupBySchema({}, aggs, c.r.schema());
  ASSERT_OK(schema);
  ExpectBatchAgreement(
      [&] {
        return std::make_unique<HashGroupByOp>(std::vector<size_t>{}, aggs,
                                               *schema, Scan(&c.r));
      },
      ops::GroupBy({}, aggs, c.r));
  ExpectBatchAgreement(
      [&] {
        return std::make_unique<HashGroupByOp>(std::vector<size_t>{}, aggs,
                                               *schema, Scan(&c.empty));
      },
      ops::GroupBy({}, aggs, c.empty));
  // Keyed group-by over an empty input: no groups, empty result.
  auto keyed_schema = ops::GroupBySchema({0}, aggs, c.r.schema());
  ASSERT_OK(keyed_schema);
  ExpectBatchAgreement(
      [&] {
        return std::make_unique<HashGroupByOp>(std::vector<size_t>{0}, aggs,
                                               *keyed_schema, Scan(&c.empty));
      },
      ops::GroupBy({0}, aggs, c.empty));
}

TEST_P(BatchDifferentialTest, ComposedPipeline) {
  // The e15 shape — scan → filter → project — plus a dedup on top, as one
  // tree, so batch boundaries propagate through multiple operators.
  auto cond = [] { return Lt(Attr(0), Lit(int64_t{15})); };
  auto filtered = ops::Select(cond(), c.r);
  ASSERT_OK(filtered);
  auto projected = ops::ProjectIndexes({0}, *filtered);
  ASSERT_OK(projected);
  ExpectBatchAgreement(
      [&] {
        auto filter = std::make_unique<FilterOp>(cond(), Scan(&c.r));
        std::vector<ExprPtr> exprs;
        exprs.push_back(Attr(0));
        auto schema = InferProjectionSchema(exprs, c.r.schema());
        MRA_CHECK(schema.ok());
        auto project = std::make_unique<ComputeOp>(std::move(exprs), *schema,
                                                   std::move(filter));
        return std::make_unique<DedupOp>(std::move(project));
      },
      ops::Unique(*projected));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchDifferentialTest,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

// --- Batch edges inside the operators that resume mid-stream. -----------
//
// Each case is sized so its output, or one key group's cross product,
// spans several batches at capacity 7 and one row per batch at capacity 1.

// Two int columns; `rows` are (a, b, multiplicity).
Relation Bag(const std::vector<std::array<int64_t, 3>>& rows) {
  Relation rel = IntRel("bag", {}, 2);
  for (const auto& [a, b, count] : rows) {
    rel.InsertUnchecked(testing::IntTuple({a, b}),
                        static_cast<uint64_t>(count));
  }
  return rel;
}

TEST(BatchBoundaryTest, SortMergeJoinGroupSpansBatches) {
  // Key 1 carries a 6 × 8 group (48 pairs) that the residual
  // left.b < right.b thins to some but not all pairs; keys 0, 2 and 3 add
  // unmatched rows and a 1 × 1 group after it.  Spill bytes 64 runs both
  // inner sorts through their merge runs.
  std::vector<std::array<int64_t, 3>> left_rows = {{0, 5, 1}, {2, 4, 3}};
  std::vector<std::array<int64_t, 3>> right_rows = {{2, 9, 2}, {3, 1, 1}};
  for (int64_t i = 0; i < 6; ++i) left_rows.push_back({1, 2 * i, i + 1});
  for (int64_t j = 0; j < 8; ++j) right_rows.push_back({1, 3 * j, 1000});
  Relation left = Bag(left_rows);
  Relation right = Bag(right_rows);
  for (uint64_t spill_bytes : {uint64_t{0}, uint64_t{64}}) {
    ExpectBatchAgreement(
        [&] {
          return std::make_unique<SortMergeJoinOp>(
              std::vector<size_t>{0}, std::vector<size_t>{0},
              Lt(Attr(1), Attr(3)), Scan(&left), Scan(&right), spill_bytes);
        },
        ops::Join(And(Eq(Attr(0), Attr(2)), Lt(Attr(1), Attr(3))), left,
                  right));
    ExpectBatchAgreement(
        [&] {
          return std::make_unique<SortMergeJoinOp>(
              std::vector<size_t>{0}, std::vector<size_t>{0}, nullptr,
              Scan(&left), Scan(&right), spill_bytes);
        },
        ops::Join(Eq(Attr(0), Attr(2)), left, right));
  }
}

TEST(BatchBoundaryTest, ProductAndThetaJoinCrossBatchEdges) {
  // 13 × 11 pairs, with multiplicities up to 1e6 so the products stay
  // folded; the θ-join keeps roughly half of them.
  std::vector<std::array<int64_t, 3>> left_rows, right_rows;
  for (int64_t i = 0; i < 13; ++i) left_rows.push_back({i, i % 3, i + 1});
  for (int64_t j = 0; j < 11; ++j) {
    right_rows.push_back({j, j % 4, j == 5 ? 1'000'000 : 2});
  }
  Relation left = Bag(left_rows);
  Relation right = Bag(right_rows);
  Relation empty = Bag({});
  ExpectBatchAgreement(
      [&] {
        return std::make_unique<NestedLoopJoinOp>(nullptr, Scan(&left),
                                                  Scan(&right));
      },
      ops::Product(left, right));
  ExpectBatchAgreement(
      [&] {
        return std::make_unique<NestedLoopJoinOp>(Lt(Attr(0), Attr(2)),
                                                  Scan(&left), Scan(&right));
      },
      ops::Join(Lt(Attr(0), Attr(2)), left, right));
  // A condition that rejects every pair, and empty sides.
  ExpectBatchAgreement(
      [&] {
        return std::make_unique<NestedLoopJoinOp>(Lt(Attr(0), Lit(int64_t{0})),
                                                  Scan(&left), Scan(&right));
      },
      ops::Product(empty, right));
  ExpectBatchAgreement(
      [&] {
        return std::make_unique<NestedLoopJoinOp>(nullptr, Scan(&left),
                                                  Scan(&empty));
      },
      ops::Product(left, empty));
  ExpectBatchAgreement(
      [&] {
        return std::make_unique<NestedLoopJoinOp>(nullptr, Scan(&empty),
                                                  Scan(&right));
      },
      ops::Product(empty, right));
}

TEST(BatchBoundaryTest, SetOperatorsAndClosureOverEmptyAndHeavyInputs) {
  // 20 distinct tuples with multiplicities up to 1e6 on each side, half of
  // them shared, so − and ∩ both emit several batches.
  std::vector<std::array<int64_t, 3>> heavy_rows, other_rows;
  for (int64_t i = 0; i < 20; ++i) {
    heavy_rows.push_back({i, i + 1, i % 2 == 0 ? 1'000'000 : i + 1});
    other_rows.push_back({i + 10, i + 11, 500'000});
  }
  Relation heavy = Bag(heavy_rows);
  Relation other = Bag(other_rows);
  Relation empty = Bag({});
  for (auto [l, r] : {std::pair{&heavy, &other}, std::pair{&other, &heavy},
                      std::pair{&heavy, &empty}, std::pair{&empty, &heavy},
                      std::pair{&empty, &empty}, std::pair{&heavy, &heavy}}) {
    ExpectBatchAgreement(
        [&] { return std::make_unique<DifferenceOp>(Scan(l), Scan(r)); },
        ops::Difference(*l, *r));
    ExpectBatchAgreement(
        [&] { return std::make_unique<IntersectOp>(Scan(l), Scan(r)); },
        ops::Intersect(*l, *r));
  }
  // heavy is a 21-node chain (i → i + 1), so its closure holds 210 paths.
  for (const Relation* input : {&heavy, &other, &empty}) {
    ExpectBatchAgreement(
        [&] { return std::make_unique<ClosureOp>(Scan(input)); },
        ops::TransitiveClosure(*input));
  }
}

// Batch-protocol contract details that the differential sweep cannot see.

TEST(RowBatchContractTest, EmptyBatchAfterOkCallMeansEndOfStream) {
  Relation r = IntRel("r", {{1}, {2}, {3}}, 1);
  ScanOp scan(&r);
  ASSERT_OK(scan.Open());
  RowBatch batch(2);
  ASSERT_OK(scan.NextBatch(batch));
  EXPECT_EQ(batch.size(), 2u);
  ASSERT_OK(scan.NextBatch(batch));
  EXPECT_EQ(batch.size(), 1u);
  ASSERT_OK(scan.NextBatch(batch));
  EXPECT_TRUE(batch.empty());
  scan.Close();
}

TEST(RowBatchContractTest, ClearRecyclesRowStorage) {
  // Clear parks rows instead of destroying them: the slot handed back by
  // AppendSlot still owns the previous tuple's buffer, so assigning a
  // same-arity tuple reuses it (no reallocation).
  RowBatch batch(4);
  batch.AppendSlot() = Row{Tuple({Value::Int(1), Value::Int(2)}), 1};
  const Value* before = batch[0].tuple.values().data();
  batch.Clear();
  EXPECT_TRUE(batch.empty());
  // Copy-assign (the ScanOp refill pattern) — a move would replace the
  // buffer instead of reusing it.
  const Tuple next({Value::Int(7), Value::Int(8)});
  Row& slot = batch.AppendSlot();
  slot.tuple = next;
  slot.count = 3;
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].tuple.values().data(), before);
  EXPECT_EQ(batch[0].tuple.at(0).int_value(), 7);
}

TEST(RowBatchContractTest, TruncateCompactsLogicalSizeOnly) {
  RowBatch batch(4);
  for (int64_t i = 0; i < 3; ++i) {
    batch.AppendSlot() = Row{Tuple({Value::Int(i)}), 1};
  }
  batch.Truncate(1);
  EXPECT_EQ(batch.size(), 1u);
  size_t seen = 0;
  for (const Row& row : batch) {
    EXPECT_EQ(row.tuple.at(0).int_value(), 0);
    ++seen;
  }
  EXPECT_EQ(seen, 1u);
}

TEST(RowBatchContractTest, MetricsAgreeAcrossCapacities) {
  Relation r = IntRel("r", {{1}, {1}, {2}, {3}}, 1);
  ScanOp by_row(&r);
  ASSERT_OK(ExecuteToRelation(by_row, 1).status());
  ScanOp by_batch(&r);
  ASSERT_OK(ExecuteToRelation(by_batch, 7).status());
  EXPECT_EQ(by_row.metrics().weighted_rows, by_batch.metrics().weighted_rows);
  EXPECT_EQ(by_row.metrics().rows_emitted, by_batch.metrics().rows_emitted);
  EXPECT_EQ(by_row.metrics().batches_emitted, r.distinct_size());
  EXPECT_EQ(by_batch.metrics().batches_emitted, 1u);
}

}  // namespace
}  // namespace exec
}  // namespace mra
