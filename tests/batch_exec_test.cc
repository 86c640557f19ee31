// Differential test for the batch-at-a-time protocol: every physical
// operator must produce the identical multiset through NextBatch() — at
// batch sizes 1 (degenerate), 7 (odd, never aligned with input sizes) and
// 1024 (the default) — as through the legacy row-at-a-time Next() loop
// (batch size 0 in ExecuteToRelation).  This pins down the adapter in the
// base class, every native NextBatchImpl override, and the compiled
// fast paths (CompiledPredicate, attribute-only projection), which only
// engage on the batch path.

#include <gtest/gtest.h>

#include <functional>
#include <random>

#include "mra/algebra/ops.h"
#include "mra/exec/operator.h"
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

// Drains a fresh operator tree per protocol/batch size — each Open
// re-compiles the fast paths, so nothing leaks between runs.
void ExpectBatchAgreement(const OpFactory& make) {
  PhysOpPtr reference_op = make();
  auto reference = ExecuteToRelation(*reference_op, /*batch_size=*/0);
  ASSERT_OK(reference);
  for (size_t batch_size : {size_t{1}, size_t{7}, size_t{1024}}) {
    PhysOpPtr op = make();
    auto batched = ExecuteToRelation(*op, batch_size);
    ASSERT_OK(batched);
    EXPECT_REL_EQ(*batched, *reference)
        << op->name() << " diverged at batch size " << batch_size;
  }
}

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
  ExpectBatchAgreement([&] { return std::make_unique<ScanOp>(&c.r); });
  ExpectBatchAgreement([&] { return std::make_unique<ScanOp>(&c.empty); });
}

TEST_P(BatchDifferentialTest, ConstScanOp) {
  ExpectBatchAgreement([&] { return std::make_unique<ConstScanOp>(c.s); });
}

TEST_P(BatchDifferentialTest, FilterOpCompiledPredicate) {
  // %0 < 12 ∧ %1 > 3: conjunction of attr-op-literal — the compiled path.
  ExpectBatchAgreement([&] {
    return std::make_unique<FilterOp>(
        And(Lt(Attr(0), Lit(int64_t{12})), Gt(Attr(1), Lit(int64_t{3}))),
        std::make_unique<ScanOp>(&c.r));
  });
}

TEST_P(BatchDifferentialTest, FilterOpGeneralExpression) {
  // %0 + %1 > 20 involves arithmetic, so it must take the interpreter path.
  ExpectBatchAgreement([&] {
    return std::make_unique<FilterOp>(
        Gt(Add(Attr(0), Attr(1)), Lit(int64_t{20})),
        std::make_unique<ScanOp>(&c.r));
  });
}

TEST_P(BatchDifferentialTest, ComputeOpAttrOnly) {
  // Pure column shuffle — the Tuple::Project fast path.
  ExpectBatchAgreement([&] {
    std::vector<ExprPtr> exprs;
    exprs.push_back(Attr(1));
    exprs.push_back(Attr(0));
    auto schema = InferProjectionSchema(exprs, c.r.schema());
    MRA_CHECK(schema.ok());
    return std::make_unique<ComputeOp>(std::move(exprs), *schema,
                                       std::make_unique<ScanOp>(&c.r));
  });
}

TEST_P(BatchDifferentialTest, ComputeOpGeneralExpression) {
  ExpectBatchAgreement([&] {
    std::vector<ExprPtr> exprs;
    exprs.push_back(Add(Attr(0), Attr(1)));
    auto schema = InferProjectionSchema(exprs, c.r.schema());
    MRA_CHECK(schema.ok());
    return std::make_unique<ComputeOp>(std::move(exprs), *schema,
                                       std::make_unique<ScanOp>(&c.r));
  });
}

TEST_P(BatchDifferentialTest, DedupOp) {
  ExpectBatchAgreement(
      [&] { return std::make_unique<DedupOp>(std::make_unique<ScanOp>(&c.r)); });
  ExpectBatchAgreement([&] {
    return std::make_unique<DedupOp>(std::make_unique<ScanOp>(&c.empty));
  });
}

TEST_P(BatchDifferentialTest, UnionAllOp) {
  ExpectBatchAgreement([&] {
    return std::make_unique<UnionAllOp>(std::make_unique<ScanOp>(&c.r),
                                        std::make_unique<ScanOp>(&c.s));
  });
  // Asymmetric: one side empty exercises the stream hand-over.
  ExpectBatchAgreement([&] {
    return std::make_unique<UnionAllOp>(std::make_unique<ScanOp>(&c.empty),
                                        std::make_unique<ScanOp>(&c.s));
  });
}

TEST_P(BatchDifferentialTest, DifferenceOp) {
  ExpectBatchAgreement([&] {
    return std::make_unique<DifferenceOp>(std::make_unique<ScanOp>(&c.r),
                                          std::make_unique<ScanOp>(&c.s));
  });
}

TEST_P(BatchDifferentialTest, IntersectOp) {
  ExpectBatchAgreement([&] {
    return std::make_unique<IntersectOp>(std::make_unique<ScanOp>(&c.r),
                                         std::make_unique<ScanOp>(&c.s));
  });
}

TEST_P(BatchDifferentialTest, NestedLoopJoinOp) {
  // Product (no condition) and a theta join.
  ExpectBatchAgreement([&] {
    return std::make_unique<NestedLoopJoinOp>(
        nullptr, std::make_unique<ScanOp>(&c.r),
        std::make_unique<ScanOp>(&c.s));
  });
  ExpectBatchAgreement([&] {
    return std::make_unique<NestedLoopJoinOp>(
        Lt(Attr(0), Attr(2)), std::make_unique<ScanOp>(&c.r),
        std::make_unique<ScanOp>(&c.s));
  });
}

TEST_P(BatchDifferentialTest, HashJoinOp) {
  ExpectBatchAgreement([&] {
    return std::make_unique<HashJoinOp>(
        std::vector<size_t>{0}, std::vector<size_t>{0}, nullptr,
        std::make_unique<ScanOp>(&c.r), std::make_unique<ScanOp>(&c.s));
  });
  // With residual condition.
  ExpectBatchAgreement([&] {
    return std::make_unique<HashJoinOp>(
        std::vector<size_t>{0}, std::vector<size_t>{0}, Lt(Attr(1), Attr(3)),
        std::make_unique<ScanOp>(&c.r), std::make_unique<ScanOp>(&c.s));
  });
}

TEST_P(BatchDifferentialTest, HashJoinOpMultiKey) {
  ExpectBatchAgreement([&] {
    return std::make_unique<HashJoinOp>(
        std::vector<size_t>{0, 1}, std::vector<size_t>{1, 0}, nullptr,
        std::make_unique<ScanOp>(&c.r), std::make_unique<ScanOp>(&c.s));
  });
}

TEST_P(BatchDifferentialTest, HashJoinOpEmptySides) {
  // Empty build side: every probe misses.  Empty probe side: the build
  // table is constructed and then never probed.
  ExpectBatchAgreement([&] {
    return std::make_unique<HashJoinOp>(
        std::vector<size_t>{0}, std::vector<size_t>{0}, nullptr,
        std::make_unique<ScanOp>(&c.r), std::make_unique<ScanOp>(&c.empty));
  });
  ExpectBatchAgreement([&] {
    return std::make_unique<HashJoinOp>(
        std::vector<size_t>{0}, std::vector<size_t>{0}, nullptr,
        std::make_unique<ScanOp>(&c.empty), std::make_unique<ScanOp>(&c.s));
  });
}

TEST_P(BatchDifferentialTest, ClosureOp) {
  ExpectBatchAgreement([&] {
    return std::make_unique<ClosureOp>(std::make_unique<ScanOp>(&c.r));
  });
}

TEST_P(BatchDifferentialTest, HashGroupByOp) {
  std::vector<AggSpec> aggs = {{AggKind::kSum, 1, "s"},
                               {AggKind::kCnt, 0, "n"},
                               {AggKind::kMax, 1, "m"}};
  auto schema = ops::GroupBySchema({0}, aggs, c.r.schema());
  ASSERT_OK(schema);
  ExpectBatchAgreement([&] {
    return std::make_unique<HashGroupByOp>(
        std::vector<size_t>{0}, aggs, *schema, std::make_unique<ScanOp>(&c.r));
  });
}

TEST_P(BatchDifferentialTest, HashGroupByOpGlobalAndEmpty) {
  // Global group (no keys) and an empty input.  Only the total aggregates
  // (CNT/SUM) appear here: AVG/MIN/MAX over the empty input are undefined
  // by Def 3.3 and would (correctly) error on both protocols.
  std::vector<AggSpec> aggs = {{AggKind::kCnt, 0, "n"},
                               {AggKind::kSum, 1, "s"}};
  auto schema = ops::GroupBySchema({}, aggs, c.r.schema());
  ASSERT_OK(schema);
  ExpectBatchAgreement([&] {
    return std::make_unique<HashGroupByOp>(std::vector<size_t>{}, aggs,
                                           *schema,
                                           std::make_unique<ScanOp>(&c.r));
  });
  ExpectBatchAgreement([&] {
    return std::make_unique<HashGroupByOp>(
        std::vector<size_t>{}, aggs, *schema,
        std::make_unique<ScanOp>(&c.empty));
  });
  // Keyed group-by over an empty input: no groups, empty result.
  auto keyed_schema = ops::GroupBySchema({0}, aggs, c.r.schema());
  ASSERT_OK(keyed_schema);
  ExpectBatchAgreement([&] {
    return std::make_unique<HashGroupByOp>(
        std::vector<size_t>{0}, aggs, *keyed_schema,
        std::make_unique<ScanOp>(&c.empty));
  });
}

TEST_P(BatchDifferentialTest, ComposedPipeline) {
  // The e15 shape — scan → filter → project — plus a dedup on top, as one
  // tree, so batch boundaries propagate through multiple operators.
  ExpectBatchAgreement([&] {
    auto filter = std::make_unique<FilterOp>(Lt(Attr(0), Lit(int64_t{15})),
                                             std::make_unique<ScanOp>(&c.r));
    std::vector<ExprPtr> exprs;
    exprs.push_back(Attr(0));
    auto schema = InferProjectionSchema(exprs, c.r.schema());
    MRA_CHECK(schema.ok());
    auto project = std::make_unique<ComputeOp>(std::move(exprs), *schema,
                                               std::move(filter));
    return std::make_unique<DedupOp>(std::move(project));
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchDifferentialTest,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

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

TEST(RowBatchContractTest, ProtocolsShareTheCursor) {
  // Interleaving Next() and NextBatch() drains one stream, not two.
  Relation r = IntRel("r", {{1}, {2}, {3}, {4}}, 1);
  ScanOp scan(&r);
  ASSERT_OK(scan.Open());
  auto row = scan.Next();
  ASSERT_OK(row);
  ASSERT_TRUE(row->has_value());
  RowBatch batch(8);
  ASSERT_OK(scan.NextBatch(batch));
  EXPECT_EQ(batch.size(), 3u);  // The remaining rows, not all four.
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

TEST(RowBatchContractTest, MetricsAgreeAcrossProtocols) {
  Relation r = IntRel("r", {{1}, {1}, {2}, {3}}, 1);
  ScanOp by_row(&r);
  ASSERT_OK(ExecuteToRelation(by_row, 0).status());
  ScanOp by_batch(&r);
  ASSERT_OK(ExecuteToRelation(by_batch, 7).status());
  EXPECT_EQ(by_row.metrics().weighted_rows, by_batch.metrics().weighted_rows);
  EXPECT_EQ(by_row.metrics().distinct_rows, by_batch.metrics().distinct_rows);
  EXPECT_GT(by_batch.metrics().batches_emitted, 0u);
}

}  // namespace
}  // namespace exec
}  // namespace mra
