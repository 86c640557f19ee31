// The hash kernels: ⋈ on equi-keys, Γ and δ, one implementation each at
// every lane count (docs/PARALLELISM.md).  Serial execution is the
// one-lane case, not a second copy.
//
// All three are pipeline breakers.  Each compiles its input subtree into a
// lane pipeline (mra/parallel/pipeline.h) at construction, and its Open
// runs that pipeline under one WorkerPool lease with a per-lane sink, then
// finishes with one synchronisation phase; NextBatch streams the finished
// state.  A HashJoinOp is also a pipeline *stage*: when its
// parent fuses it, its Open only builds, and the parent's lanes probe the
// finished build morsel by morsel.  Pulled through NextBatch instead (as a
// plan root, or under a parent that does not fuse), it probes on the
// caller's thread.
//
// Partitioning is by key-hash radix — high hash bits, so routing never
// correlates with the slot bits the per-partition hash index uses:
// P = next power of two >= 4 x lanes partitions (exactly 1 on a one-lane
// lease, which skips routing entirely).  The partitions are disjoint by
// key, and under the paper's multi-set semantics that is the whole
// correctness argument:
//
//  * join (Def 3.1): every (probe, build) match pair has equal key hashes,
//    so it meets in exactly one partition; output multiplicities are the
//    per-pair products, and the result is the disjoint ⊎ of what the lanes
//    emit.
//  * group-by (Def 3.3): the aggregates are multiplicity-weighted sums /
//    extrema, so per-lane partial accumulators over a partition of the
//    input merge additively (AggAccumulator::Merge) into exactly the
//    definitional per-group values.
//  * dedup (δ): the support of a disjoint union is the union of supports;
//    per-lane pre-dedup only collapses duplicates early.
//
// Governance: the shared ExecContext reaches every lane — each lane checks
// it per morsel, so a cancel/deadline/budget kill lands within one morsel
// on all cores.  Only lane 0 (always the query thread) calls ChargeMemTo;
// worker lanes publish their footprints through relaxed atomics that lane 0
// folds after each of its own morsels and at every phase join.
//
// Metrics: `workers=N` is the lease the operator's own pipeline ran on;
// `cpu=` is the summed lane time of the sink and finish phases (for a
// fused join, of the build and the probe stage), next to elapsed wall time.

#ifndef MRA_PARALLEL_PARALLEL_OPS_H_
#define MRA_PARALLEL_PARALLEL_OPS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "mra/exec/hash_table.h"
#include "mra/exec/operator.h"
#include "mra/parallel/pipeline.h"
#include "mra/parallel/worker_pool.h"

namespace mra {
namespace parallel {

/// ⋈ on equi-key conjuncts, partitioned: the build side's lanes route rows
/// by key radix into per-lane staging, then one private hash arena per
/// partition is built in parallel.  Probes route by the same radix into
/// the read-only partitions.  Output multiplicity is the product of the
/// matched input multiplicities (Definition 3.1).  On one lane there is a
/// single partition and no staging pass: rows go straight into its arena.
class HashJoinOp final : public exec::PhysicalOperator {
 public:
  /// `left_keys[i]` pairs with `right_keys[i]` (indexes are local to each
  /// side); `residual_or_null` is evaluated over the concatenated tuple.
  /// `workers` is the lane count the build asks the pool for.
  HashJoinOp(std::vector<size_t> left_keys, std::vector<size_t> right_keys,
             ExprPtr residual_or_null, exec::PhysOpPtr left,
             exec::PhysOpPtr right, size_t workers = 1,
             size_t morsel_size = exec::kDefaultBatchSize);

  const RelationSchema& schema() const override { return schema_; }
  std::string_view name() const override { return "HashJoin"; }
  size_t workers() const { return workers_; }
  std::vector<const exec::PhysicalOperator*> children() const override {
    return {left_.get(), right_.get()};
  }

 protected:
  Status OpenImpl() override;
  Status NextBatchImpl(exec::RowBatch& out) override;
  void CloseImpl() override;

 private:
  friend class Pipeline;  // Fuses the probe into its lanes.

  static constexpr size_t kNone = exec::JoinBuildTable::kNone;

  /// One radix partition's build arena, private to the lane that built it
  /// and read-only during the probe.
  using Partition = exec::JoinBuildTable;

  /// One lane's build rows bound for one partition, copied out of the
  /// morsel into a flat arena, with each row's key hash.
  struct Staged {
    exec::RowArena rows;
    std::vector<size_t> hashes;
    size_t ApproxBytes() const {
      return rows.ApproxBytes() + hashes.capacity() * sizeof(size_t);
    }
  };

  /// Runs the build pipeline and finishes the partitions.
  Status Build();

  /// The first build row matching `probe` (kNone when none) and the
  /// partition holding its chain; `hash` is probe.HashKey(left_keys_).
  size_t FindChain(const Tuple& probe, size_t hash,
                   const Partition** part) const;
  size_t FindChain(const Tuple& probe, const Partition** part) const {
    return FindChain(probe, probe.HashKey(left_keys_), part);
  }

  /// Starts loading the index slot FindChain probes first for `hash`.
  void Prefetch(size_t hash) const;

  std::vector<size_t> left_keys_;
  std::vector<size_t> right_keys_;
  ExprPtr residual_;
  RelationSchema schema_;
  exec::PhysOpPtr left_;
  exec::PhysOpPtr right_;
  size_t workers_;
  size_t morsel_size_;
  std::unique_ptr<Pipeline> build_;
  /// Set when a parent pipeline drives the probe: Open only builds.
  bool fused_ = false;

  // Open-time state, cleared on Close.
  std::vector<std::vector<Staged>> staged_;  // [lane][p]
  std::vector<Partition> partitions_;

  // Caller-thread probe cursor (unfused): the current probe row and its
  // position in the match chain.
  exec::RowBatch probe_batch_;
  size_t probe_pos_ = 0;
  const Partition* chain_part_ = nullptr;
  size_t chain_ = kNone;
};

/// Γ, partitioned: the input pipeline's lanes fold into per-lane
/// pre-aggregation tables routed by group-key radix; a parallel merge phase
/// folds each partition across lanes with AggAccumulator::Merge
/// (Definition 3.3 aggregates are multiplicity-weighted, hence additive
/// over disjoint input partitions).
/// Key-free aggregation degenerates to per-lane accumulators merged at the
/// join — classic two-phase aggregation — and preserves the Definition 3.3
/// empty-input global group.
class HashGroupByOp final : public exec::PhysicalOperator {
 public:
  HashGroupByOp(std::vector<size_t> keys, std::vector<AggSpec> aggs,
                RelationSchema output_schema, exec::PhysOpPtr child,
                size_t workers = 1,
                size_t morsel_size = exec::kDefaultBatchSize);

  const RelationSchema& schema() const override { return schema_; }
  std::string_view name() const override { return "HashGroupBy"; }
  std::vector<const exec::PhysicalOperator*> children() const override {
    return {child_.get()};
  }

 protected:
  Status OpenImpl() override;
  Status NextBatchImpl(exec::RowBatch& out) override;
  void CloseImpl() override;

 private:
  /// One group table: key index plus the flat accumulator arena
  /// (group id x aggregate).  Ids are dense in first-occurrence order, so
  /// accs[id * aggs.size() + i] is group id's i-th aggregate.
  struct GroupTable {
    exec::HashKeyIndex index;
    std::vector<AggAccumulator> accs;
    size_t ApproxBytes() const {
      return index.ApproxBytes() + accs.capacity() * sizeof(AggAccumulator);
    }
  };

  /// Fills `out` (a recycled slot) with the output tuple of `table`'s
  /// group id: key attributes ⊕ finished aggregates.
  Status EmitGroup(const GroupTable& table, size_t id, Tuple& out);

  /// Runs the input pipeline and the merge phase.
  Status Aggregate();

  std::vector<size_t> keys_;
  std::vector<AggSpec> aggs_;
  std::vector<Type> agg_types_;  // Input type per aggregate, for ctors.
  RelationSchema schema_;
  exec::PhysOpPtr child_;
  size_t workers_;
  std::unique_ptr<Pipeline> input_;

  std::vector<std::vector<GroupTable>> lane_tables_;  // [lane][p]
  std::vector<GroupTable> merged_;                    // [p]
  size_t emit_part_ = 0;
  size_t emit_pos_ = 0;
};

/// δ, partitioned: the input pipeline's lanes pre-dedup into radix-routed
/// key indexes, then a parallel partition-wise union of supports; every
/// surviving tuple streams with multiplicity 1.
class DedupOp final : public exec::PhysicalOperator {
 public:
  explicit DedupOp(exec::PhysOpPtr child, size_t workers = 1,
                   size_t morsel_size = exec::kDefaultBatchSize);

  const RelationSchema& schema() const override { return child_->schema(); }
  std::string_view name() const override { return "Dedup"; }
  std::vector<const exec::PhysicalOperator*> children() const override {
    return {child_.get()};
  }

 protected:
  Status OpenImpl() override;
  Status NextBatchImpl(exec::RowBatch& out) override;
  void CloseImpl() override;

 private:
  /// Runs the input pipeline and the merge phase.
  Status Deduplicate();

  exec::PhysOpPtr child_;
  std::vector<size_t> identity_;  // 0..arity-1: δ keys on all attributes.
  size_t workers_;
  std::unique_ptr<Pipeline> input_;

  std::vector<std::vector<exec::HashKeyIndex>> lane_seen_;  // [lane][p]
  std::vector<exec::HashKeyIndex> merged_;                  // [p]
  size_t emit_part_ = 0;
  size_t emit_pos_ = 0;
};

}  // namespace parallel
}  // namespace mra

#endif  // MRA_PARALLEL_PARALLEL_OPS_H_
