// Ordered emission for the bag-stream executor: SortOp materialises its
// child, orders the rows under the shared ops::CompareForSort total order
// (sort keys with per-key direction, then a whole-tuple ascending
// tiebreak), and re-emits them as an ordered bag stream.  Multiplicities
// stay folded: a row carrying count 1e6 is one run entry, never a million.
//
// Memory discipline (docs/EXECUTION.md "Ordering and spill"): buffered
// rows are charged against the query budget per input batch; when the
// buffer crosses the spill threshold — the `sort_spill_bytes` knob, or
// half the armed query memory budget, whichever is smaller — the buffer
// is sorted and written out as a merge run through the storage encoder,
// and emission becomes a k-way streaming merge over the run files.  A
// LIMIT turns the buffer into a weighted Top-K heap: entries provably
// outside the top `limit` multiplicity-weight are pruned before they can
// force a spill, and per-run pruning stays sound because a tuple outside
// one run's top-k cannot enter the global top-k.
//
// With workers > 1 the sort is a pipeline breaker (mra/parallel/
// pipeline.h): each lane of the input pipeline fills its own buffer (a
// Top-K heap or a run buffer with the spill threshold split across the
// lanes, so sort memory does not grow with the lane count).  The lane
// buffers meet only at the finish — one sort of the concatenated buffers
// (for Top-K: of the lanes' heaps, whose union holds the global top-k), or
// the k-way merge over every lane's runs.
//
// SortMergeJoinOp is the planner's second equi-join strategy: both inputs
// run through internal SortOps on the join keys (inheriting the spill
// machinery and the ExecContext wiring through children()), then a single
// forward pass over their batches pairs equal-key groups; output
// multiplicity is the product of the matched input multiplicities
// (Definition 3.1), with non-equi residual conjuncts applied to the
// concatenated tuple.  A group pair's cross product resumes across output
// batches, so a key group larger than one batch streams.

#ifndef MRA_EXEC_SORT_H_
#define MRA_EXEC_SORT_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mra/exec/operator.h"
#include "mra/expr/scalar_expr.h"
#include "mra/parallel/pipeline.h"
#include "mra/storage/serializer.h"

namespace mra {
namespace exec {

/// Ordered emission with optional weighted LIMIT and external-merge spill.
class SortOp final : public PhysicalOperator {
 public:
  /// `keys`/`desc` index the child schema; `limit` 0 means full sort.
  /// `spill_bytes` is ExecConfig::exec.sort_spill_bytes (0 = no fixed run
  /// cap; the budget-derived cap still applies when a budget is armed).
  /// `workers` > 1 runs the input as a lane pipeline of that many lanes.
  SortOp(std::vector<size_t> keys, std::vector<bool> desc, uint64_t limit,
         uint64_t spill_bytes, PhysOpPtr child, size_t workers = 1,
         size_t morsel_size = 0);
  ~SortOp() override;

  const RelationSchema& schema() const override { return child_->schema(); }
  std::string_view name() const override { return "Sort"; }
  std::vector<const PhysicalOperator*> children() const override {
    return {child_.get()};
  }

  /// Merge runs written by the last Open (0 for a fully in-memory sort);
  /// survives Close so tests can assert the forced-spill path spilled.
  size_t spilled_runs() const { return spilled_runs_; }

  uint64_t limit() const { return limit_; }

 protected:
  Status OpenImpl() override;
  Status NextBatchImpl(RowBatch& out) override;
  void CloseImpl() override;

 private:
  struct RunReader;

  /// One lane's buffer: plain rows for a full sort, a max-heap (worst
  /// entry at the front) while a LIMIT is pruning.
  struct LaneBuffer {
    std::vector<Row> rows;
    uint64_t bytes = 0;
    uint64_t weight = 0;  // Multiplicity-weighted size of `rows`.
    storage::Encoder encoder;  // Reused by every run this lane spills.
  };

  /// The whole Open body; OpenImpl wraps it so every failure path (child
  /// error, injected spill fault, budget trip) funnels through AbortOpen —
  /// the wrapper never calls CloseImpl after a failed Open, so run files
  /// must be reclaimed here.
  Status OpenInner();
  void AbortOpen();

  /// Buffers one input row in `lane`, spilling once the buffer reaches
  /// `threshold` bytes.
  Status Add(LaneBuffer& lane, Row& row, uint64_t threshold);

  /// Sorts the lane's rows and writes them as one length-prefixed run file
  /// (run.tmp, fsync-free write, then rename); clears the buffer.
  Status SpillRun(LaneBuffer& lane);

  /// Weighted Top-K pruning: pops heap entries that provably cannot reach
  /// the top `limit_` multiplicity-weight.
  void PruneTopK(LaneBuffer& lane);

  bool SortsBefore(const Row& a, const Row& b) const;

  /// Initialises the k-way merge over run_files_ (readers + min-heap).
  Status StartMerge();

  void RemoveRunFiles();

  /// Moves the next row in order into `slot` (swapping storage), clamped
  /// against the remaining LIMIT weight; false at end of stream or once
  /// the limit is exhausted.
  Result<bool> EmitNext(Row& slot);

  std::vector<size_t> keys_;
  std::vector<bool> desc_;
  uint64_t limit_;
  uint64_t spill_bytes_;
  PhysOpPtr child_;
  size_t workers_;
  parallel::Pipeline input_;

  std::vector<LaneBuffer> lane_buffers_;  // Open-time only.
  std::vector<Row> buffer_;               // Sorted in-memory result.
  size_t pos_ = 0;                        // In-memory emission cursor.
  uint64_t emitted_weight_ = 0;

  // Spill state; lanes append their runs under runs_mu_.
  size_t spilled_runs_ = 0;  // Runs written by the last Open; survives Close.
  std::mutex runs_mu_;
  std::vector<std::string> run_files_;
  std::vector<std::unique_ptr<RunReader>> readers_;
  std::vector<size_t> merge_heap_;  // Reader indexes, min-heap on current.
  bool merging_ = false;

  // Planner annotation captured on first Open so the runtime spill note
  // can be re-derived instead of re-appended on reopen.
  std::string base_annotation_;
  bool base_annotation_captured_ = false;
};

/// Equi-join by merge over key-sorted inputs.
class SortMergeJoinOp final : public PhysicalOperator {
 public:
  /// `left_keys[i]` pairs with `right_keys[i]` (indexes local to each
  /// side); `residual_or_null` is evaluated over the concatenated tuple.
  /// `spill_bytes` is forwarded to the internal per-input SortOps.
  SortMergeJoinOp(std::vector<size_t> left_keys,
                  std::vector<size_t> right_keys, ExprPtr residual_or_null,
                  PhysOpPtr left, PhysOpPtr right, uint64_t spill_bytes);

  const RelationSchema& schema() const override { return schema_; }
  std::string_view name() const override { return "SortMergeJoin"; }
  std::vector<const PhysicalOperator*> children() const override {
    return {left_sort_.get(), right_sort_.get()};
  }

 protected:
  Status OpenImpl() override;
  Status NextBatchImpl(RowBatch& out) override;
  void CloseImpl() override;

 private:
  /// Peek cursor over one sorted input's NextBatch stream.
  struct Cursor {
    SortOp* side = nullptr;
    RowBatch batch;
    size_t pos = 0;
    bool done = false;

    /// Makes row() the next unconsumed row, pulling a batch from `side`
    /// when the current one is used up; false at end of stream.
    Result<bool> Peek();
    Row& row() { return batch[pos]; }
    void Reset() {
      batch.Clear();
      pos = 0;
      done = false;
    }
  };

  /// left key attrs vs right key attrs under Value::Compare, in key order.
  int CompareKeys(const Tuple& left, const Tuple& right) const;

  /// Moves every row whose key equals the cursor's current row's into
  /// `group`, leaving the cursor on the first differing row.
  static Status FillGroup(const std::vector<size_t>& keys, Cursor& cursor,
                          std::vector<Row>& group);

  std::vector<size_t> left_keys_;
  std::vector<size_t> right_keys_;
  ExprPtr residual_;
  std::unique_ptr<SortOp> left_sort_;
  std::unique_ptr<SortOp> right_sort_;
  RelationSchema schema_;

  Cursor left_;
  Cursor right_;
  std::vector<Row> left_group_;
  std::vector<Row> right_group_;
  size_t li_ = 0;  // Cross-product cursor over the current group pair.
  size_t rj_ = 0;
};

}  // namespace exec
}  // namespace mra

#endif  // MRA_EXEC_SORT_H_
