// Lane pipelines: morsel-driven execution after Leis et al., "Morsel-Driven
// Parallelism", SIGMOD 2014 (docs/PARALLELISM.md).
//
// A pipeline is the chain of streaming operators between a source and a
// pipeline breaker.  The breaker (join build, Γ, δ, sort) compiles its
// input subtree into one Pipeline at construction:
//
//   source    a Scan / ConstScan: lanes claim hash-bucket ranges of the
//             relation through an atomic cursor, lock-free (a single lane
//             walks it in iteration order instead).  Any other operator
//             is a *serial* source: it is opened and pulled through
//             NextBatch by a single lane.
//   stages    Filter, Compute and the probe of a HashJoinOp
//             against its finished build, applied to the morsel inside the
//             lane that claimed it.  Probe output is concatenated into a
//             lane-local recycled batch, flushed downstream whenever full.
//   sink      the breaker's per-lane state, fed by a callback.
//
// So a lane carries a morsel from the scan to its own partial state with
// no exchange in between; the breakers' finish steps (build, aggregate
// merge, δ merge, Top-K merge, run merge) are the only synchronisation
// points.  Definitions 3.1 and 3.3 make the per-lane partial states
// recombine exactly; the breakers document their own merge arguments.
//
// Leases: a pipeline runs under exactly one WorkerPool lease, which its
// breaker takes after Open() has finished the fused probes' builds (each
// of those is a breaker with its own pipeline and lease, released before
// the next starts).  A query therefore holds one lease at a time, and a
// nested breaker gets the full pool instead of what its parent left.
//
// Metrics: lanes count rows per stage and time every stage per morsel;
// Run() folds the sums into each fused operator's OperatorMetrics, with
// the lane-summed stage time scaled to the run's wall time, so operator
// times in EXPLAIN ANALYZE and the stats trailer still nest inside their
// parents.

#ifndef MRA_PARALLEL_PIPELINE_H_
#define MRA_PARALLEL_PIPELINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "mra/exec/operator.h"
#include "mra/parallel/worker_pool.h"

namespace mra {
namespace parallel {

class HashJoinOp;

class Pipeline {
 public:
  /// Consumes one output batch inside lane `lane`; may move tuples out of
  /// it.  A non-OK status stops every lane at its next morsel.
  using Sink = std::function<Status(size_t lane, exec::RowBatch& batch)>;

  /// Compiles the subtree under a breaker.  With `fuse` false the whole
  /// subtree is one serial source, pulled through its own NextBatch.
  /// A fused HashJoinOp is switched to build-only Open.
  Pipeline(exec::PhysicalOperator* input, size_t morsel_size, bool fuse);

  /// True when lanes can split the source; a serial source runs on one.
  bool parallel() const { return relation_ != nullptr; }

  /// Finishes every fused probe's build, then opens a serial source.  On
  /// failure everything opened so far is closed again.
  Status Open(exec::ExecContext* ctx);

  /// Runs every lane of `lease` until the source drains or a lane fails;
  /// the lane count must be 1 unless parallel().  Returns the first error.
  Status Run(const WorkerPool::Lease& lease, const Sink& sink);

  /// Closes the serial source and the fused probes (freeing their build
  /// arenas and budget charges).  Idempotent.
  void Close();

  /// Lane-summed time spent inside the sink during the last Run, and the
  /// rows that reached it.
  uint64_t sink_ns() const { return sink_ns_; }
  uint64_t sink_rows() const { return sink_rows_; }

 private:
  struct Stage {
    exec::PhysicalOperator* op;
    const exec::FilterOp* filter = nullptr;
    const exec::ComputeOp* compute = nullptr;
    HashJoinOp* probe = nullptr;
  };

  /// Per-lane counters for one stage (index 0 is the source, stage i is
  /// i + 1, the sink is stages_.size() + 1).  `ns` is the inclusive time
  /// of every call into that position.
  struct Counters {
    uint64_t rows = 0;
    uint64_t batches = 0;
    uint64_t weighted = 0;
    uint64_t probe_rows = 0;
    uint64_t ns = 0;
  };

  struct Lane {
    exec::RowBatch morsel;
    // Per stage, used by probes only: a probe's flush runs the stages
    // above it, which may probe again, so each keeps its own.
    std::vector<exec::RowBatch> probe_out;
    std::vector<std::vector<size_t>> probe_hashes;
    Tuple scratch;
    std::vector<Counters> counters;
  };

  /// Claims the next morsel into `out`; false when the source is drained.
  Result<bool> Claim(exec::RowBatch& out);

  /// Pushes `batch` through stage `i` and everything downstream of it.
  Status Push(size_t lane, Lane& state, size_t i, exec::RowBatch& batch,
              const Sink& sink);
  Status Probe(size_t lane, Lane& state, size_t i, exec::RowBatch& batch,
               const Sink& sink);

  /// Folds the lanes' counters into the fused operators' metrics.
  void FoldMetrics(size_t lanes, uint64_t wall_ns, uint64_t busy_ns);

  size_t morsel_size_;
  exec::PhysicalOperator* source_op_ = nullptr;
  const Relation* relation_ = nullptr;  // Null for a serial source.
  std::vector<Stage> stages_;           // Source-side first.

  exec::ExecContext* ctx_ = nullptr;
  size_t bucket_step_ = 1;
  std::atomic<size_t> next_bucket_{0};
  Relation::const_iterator walk_;  // The one-lane cursor.
  std::vector<Lane> lanes_;
  uint64_t sink_ns_ = 0;
  uint64_t sink_rows_ = 0;
  bool timed_run_ = false;  // Close still owes the stages their children.
};

}  // namespace parallel
}  // namespace mra

#endif  // MRA_PARALLEL_PIPELINE_H_
