#include "mra/parallel/pipeline.h"

#include <algorithm>
#include <chrono>

#include "mra/parallel/parallel_ops.h"

namespace mra {
namespace parallel {

namespace {

using exec::PhysicalOperator;
using exec::Row;
using exec::RowBatch;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Children are owned by their parent; the const_cast mirrors
// PhysicalOperator::SetExecContext.
PhysicalOperator* ChildOf(const PhysicalOperator* op, size_t i) {
  return const_cast<PhysicalOperator*>(op->children()[i]);
}

}  // namespace

Pipeline::Pipeline(PhysicalOperator* input, size_t morsel_size, bool fuse)
    : morsel_size_(morsel_size == 0 ? exec::kDefaultBatchSize : morsel_size) {
  // Walk down from the breaker's input; stages are collected sink-side
  // first and reversed at the end.
  PhysicalOperator* op = input;
  while (fuse) {
    if (auto* filter = dynamic_cast<exec::FilterOp*>(op)) {
      stages_.push_back(Stage{op, filter, nullptr, nullptr});
      op = ChildOf(op, 0);
    } else if (auto* compute = dynamic_cast<exec::ComputeOp*>(op)) {
      stages_.push_back(Stage{op, nullptr, compute, nullptr});
      op = ChildOf(op, 0);
    } else if (auto* join = dynamic_cast<HashJoinOp*>(op)) {
      join->fused_ = true;
      stages_.push_back(Stage{op, nullptr, nullptr, join});
      op = join->left_.get();
    } else if (auto* scan = dynamic_cast<exec::ScanOp*>(op)) {
      relation_ = &scan->relation();
      break;
    } else if (auto* scan = dynamic_cast<exec::ConstScanOp*>(op)) {
      relation_ = &scan->relation();
      break;
    } else {
      break;  // Any other operator is a serial source.
    }
  }
  source_op_ = op;
  std::reverse(stages_.begin(), stages_.end());
}

Status Pipeline::Open(exec::ExecContext* ctx) {
  ctx_ = ctx;
  // Builds first, source-side probe first: each runs its own pipeline
  // under its own lease and returns it before the next starts.
  for (Stage& stage : stages_) {
    if (stage.probe == nullptr) continue;
    Status built = stage.probe->Open();
    if (!built.ok()) {
      Close();
      return built;
    }
  }
  if (relation_ == nullptr) {
    Status opened = source_op_->Open();
    if (!opened.ok()) {
      Close();
      return opened;
    }
  } else {
    // About one morsel of tuples per claimed bucket range (the map keeps
    // its load factor at most 1, so buckets >= tuples).
    size_t buckets = relation_->bucket_count();
    size_t tuples = std::max<size_t>(1, relation_->distinct_size());
    bucket_step_ = std::max<size_t>(1, morsel_size_ * buckets / tuples);
  }
  return Status::OK();
}

void Pipeline::Close() {
  if (relation_ == nullptr) source_op_->Close();
  for (Stage& stage : stages_) {
    if (stage.probe != nullptr) stage.probe->Close();
  }
  if (timed_run_) {
    // A pulled operator's time includes its children's Open and Close, so
    // each fused stage also gets the serial source's Close and the builds
    // and teardowns of the fused probes below it, now that both happened.
    uint64_t below =
        relation_ == nullptr ? source_op_->metrics().close_ns : 0;
    for (Stage& stage : stages_) {
      obs::OperatorMetrics& m = stage.op->mutable_metrics();
      m.next_ns += below;
      if (stage.probe != nullptr) below += m.open_ns + m.close_ns;
    }
    timed_run_ = false;
  }
  lanes_.clear();
}

Result<bool> Pipeline::Claim(RowBatch& out) {
  out.Clear();
  if (relation_ == nullptr) {
    MRA_RETURN_IF_ERROR(source_op_->NextBatch(out));
    return !out.empty();
  }
  if (lanes_.size() == 1) {
    // One lane walks the map in iteration order, as ScanOp does — cheaper
    // than visiting it bucket by bucket, which jumps around in memory.
    for (; walk_ != relation_->end() && !out.full(); ++walk_) {
      Row& slot = out.AppendSlot();
      slot.tuple = walk_->first;
      slot.count = walk_->second;
    }
    return !out.empty();
  }
  const size_t buckets = relation_->bucket_count();
  while (out.empty()) {
    size_t b = next_bucket_.fetch_add(bucket_step_, std::memory_order_relaxed);
    if (b >= buckets) return false;
    const size_t end = std::min(buckets, b + bucket_step_);
    for (; b < end; ++b) {
      for (auto it = relation_->bucket_begin(b); it != relation_->bucket_end(b);
           ++it) {
        // Copy-assign into the recycled slot, as ScanOp does.
        Row& slot = out.AppendSlot();
        slot.tuple = it->first;
        slot.count = it->second;
      }
    }
  }
  return true;
}

namespace {

void Count(const RowBatch& batch, uint64_t* rows, uint64_t* batches,
           uint64_t* weighted) {
  if (batch.empty()) return;
  ++*batches;
  *rows += batch.size();
  for (const Row& row : batch) *weighted += row.count;
}

}  // namespace

Status Pipeline::Push(size_t lane, Lane& state, size_t i, RowBatch& batch,
                      const Sink& sink) {
  if (batch.empty()) return Status::OK();
  Counters& c = state.counters[i + 1];
  const uint64_t t0 = NowNs();
  Status s;
  if (i == stages_.size()) {
    Count(batch, &c.rows, &c.batches, &c.weighted);
    s = sink(lane, batch);
  } else if (stages_[i].probe != nullptr) {
    s = Probe(lane, state, i, batch, sink);
  } else {
    const Stage& stage = stages_[i];
    s = stage.filter != nullptr
            ? stage.filter->FilterInPlace(batch)
            : stage.compute->ProjectInPlace(batch, state.scratch);
    if (s.ok()) {
      Count(batch, &c.rows, &c.batches, &c.weighted);
      s = Push(lane, state, i + 1, batch, sink);
    }
  }
  c.ns += NowNs() - t0;
  return s;
}

Status Pipeline::Probe(size_t lane, Lane& state, size_t i, RowBatch& batch,
                       const Sink& sink) {
  const HashJoinOp& join = *stages_[i].probe;
  RowBatch& out = state.probe_out[i];
  Counters& c = state.counters[i + 1];
  c.probe_rows += batch.size();
  auto flush = [&]() -> Status {
    Count(out, &c.rows, &c.batches, &c.weighted);
    Status s = Push(lane, state, i + 1, out, sink);
    out.Clear();
    return s;
  };
  // Hash the whole batch first and prefetch each row's home slot, so the
  // lookups below overlap their cache misses instead of taking them one
  // at a time.
  std::vector<size_t>& hashes = state.probe_hashes[i];
  hashes.resize(batch.size());
  for (size_t r = 0; r < batch.size(); ++r) {
    hashes[r] = batch[r].tuple.HashKey(join.left_keys_);
    join.Prefetch(hashes[r]);
  }
  for (size_t r = 0; r < batch.size(); ++r) {
    const Row& probe = batch[r];
    const HashJoinOp::Partition* part = nullptr;
    for (size_t m = join.FindChain(probe.tuple, hashes[r], &part);
         m != HashJoinOp::kNone; m = part->next(m)) {
      Row& slot = out.AppendSlot();
      slot.tuple.AssignConcat(probe.tuple, part->row(m));
      slot.count = probe.count * part->count(m);
      if (join.residual_ != nullptr) {
        MRA_ASSIGN_OR_RETURN(bool keep,
                             EvalPredicate(*join.residual_, slot.tuple));
        if (!keep) {
          out.Truncate(out.size() - 1);
          continue;
        }
      }
      if (out.full()) MRA_RETURN_IF_ERROR(flush());
    }
  }
  return out.empty() ? Status::OK() : flush();
}

Status Pipeline::Run(const WorkerPool::Lease& lease, const Sink& sink) {
  const size_t lanes = lease.lanes();
  MRA_CHECK(lanes == 1 || parallel()) << "a serial source runs on one lane";
  lanes_.resize(lanes);
  for (Lane& lane : lanes_) {
    lane.morsel.SetCapacity(morsel_size_);
    lane.probe_out.resize(stages_.size());
    lane.probe_hashes.resize(stages_.size());
    for (RowBatch& out : lane.probe_out) out.SetCapacity(morsel_size_);
    lane.counters.assign(stages_.size() + 2, Counters{});
  }
  next_bucket_.store(0, std::memory_order_relaxed);
  if (relation_ != nullptr) walk_ = relation_->begin();
  std::vector<Status> status(lanes);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> busy{0};
  const uint64_t start = NowNs();
  WorkerPool::Global().ParallelFor(lease, [&](size_t lane) {
    const uint64_t lane_start = NowNs();
    Lane& state = lanes_[lane];
    Status s;
    while (!stop.load(std::memory_order_relaxed)) {
      // A serial source's own NextBatch makes the batch-boundary check.
      if (relation_ != nullptr) {
        s = exec::CheckBatchBoundary(ctx_);
        if (!s.ok()) break;
      }
      const uint64_t t0 = NowNs();
      Result<bool> claimed = Claim(state.morsel);
      state.counters[0].ns += NowNs() - t0;
      if (!claimed.ok()) {
        s = claimed.status();
        break;
      }
      if (!*claimed) break;
      Counters& src = state.counters[0];
      Count(state.morsel, &src.rows, &src.batches, &src.weighted);
      s = Push(lane, state, 0, state.morsel, sink);
      if (!s.ok()) break;
    }
    if (!s.ok()) {
      status[lane] = s;
      stop.store(true, std::memory_order_relaxed);
    }
    busy.fetch_add(NowNs() - lane_start, std::memory_order_relaxed);
  });
  FoldMetrics(lanes, NowNs() - start, busy.load(std::memory_order_relaxed));
  for (const Status& s : status) MRA_RETURN_IF_ERROR(s);
  return Status::OK();
}

void Pipeline::FoldMetrics(size_t lanes, uint64_t wall_ns, uint64_t busy_ns) {
  const size_t n = stages_.size();
  std::vector<Counters> sum(n + 2);
  for (size_t l = 0; l < lanes; ++l) {
    for (size_t k = 0; k < n + 2; ++k) {
      const Counters& c = lanes_[l].counters[k];
      sum[k].rows += c.rows;
      sum[k].batches += c.batches;
      sum[k].weighted += c.weighted;
      sum[k].probe_rows += c.probe_rows;
      sum[k].ns += c.ns;
    }
  }
  sink_ns_ = sum[n + 1].ns;
  sink_rows_ = sum[n + 1].rows;

  // Lane-summed time scales to the run's wall time, so a fused operator's
  // reported time (its own stage plus everything upstream of it, builds
  // included) nests inside its parent's like a pulled operator's does.
  const bool timed = obs::ExecTimingEnabled();
  timed_run_ = timed;
  const double scale = busy_ns > 0 ? static_cast<double>(wall_ns) /
                                         static_cast<double>(busy_ns)
                                   : 0.0;
  auto wall = [&](uint64_t lane_ns) {
    return timed ? static_cast<uint64_t>(static_cast<double>(lane_ns) * scale)
                 : 0;
  };
  uint64_t upstream_ns = 0;  // Source, as wall time.
  if (relation_ != nullptr) {
    obs::OperatorMetrics& m = source_op_->mutable_metrics();
    m.ResetRuntime();
    m.rows_emitted = sum[0].rows;
    m.batches_emitted = sum[0].batches;
    m.weighted_rows = sum[0].weighted;
    m.next_ns = wall(sum[0].ns);
    m.timed = timed;
    upstream_ns = m.next_ns;
  } else {
    // A serial source timed itself through its own wrappers.
    upstream_ns = source_op_->metrics().total_ns();
  }
  for (size_t i = 0; i < n; ++i) {
    const Stage& stage = stages_[i];
    const Counters& out = sum[i + 1];
    const uint64_t stage_ns = upstream_ns + wall(sum[1].ns - sum[i + 2].ns);
    obs::OperatorMetrics& m = stage.op->mutable_metrics();
    if (stage.probe == nullptr) {
      // Never opened, so nothing else resets or times it.
      m.ResetRuntime();
      m.timed = timed;
      m.next_ns = stage_ns;
    } else {
      // Opened (its build) through the wrapper: add to what Open measured.
      m.next_ns += stage_ns;
      m.probe_rows += out.probe_rows;
      m.cpu_ns += out.ns - sum[i + 2].ns;
      m.workers = std::max(m.workers, static_cast<uint32_t>(lanes));
    }
    m.rows_emitted += out.rows;
    m.batches_emitted += out.batches;
    m.weighted_rows += out.weighted;
  }
}

}  // namespace parallel
}  // namespace mra
