#include "mra/exec/sort.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string_view>
#include <utility>

#include "mra/algebra/ops.h"
#include "mra/common/annotation.h"
#include "mra/expr/eval.h"
#include "mra/fault/failpoint.h"
#include "mra/obs/metrics.h"
#include "mra/storage/serializer.h"

namespace mra {
namespace exec {
namespace {

namespace fs = std::filesystem;

// Injection sites for the spill torture cases (docs/RECOVERY.md catalog):
// one hit per run write, per rename, and per merge-side entry read.
fault::Failpoint* SpillWriteFp() {
  static fault::Failpoint* fp =
      fault::FaultRegistry::Global().Get("sort.spill.write");
  return fp;
}
fault::Failpoint* SpillRenameFp() {
  static fault::Failpoint* fp =
      fault::FaultRegistry::Global().Get("sort.spill.rename");
  return fp;
}
fault::Failpoint* SpillReadFp() {
  static fault::Failpoint* fp =
      fault::FaultRegistry::Global().Get("sort.spill.read");
  return fp;
}

obs::Counter* SpillRunsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("sort.spill_runs");
  return c;
}
obs::Counter* SpillBytesCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("sort.spill_bytes");
  return c;
}

// Same coarse footprint model the materialising operators use for budget
// charges (struct footprint + string payloads).
uint64_t ApproxRowBytes(const Row& row) {
  uint64_t bytes = sizeof(Row) + row.tuple.arity() * sizeof(Value);
  for (const Value& v : row.tuple.values()) {
    if (v.kind() == TypeKind::kString) bytes += v.string_value().capacity();
  }
  return bytes;
}

// Fresh run-file path under the system temp directory; the process-wide
// sequence keeps concurrent sorts (and lanes) from colliding.
std::string NextRunPath() {
  static std::atomic<uint64_t> seq{0};
  uint64_t n = seq.fetch_add(1, std::memory_order_relaxed);
  fs::path dir = fs::temp_directory_path();
  return (dir / ("mra_sort_" + std::to_string(::getpid()) + "_run" +
                 std::to_string(n)))
      .string();
}

}  // namespace

// Streams one run file: `length(u32) ++ payload` entries where payload is
// the storage encoding of `tuple ++ count`.  The length prefix makes each
// entry independently decodable, so the merge never buffers a whole run.
struct SortOp::RunReader {
  std::ifstream in;
  std::string path;
  std::string payload;  // Reused by every entry.
  Row current;
  bool done = false;

  Status Advance() {
    MRA_RETURN_IF_ERROR(fault::InjectIfArmed(SpillReadFp()));
    char len_buf[4];
    in.read(len_buf, sizeof(len_buf));
    if (in.gcount() == 0 && in.eof()) {
      done = true;
      return Status::OK();
    }
    if (in.gcount() != sizeof(len_buf)) {
      return Status::Corruption("torn entry header in sort run " + path);
    }
    storage::Decoder len_dec(std::string_view(len_buf, sizeof(len_buf)));
    MRA_ASSIGN_OR_RETURN(uint32_t len, len_dec.GetU32());
    payload.resize(len);
    in.read(payload.data(), len);
    if (static_cast<uint32_t>(in.gcount()) != len) {
      return Status::Corruption("torn entry payload in sort run " + path);
    }
    storage::Decoder dec(payload);
    MRA_ASSIGN_OR_RETURN(current.tuple, dec.GetTuple());
    MRA_ASSIGN_OR_RETURN(current.count, dec.GetU64());
    return Status::OK();
  }
};

SortOp::SortOp(std::vector<size_t> keys, std::vector<bool> desc,
               uint64_t limit, uint64_t spill_bytes, PhysOpPtr child,
               size_t workers, size_t morsel_size)
    : keys_(std::move(keys)),
      desc_(std::move(desc)),
      limit_(limit),
      spill_bytes_(spill_bytes),
      child_(std::move(child)),
      workers_(workers),
      input_(child_.get(), morsel_size, /*fuse=*/workers > 1) {}

SortOp::~SortOp() { RemoveRunFiles(); }

bool SortOp::SortsBefore(const Row& a, const Row& b) const {
  return ops::CompareForSort(a.tuple, b.tuple, keys_, desc_) < 0;
}

Status SortOp::OpenImpl() {
  if (!base_annotation_captured_) {
    base_annotation_ = annotation();
    base_annotation_captured_ = true;
  }
  Status opened = OpenInner();
  if (!opened.ok()) AbortOpen();
  return opened;
}

Status SortOp::OpenInner() {
  buffer_.clear();
  pos_ = 0;
  emitted_weight_ = 0;
  merging_ = false;
  readers_.clear();
  merge_heap_.clear();
  RemoveRunFiles();
  spilled_runs_ = 0;
  set_annotation(base_annotation_);

  // Spill threshold: the knob's fixed run cap when set, further bounded by
  // half the query budget when one is armed — the sort leaves headroom for
  // the rest of the plan instead of racing the budget to the kill.
  uint64_t threshold = spill_bytes_ > 0 ? spill_bytes_ : UINT64_MAX;
  if (exec_context() != nullptr && exec_context()->mem_budget() > 0) {
    threshold = std::min(threshold, exec_context()->mem_budget() / 2);
  }

  MRA_RETURN_IF_ERROR(input_.Open(exec_context()));
  parallel::WorkerPool::Lease lease = parallel::WorkerPool::Global().Admit(
      input_.parallel() ? workers_ : 1);
  const size_t lanes = lease.lanes();
  // Each lane's share of the threshold, so the lanes together buffer no
  // more than a one-lane sort would.
  const uint64_t lane_threshold =
      threshold == UINT64_MAX ? threshold
                              : std::max<uint64_t>(1, threshold / lanes);
  lane_buffers_ = std::vector<LaneBuffer>(lanes);
  std::vector<std::atomic<uint64_t>> lane_bytes(lanes);
  Status ran = input_.Run(lease, [&](size_t lane, RowBatch& batch) -> Status {
    LaneBuffer& buf = lane_buffers_[lane];
    for (Row& row : batch) {
      MRA_RETURN_IF_ERROR(Add(buf, row, lane_threshold));
    }
    // Budget check per input batch: a runaway non-spilling sort input is
    // caught while it grows.  Lane 0 is the query thread.
    lane_bytes[lane].store(buf.bytes, std::memory_order_relaxed);
    if (lane != 0) return Status::OK();
    uint64_t total = 0;
    for (const auto& b : lane_bytes) total += b.load(std::memory_order_relaxed);
    return ChargeMemTo(total);
  });
  input_.Close();
  MRA_RETURN_IF_ERROR(ran);
  if (workers_ > 1) {
    metrics_.workers = static_cast<uint32_t>(lanes);
    metrics_.cpu_ns += input_.sink_ns();
  }

  if (run_files_.empty()) {
    // In-memory fast path: one sort of every lane's buffer, emission walks
    // the result.  For Top-K the lane heaps hold the global top `limit_`
    // weight between them and EmitNext cuts the sorted union.
    for (LaneBuffer& buf : lane_buffers_) {
      if (buffer_.empty()) {
        buffer_ = std::move(buf.rows);
      } else {
        std::move(buf.rows.begin(), buf.rows.end(),
                  std::back_inserter(buffer_));
      }
    }
    lane_buffers_.clear();
    std::sort(buffer_.begin(), buffer_.end(),
              [this](const Row& a, const Row& b) { return SortsBefore(a, b); });
    return Status::OK();
  }

  // Something spilled: push the tail buffers out too and merge purely from
  // files, so emission order never depends on which rows happened to stay
  // resident.
  for (LaneBuffer& buf : lane_buffers_) {
    if (!buf.rows.empty()) MRA_RETURN_IF_ERROR(SpillRun(buf));
  }
  lane_buffers_.clear();
  MRA_RETURN_IF_ERROR(ChargeMemTo(0));
  spilled_runs_ = run_files_.size();
  MRA_RETURN_IF_ERROR(StartMerge());
  std::string note =
      AnnotationText("spill", std::to_string(run_files_.size()) + " runs");
  set_annotation(base_annotation_.empty() ? note
                                          : base_annotation_ + ", " + note);
  return Status::OK();
}

Status SortOp::Add(LaneBuffer& lane, Row& row, uint64_t threshold) {
  if (limit_ > 0) {
    // Top-K admission: once the heap carries `limit_` weight, a row that
    // orders at or after its worst entry can never reach the top — drop
    // it without touching the heap.
    if (lane.weight >= limit_ && !SortsBefore(row, lane.rows.front())) {
      return Status::OK();
    }
    lane.bytes += ApproxRowBytes(row);
    lane.weight += row.count;
    lane.rows.push_back(std::move(row));
    std::push_heap(lane.rows.begin(), lane.rows.end(),
                   [this](const Row& a, const Row& b) {
                     return SortsBefore(a, b);
                   });
    PruneTopK(lane);
  } else {
    lane.bytes += ApproxRowBytes(row);
    lane.weight += row.count;
    lane.rows.push_back(std::move(row));
  }
  // Spill the moment the run crosses the threshold — checked per row, not
  // per batch, so a single large batch cannot overshoot an armed budget
  // before the spill gets a chance to shed it.
  return lane.bytes >= threshold ? SpillRun(lane) : Status::OK();
}

void SortOp::AbortOpen() {
  // A failed Open leaves the operator Closed without a CloseImpl call, so
  // reclaim everything here: the wrapper only releases budget charges.
  input_.Close();
  lane_buffers_.clear();
  buffer_.clear();
  readers_.clear();
  merge_heap_.clear();
  merging_ = false;
  RemoveRunFiles();
}

void SortOp::PruneTopK(LaneBuffer& lane) {
  // lane.rows is a max-heap under the sort order: the front is the worst
  // entry.  While the rest of the heap already carries `limit_` weight,
  // every remaining row orders at-or-before the front, so the front can
  // never reach the top `limit_` — drop it.
  auto by_sort_order = [this](const Row& a, const Row& b) {
    return SortsBefore(a, b);
  };
  while (!lane.rows.empty() &&
         lane.weight - lane.rows.front().count >= limit_) {
    std::pop_heap(lane.rows.begin(), lane.rows.end(), by_sort_order);
    lane.weight -= lane.rows.back().count;
    lane.bytes -= std::min(lane.bytes, ApproxRowBytes(lane.rows.back()));
    lane.rows.pop_back();
  }
}

Status SortOp::SpillRun(LaneBuffer& lane) {
  std::sort(lane.rows.begin(), lane.rows.end(),
            [this](const Row& a, const Row& b) { return SortsBefore(a, b); });

  std::string final_path = NextRunPath();
  std::string tmp_path = final_path + ".tmp";
  {
    // Record before writing so every abort path sees the file.
    std::lock_guard<std::mutex> lock(runs_mu_);
    run_files_.push_back(final_path);
  }

  MRA_RETURN_IF_ERROR(fault::InjectIfArmed(SpillWriteFp()));
  uint64_t written = 0;
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IoError("cannot create sort run " + tmp_path);
    }
    // Entries are `length(u32) ++ tuple ++ count`, encoded back to back
    // into the lane's reused encoder and written in ~64 KiB chunks.
    constexpr size_t kChunkBytes = 64 * 1024;
    storage::Encoder& enc = lane.encoder;
    auto write_chunk = [&] {
      out.write(enc.buffer().data(),
                static_cast<std::streamsize>(enc.size()));
      written += enc.size();
      enc.Clear();
    };
    enc.Clear();
    for (const Row& row : lane.rows) {
      size_t header = enc.size();
      enc.PutU32(0);
      enc.PutTuple(row.tuple);
      enc.PutU64(row.count);
      enc.PatchU32(header, static_cast<uint32_t>(enc.size() - header - 4));
      if (enc.size() >= kChunkBytes) write_chunk();
    }
    write_chunk();
    out.flush();
    if (!out) {
      return Status::IoError("short write to sort run " + tmp_path);
    }
  }
  MRA_RETURN_IF_ERROR(fault::InjectIfArmed(SpillRenameFp()));
  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    return Status::IoError("cannot publish sort run " + final_path + ": " +
                           ec.message());
  }
  SpillRunsCounter()->Inc();
  SpillBytesCounter()->Inc(written);

  lane.rows.clear();
  lane.bytes = 0;
  lane.weight = 0;
  return Status::OK();
}

Status SortOp::StartMerge() {
  readers_.clear();
  merge_heap_.clear();
  for (const std::string& path : run_files_) {
    auto reader = std::make_unique<RunReader>();
    reader->path = path;
    reader->in.open(path, std::ios::binary);
    if (!reader->in) {
      return Status::IoError("cannot reopen sort run " + path);
    }
    MRA_RETURN_IF_ERROR(reader->Advance());
    if (!reader->done) {
      merge_heap_.push_back(readers_.size());
    }
    readers_.push_back(std::move(reader));
  }
  auto heap_after = [this](size_t a, size_t b) {
    // std::*_heap build a max-heap; invert for a min-heap, with the reader
    // index as a deterministic tie-break (ties are identical tuples).
    int c = ops::CompareForSort(readers_[a]->current.tuple,
                                readers_[b]->current.tuple, keys_, desc_);
    if (c != 0) return c > 0;
    return a > b;
  };
  std::make_heap(merge_heap_.begin(), merge_heap_.end(), heap_after);
  merging_ = true;
  return Status::OK();
}

Result<bool> SortOp::EmitNext(Row& slot) {
  if (limit_ > 0 && emitted_weight_ >= limit_) return false;
  if (!merging_) {
    if (pos_ >= buffer_.size()) return false;
    slot.tuple.Swap(buffer_[pos_].tuple);
    slot.count = buffer_[pos_++].count;
  } else {
    if (merge_heap_.empty()) return false;
    auto heap_after = [this](size_t a, size_t b) {
      int c = ops::CompareForSort(readers_[a]->current.tuple,
                                  readers_[b]->current.tuple, keys_, desc_);
      if (c != 0) return c > 0;
      return a > b;
    };
    std::pop_heap(merge_heap_.begin(), merge_heap_.end(), heap_after);
    RunReader& reader = *readers_[merge_heap_.back()];
    slot.tuple.Swap(reader.current.tuple);
    slot.count = reader.current.count;
    MRA_RETURN_IF_ERROR(reader.Advance());
    if (reader.done) {
      merge_heap_.pop_back();
    } else {
      std::push_heap(merge_heap_.begin(), merge_heap_.end(), heap_after);
    }
  }
  if (limit_ > 0) {
    slot.count = std::min<uint64_t>(slot.count, limit_ - emitted_weight_);
    emitted_weight_ += slot.count;
  }
  return true;
}

Status SortOp::NextBatchImpl(RowBatch& out) {
  while (!out.full()) {
    MRA_ASSIGN_OR_RETURN(bool emitted, EmitNext(out.AppendSlot()));
    if (!emitted) {
      out.Truncate(out.size() - 1);
      break;
    }
  }
  return Status::OK();
}

void SortOp::CloseImpl() {
  input_.Close();
  buffer_.clear();
  pos_ = 0;
  readers_.clear();
  merge_heap_.clear();
  merging_ = false;
  RemoveRunFiles();
}

void SortOp::RemoveRunFiles() {
  for (const std::string& path : run_files_) {
    std::error_code ec;
    fs::remove(path, ec);
    fs::remove(path + ".tmp", ec);
  }
  run_files_.clear();
}

// --- SortMergeJoinOp. ---

SortMergeJoinOp::SortMergeJoinOp(std::vector<size_t> left_keys,
                                 std::vector<size_t> right_keys,
                                 ExprPtr residual_or_null, PhysOpPtr left,
                                 PhysOpPtr right, uint64_t spill_bytes)
    : left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      residual_(std::move(residual_or_null)) {
  left_sort_ = std::make_unique<SortOp>(
      left_keys_, std::vector<bool>(left_keys_.size(), false), 0, spill_bytes,
      std::move(left));
  right_sort_ = std::make_unique<SortOp>(
      right_keys_, std::vector<bool>(right_keys_.size(), false), 0,
      spill_bytes, std::move(right));
  schema_ = left_sort_->schema().Concat(right_sort_->schema());
  left_.side = left_sort_.get();
  right_.side = right_sort_.get();
}

int SortMergeJoinOp::CompareKeys(const Tuple& left,
                                 const Tuple& right) const {
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    int c = left.at(left_keys_[i]).Compare(right.at(right_keys_[i]));
    if (c != 0) return c;
  }
  return 0;
}

Status SortMergeJoinOp::OpenImpl() {
  left_group_.clear();
  right_group_.clear();
  li_ = rj_ = 0;
  left_.Reset();
  right_.Reset();
  MRA_RETURN_IF_ERROR(left_sort_->Open());
  Status right_open = right_sort_->Open();
  if (!right_open.ok()) {
    left_sort_->Close();
    return right_open;
  }
  return Status::OK();
}

Result<bool> SortMergeJoinOp::Cursor::Peek() {
  if (pos < batch.size()) return true;
  if (done) return false;
  MRA_RETURN_IF_ERROR(side->NextBatch(batch));
  pos = 0;
  done = batch.empty();
  return !done;
}

Status SortMergeJoinOp::FillGroup(const std::vector<size_t>& keys,
                                  Cursor& cursor, std::vector<Row>& group) {
  group.clear();
  group.push_back(std::move(cursor.row()));
  ++cursor.pos;
  while (true) {
    MRA_ASSIGN_OR_RETURN(bool more, cursor.Peek());
    if (!more) return Status::OK();
    for (size_t k : keys) {
      if (group.front().tuple.at(k).Compare(cursor.row().tuple.at(k)) != 0) {
        return Status::OK();
      }
    }
    group.push_back(std::move(cursor.row()));
    ++cursor.pos;
  }
}

Status SortMergeJoinOp::NextBatchImpl(RowBatch& out) {
  while (true) {
    // Emit the cross product of the current equal-key group pair into
    // recycled slots, resuming where the last full batch stopped; a pair
    // the residual rejects is truncated back off.
    while (li_ < left_group_.size()) {
      if (rj_ == right_group_.size()) {
        rj_ = 0;
        ++li_;
        continue;
      }
      if (out.full()) return Status::OK();
      const Row& lhs = left_group_[li_];
      const Row& rhs = right_group_[rj_++];
      Row& slot = out.AppendSlot();
      slot.tuple.AssignConcat(lhs.tuple, rhs.tuple);
      slot.count = lhs.count * rhs.count;
      if (residual_ != nullptr) {
        MRA_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*residual_, slot.tuple));
        if (!keep) out.Truncate(out.size() - 1);
      }
    }
    left_group_.clear();
    right_group_.clear();
    li_ = rj_ = 0;

    // Align the two sorted streams on the next shared key.
    while (true) {
      MRA_ASSIGN_OR_RETURN(bool left_more, left_.Peek());
      MRA_ASSIGN_OR_RETURN(bool right_more, right_.Peek());
      if (!left_more || !right_more) return Status::OK();
      int c = CompareKeys(left_.row().tuple, right_.row().tuple);
      if (c == 0) break;
      if (c < 0) {
        ++left_.pos;
      } else {
        ++right_.pos;
      }
    }
    MRA_RETURN_IF_ERROR(FillGroup(left_keys_, left_, left_group_));
    MRA_RETURN_IF_ERROR(FillGroup(right_keys_, right_, right_group_));

    // Both sides of one key group are resident for the cross product —
    // charge them like any other materialising state.
    uint64_t group_bytes = 0;
    for (const Row& r : left_group_) group_bytes += ApproxRowBytes(r);
    for (const Row& r : right_group_) group_bytes += ApproxRowBytes(r);
    MRA_RETURN_IF_ERROR(ChargeMemTo(group_bytes));
  }
}

void SortMergeJoinOp::CloseImpl() {
  left_sort_->Close();
  right_sort_->Close();
  left_group_.clear();
  right_group_.clear();
  left_.Reset();
  right_.Reset();
  li_ = rj_ = 0;
}

}  // namespace exec
}  // namespace mra
