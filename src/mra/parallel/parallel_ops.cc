#include "mra/parallel/parallel_ops.h"

#include <algorithm>
#include <chrono>

#include "mra/expr/eval.h"

namespace mra {
namespace parallel {

namespace {

using exec::ExecContext;
using exec::HashKeyIndex;
using exec::Row;
using exec::RowBatch;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Radix partitions for a lease: one on a single lane (no routing), else a
/// few per lane so the dynamic claim evens out skewed key distributions.
size_t PartitionsFor(size_t lanes) {
  return lanes == 1 ? 1 : NextPow2(4 * lanes);
}

/// The partition of a key hash.  High bits: HashKeyIndex places keys by
/// the low bits, and routing on those would leave each partition's index
/// using only 1/P of its home slots.
size_t RadixOf(size_t hash, size_t parts) {
  return (hash >> 48) & (parts - 1);
}

/// Per-lane footprints published by worker lanes and folded by lane 0.
class LaneBytes {
 public:
  explicit LaneBytes(size_t lanes) : bytes_(lanes) {}
  void Set(size_t lane, uint64_t bytes) {
    bytes_[lane].store(bytes, std::memory_order_relaxed);
  }
  uint64_t Total() const {
    uint64_t total = 0;
    for (const auto& b : bytes_) total += b.load(std::memory_order_relaxed);
    return total;
  }

 private:
  std::vector<std::atomic<uint64_t>> bytes_;
};

/// A finish phase: lanes claim partitions [0, parts) off a shared counter
/// and run `fn(p)` on each, checking governance per partition.  Adds the
/// summed lane time to `*cpu_ns`.
Status ForEachPartition(const WorkerPool::Lease& lease, size_t parts,
                        ExecContext* ctx, uint64_t* cpu_ns,
                        const std::function<void(size_t)>& fn) {
  std::vector<Status> status(lease.lanes());
  std::atomic<size_t> claim{0};
  std::atomic<uint64_t> busy{0};
  WorkerPool::Global().ParallelFor(lease, [&](size_t lane) {
    uint64_t t0 = NowNs();
    while (true) {
      size_t p = claim.fetch_add(1, std::memory_order_relaxed);
      if (p >= parts) break;
      if (ctx != nullptr) {
        Status g = ctx->Check();
        if (!g.ok()) {
          status[lane] = g;
          break;
        }
      }
      fn(p);
    }
    busy.fetch_add(NowNs() - t0, std::memory_order_relaxed);
  });
  *cpu_ns += busy.load(std::memory_order_relaxed);
  for (const Status& s : status) MRA_RETURN_IF_ERROR(s);
  return Status::OK();
}

}  // namespace

// --- HashJoinOp. ---

HashJoinOp::HashJoinOp(std::vector<size_t> left_keys,
                       std::vector<size_t> right_keys,
                       ExprPtr residual_or_null, exec::PhysOpPtr left,
                       exec::PhysOpPtr right, size_t workers,
                       size_t morsel_size)
    : left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      residual_(std::move(residual_or_null)),
      schema_(left->schema().Concat(right->schema())),
      left_(std::move(left)),
      right_(std::move(right)),
      workers_(workers),
      morsel_size_(morsel_size == 0 ? exec::kDefaultBatchSize : morsel_size),
      build_(std::make_unique<Pipeline>(right_.get(), morsel_size_,
                                        /*fuse=*/true)) {
  MRA_CHECK_EQ(left_keys_.size(), right_keys_.size());
  MRA_CHECK(!left_keys_.empty())
      << "HashJoin requires at least one key pair";
}

Status HashJoinOp::OpenImpl() {
  partitions_.clear();
  probe_batch_.Clear();
  probe_pos_ = 0;
  chain_part_ = nullptr;
  chain_ = kNone;
  Status built = Build();
  build_->Close();
  staged_.clear();
  MRA_RETURN_IF_ERROR(built);
  if (fused_) return Status::OK();
  probe_batch_.SetCapacity(morsel_size_);
  return left_->Open();
}

Status HashJoinOp::Build() {
  ExecContext* ctx = exec_context();
  MRA_RETURN_IF_ERROR(build_->Open(ctx));
  WorkerPool& pool = WorkerPool::Global();
  WorkerPool::Lease lease = pool.Admit(build_->parallel() ? workers_ : 1);
  const size_t lanes = lease.lanes();
  metrics_.workers = std::max<uint32_t>(metrics_.workers,
                                        static_cast<uint32_t>(lanes));
  const size_t parts = PartitionsFor(lanes);
  partitions_ = std::vector<Partition>(parts);

  if (parts == 1) {
    // One lane: insert straight into the single arena, no staging pass.
    // Rows are copied out of the morsel, so its slots keep their buffers
    // for the next refill.  The morsel is hashed and its home slots
    // prefetched first, so the inserts overlap their cache misses.
    Partition& part = partitions_[0];
    std::vector<size_t> hashes;
    MRA_RETURN_IF_ERROR(build_->Run(lease, [&](size_t, RowBatch& batch) {
      hashes.resize(batch.size());
      for (size_t r = 0; r < batch.size(); ++r) {
        hashes[r] = batch[r].tuple.HashKey(right_keys_);
        part.Prefetch(hashes[r]);
      }
      for (size_t r = 0; r < batch.size(); ++r) {
        part.Insert(batch[r].tuple.view(), batch[r].count, right_keys_,
                    hashes[r]);
      }
      return NoteHashFootprint(part.ApproxBytes());
    }));
    metrics_.cpu_ns += build_->sink_ns();
  } else {
    // Lanes copy build rows, with their key hashes, into private flat
    // staging routed by radix; lane 0 charges the summed footprint as it
    // grows.
    const bool governed = ctx != nullptr;
    LaneBytes lane_bytes(lanes);
    staged_.assign(lanes, std::vector<Staged>(parts));
    MRA_RETURN_IF_ERROR(
        build_->Run(lease, [&](size_t lane, RowBatch& batch) -> Status {
          std::vector<Staged>& stage = staged_[lane];
          for (const Row& row : batch) {
            size_t hash = row.tuple.HashKey(right_keys_);
            Staged& to = stage[RadixOf(hash, parts)];
            to.rows.Append(row.tuple.view(), row.count);
            to.hashes.push_back(hash);
          }
          if (!governed) return Status::OK();
          uint64_t bytes = 0;
          for (const Staged& st : stage) bytes += st.ApproxBytes();
          lane_bytes.Set(lane, bytes);
          return lane == 0 ? ChargeMemTo(lane_bytes.Total()) : Status::OK();
        }));
    metrics_.cpu_ns += build_->sink_ns();
    if (governed) MRA_RETURN_IF_ERROR(ChargeMemTo(lane_bytes.Total()));

    // Finish: one arena per partition, each built by exactly one lane from
    // every lane's staged rows.  The staged values move in (the first
    // lane's arena is taken over whole) and are chained by their stored
    // hashes, so nothing is re-hashed or copied, and staged storage is
    // released as it goes.
    MRA_RETURN_IF_ERROR(ForEachPartition(
        lease, parts, ctx, &metrics_.cpu_ns, [&](size_t p) {
          Partition& part = partitions_[p];
          for (size_t l = 0; l < lanes; ++l) {
            Staged& st = staged_[l][p];
            part.InsertAll(st.rows, st.hashes, right_keys_);
            st = Staged();
          }
        }));
  }
  uint64_t arena_bytes = 0;
  size_t entries = 0;
  for (const Partition& part : partitions_) {
    arena_bytes += part.ApproxBytes();
    entries += part.keys();
  }
  metrics_.build_rows = build_->sink_rows();
  metrics_.peak_hash_entries = entries;
  return NoteHashFootprint(arena_bytes);
}

void HashJoinOp::Prefetch(size_t hash) const {
  partitions_[RadixOf(hash, partitions_.size())].Prefetch(hash);
}

size_t HashJoinOp::FindChain(const Tuple& probe, size_t hash,
                             const Partition** part) const {
  *part = &partitions_[RadixOf(hash, partitions_.size())];
  return (*part)->FindChain(probe.view(), left_keys_, hash);
}

Status HashJoinOp::NextBatchImpl(RowBatch& out) {
  while (!out.full()) {
    if (chain_ == kNone) {
      if (probe_pos_ == probe_batch_.size()) {
        MRA_RETURN_IF_ERROR(left_->NextBatch(probe_batch_));
        probe_pos_ = 0;
        if (probe_batch_.empty()) return Status::OK();
      }
      ++metrics_.probe_rows;
      chain_ = FindChain(probe_batch_[probe_pos_].tuple, &chain_part_);
      if (chain_ == kNone) {
        ++probe_pos_;
        continue;
      }
    }
    // Concat into a recycled slot; on residual rejection truncate it back
    // off.
    const Row& probe = probe_batch_[probe_pos_];
    Row& slot = out.AppendSlot();
    slot.tuple.AssignConcat(probe.tuple, chain_part_->row(chain_));
    slot.count = probe.count * chain_part_->count(chain_);
    if (residual_ != nullptr) {
      MRA_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*residual_, slot.tuple));
      if (!keep) out.Truncate(out.size() - 1);
    }
    chain_ = chain_part_->next(chain_);
    if (chain_ == kNone) ++probe_pos_;
  }
  return Status::OK();
}

void HashJoinOp::CloseImpl() {
  // The build arena stays parked until the next Open or destruction; the
  // wrapper returns its budget charge here.
  PublishHashCounters();
  staged_.clear();
  probe_batch_.Clear();
  probe_pos_ = 0;
  chain_part_ = nullptr;
  chain_ = kNone;
  // Close is idempotent, so this also covers unwinds; a fused probe side
  // is closed by the parent pipeline that owns it.
  build_->Close();
  left_->Close();
}

// --- HashGroupByOp. ---

HashGroupByOp::HashGroupByOp(std::vector<size_t> keys,
                             std::vector<AggSpec> aggs,
                             RelationSchema output_schema,
                             exec::PhysOpPtr child, size_t workers,
                             size_t morsel_size)
    : keys_(std::move(keys)),
      aggs_(std::move(aggs)),
      schema_(std::move(output_schema)),
      child_(std::move(child)),
      workers_(workers),
      input_(std::make_unique<Pipeline>(child_.get(), morsel_size,
                                        /*fuse=*/true)) {
  agg_types_.reserve(aggs_.size());
  for (const AggSpec& agg : aggs_) {
    agg_types_.push_back(child_->schema().TypeOf(agg.attr));
  }
}

Status HashGroupByOp::OpenImpl() {
  lane_tables_.clear();
  merged_.clear();
  emit_part_ = 0;
  emit_pos_ = 0;
  Status s = Aggregate();
  input_->Close();
  lane_tables_.clear();
  return s;
}

Status HashGroupByOp::Aggregate() {
  ExecContext* ctx = exec_context();
  MRA_RETURN_IF_ERROR(input_->Open(ctx));
  WorkerPool::Lease lease =
      WorkerPool::Global().Admit(input_->parallel() ? workers_ : 1);
  const size_t lanes = lease.lanes();
  // Key-free aggregation has a single global group: one partition, merged
  // serially — the classic two-phase shape.
  const size_t parts = keys_.empty() ? 1 : PartitionsFor(lanes);
  metrics_.workers = static_cast<uint32_t>(lanes);
  const bool governed = ctx != nullptr;
  const size_t num_aggs = aggs_.size();
  LaneBytes lane_bytes(lanes);

  // --- Sink: per-lane pre-aggregation, radix-routed by group key.
  // Folding rows into lane-local accumulators both shrinks the merge and
  // is the parallel speedup: Definition 3.3's aggregates commute with
  // partitioning, so partial per-lane states are exact. ---
  lane_tables_.resize(lanes);
  for (auto& tables : lane_tables_) tables = std::vector<GroupTable>(parts);
  std::vector<std::vector<size_t>> lane_hashes(lanes);
  MRA_RETURN_IF_ERROR(
      input_->Run(lease, [&](size_t lane, RowBatch& batch) -> Status {
        std::vector<GroupTable>& tables = lane_tables_[lane];
        // Hash and prefetch the whole morsel first, as δ's sink does.
        std::vector<size_t>& hashes = lane_hashes[lane];
        hashes.resize(batch.size());
        for (size_t r = 0; r < batch.size(); ++r) {
          hashes[r] = batch[r].tuple.HashKey(keys_);
          tables[RadixOf(hashes[r], parts)].index.Prefetch(hashes[r]);
        }
        for (size_t r = 0; r < batch.size(); ++r) {
          const Row& row = batch[r];
          const size_t hash = hashes[r];
          GroupTable& table = tables[RadixOf(hash, parts)];
          bool inserted = false;
          size_t id =
              table.index.InsertKey(row.tuple.view(), keys_, hash, &inserted);
          if (inserted) {
            for (size_t i = 0; i < num_aggs; ++i) {
              table.accs.emplace_back(aggs_[i].kind, agg_types_[i]);
            }
          }
          for (size_t i = 0; i < num_aggs; ++i) {
            table.accs[id * num_aggs + i].Add(row.tuple.at(aggs_[i].attr),
                                              row.count);
          }
        }
        if (!governed) return Status::OK();
        uint64_t bytes = 0;
        for (const GroupTable& t : tables) bytes += t.ApproxBytes();
        lane_bytes.Set(lane, bytes);
        return lane == 0 ? NoteHashFootprint(lane_bytes.Total())
                         : Status::OK();
      }));
  metrics_.cpu_ns += input_->sink_ns();
  metrics_.build_rows = input_->sink_rows();
  uint64_t pass1_bytes = 0;
  size_t pre_merge_entries = 0;
  for (const auto& tables : lane_tables_) {
    for (const GroupTable& t : tables) {
      pass1_bytes += t.ApproxBytes();
      pre_merge_entries += t.index.size();
    }
  }
  MRA_RETURN_IF_ERROR(NoteHashFootprint(pass1_bytes));

  // --- Finish: merge each partition across lanes.  Lane 0's table seeds
  // the merge; other lanes' keys move in (Absorb), a new group takes its
  // accumulators along, and a known one folds them in with
  // AggAccumulator::Merge. ---
  merged_ = std::vector<GroupTable>(parts);
  MRA_RETURN_IF_ERROR(ForEachPartition(
      lease, parts, ctx, &metrics_.cpu_ns, [&](size_t p) {
        GroupTable& m = merged_[p];
        m = std::move(lane_tables_[0][p]);
        std::vector<size_t> ids;
        for (size_t l = 1; l < lanes; ++l) {
          GroupTable& t = lane_tables_[l][p];
          const size_t known = m.index.size();
          m.index.Absorb(t.index, &ids);
          for (size_t id = 0; id < ids.size(); ++id) {
            for (size_t i = 0; i < num_aggs; ++i) {
              AggAccumulator& acc = t.accs[id * num_aggs + i];
              if (ids[id] >= known) {
                m.accs.push_back(std::move(acc));
              } else {
                m.accs[ids[id] * num_aggs + i].Merge(acc);
              }
            }
          }
          t = GroupTable();  // Free as consumed.
        }
      }));

  // Def 3.3: Γ over an empty relation with no grouping attributes still
  // denotes the one global group (whose AVG/MIN/MAX are then undefined).
  if (keys_.empty() && merged_[0].index.empty()) {
    bool inserted = false;
    merged_[0].index.InsertKey(Tuple{}, keys_, &inserted);
    for (size_t i = 0; i < num_aggs; ++i) {
      merged_[0].accs.emplace_back(aggs_[i].kind, agg_types_[i]);
    }
  }

  size_t groups = 0;
  uint64_t merged_bytes = 0;
  for (const GroupTable& m : merged_) {
    groups += m.index.size();
    merged_bytes += m.ApproxBytes();
  }
  metrics_.distinct_rows = groups;
  metrics_.peak_hash_entries = std::max(pre_merge_entries, groups);
  // hash_bytes already high-watered at pass-1 peak; re-charge down to the
  // merged arena, which is what emission holds.
  return ChargeMemTo(merged_bytes);
}

Status HashGroupByOp::EmitGroup(const GroupTable& table, size_t id,
                                Tuple& out) {
  // Finish() is where Def 3.3's partiality surfaces: AVG/MIN/MAX over an
  // empty group return kUndefined, which propagates out of NextBatch.
  out.Assign(table.index.key(id));
  for (size_t i = 0; i < aggs_.size(); ++i) {
    MRA_ASSIGN_OR_RETURN(Value v,
                         table.accs[id * aggs_.size() + i].Finish());
    out.Append(std::move(v));
  }
  return Status::OK();
}

Status HashGroupByOp::NextBatchImpl(RowBatch& out) {
  while (!out.full()) {
    if (emit_part_ >= merged_.size()) return Status::OK();
    if (emit_pos_ >= merged_[emit_part_].index.size()) {
      ++emit_part_;
      emit_pos_ = 0;
      continue;
    }
    Row& slot = out.AppendSlot();
    slot.count = 1;
    Status s = EmitGroup(merged_[emit_part_], emit_pos_, slot.tuple);
    if (!s.ok()) {
      out.Truncate(out.size() - 1);
      return s;
    }
    ++emit_pos_;
  }
  return Status::OK();
}

void HashGroupByOp::CloseImpl() {
  // The merged tables stay parked until the next Open or destruction; the
  // wrapper returns their budget charge here.
  PublishHashCounters();
  lane_tables_.clear();
  emit_part_ = 0;
  emit_pos_ = 0;
  input_->Close();
}

// --- DedupOp. ---

DedupOp::DedupOp(exec::PhysOpPtr child, size_t workers, size_t morsel_size)
    : child_(std::move(child)),
      workers_(workers),
      input_(std::make_unique<Pipeline>(child_.get(), morsel_size,
                                        /*fuse=*/true)) {
  identity_.resize(child_->schema().arity());
  for (size_t i = 0; i < identity_.size(); ++i) identity_[i] = i;
}

Status DedupOp::OpenImpl() {
  lane_seen_.clear();
  merged_.clear();
  emit_part_ = 0;
  emit_pos_ = 0;
  Status s = Deduplicate();
  input_->Close();
  lane_seen_.clear();
  return s;
}

Status DedupOp::Deduplicate() {
  ExecContext* ctx = exec_context();
  MRA_RETURN_IF_ERROR(input_->Open(ctx));
  WorkerPool::Lease lease =
      WorkerPool::Global().Admit(input_->parallel() ? workers_ : 1);
  const size_t lanes = lease.lanes();
  const size_t parts = PartitionsFor(lanes);
  metrics_.workers = static_cast<uint32_t>(lanes);
  const bool governed = ctx != nullptr;
  LaneBytes lane_bytes(lanes);

  // --- Sink: per-lane pre-dedup, radix-routed on the whole tuple. ---
  lane_seen_.resize(lanes);
  for (auto& seen : lane_seen_) seen = std::vector<HashKeyIndex>(parts);
  std::vector<std::vector<size_t>> lane_hashes(lanes);
  MRA_RETURN_IF_ERROR(
      input_->Run(lease, [&](size_t lane, RowBatch& batch) -> Status {
        std::vector<HashKeyIndex>& seen = lane_seen_[lane];
        // Hash and prefetch the whole batch first, so the inserts overlap
        // their cache misses.
        std::vector<size_t>& hashes = lane_hashes[lane];
        hashes.resize(batch.size());
        for (size_t r = 0; r < batch.size(); ++r) {
          hashes[r] = batch[r].tuple.HashKey(identity_);
          seen[RadixOf(hashes[r], parts)].Prefetch(hashes[r]);
        }
        for (size_t r = 0; r < batch.size(); ++r) {
          bool inserted = false;
          seen[RadixOf(hashes[r], parts)].InsertKey(
              batch[r].tuple.view(), identity_, hashes[r], &inserted);
        }
        if (!governed) return Status::OK();
        uint64_t bytes = 0;
        for (const HashKeyIndex& s : seen) bytes += s.ApproxBytes();
        lane_bytes.Set(lane, bytes);
        return lane == 0 ? NoteHashFootprint(lane_bytes.Total())
                         : Status::OK();
      }));
  metrics_.cpu_ns += input_->sink_ns();
  metrics_.build_rows = input_->sink_rows();
  uint64_t pass1_bytes = 0;
  size_t pre_merge_entries = 0;
  for (const auto& seen : lane_seen_) {
    for (const HashKeyIndex& s : seen) {
      pass1_bytes += s.ApproxBytes();
      pre_merge_entries += s.size();
    }
  }
  MRA_RETURN_IF_ERROR(NoteHashFootprint(pass1_bytes));

  // --- Finish: partition-wise union of supports across lanes. ---
  merged_ = std::vector<HashKeyIndex>(parts);
  MRA_RETURN_IF_ERROR(ForEachPartition(
      lease, parts, ctx, &metrics_.cpu_ns, [&](size_t p) {
        HashKeyIndex& m = merged_[p];
        m = std::move(lane_seen_[0][p]);
        for (size_t l = 1; l < lanes; ++l) {
          m.Absorb(lane_seen_[l][p], nullptr);  // Frees as consumed.
        }
      }));

  size_t distinct = 0;
  uint64_t merged_bytes = 0;
  for (const HashKeyIndex& m : merged_) {
    distinct += m.size();
    merged_bytes += m.ApproxBytes();
  }
  metrics_.distinct_rows = distinct;
  metrics_.peak_hash_entries = std::max(pre_merge_entries, distinct);
  return ChargeMemTo(merged_bytes);
}

Status DedupOp::NextBatchImpl(RowBatch& out) {
  while (!out.full()) {
    if (emit_part_ >= merged_.size()) return Status::OK();
    if (emit_pos_ >= merged_[emit_part_].size()) {
      ++emit_part_;
      emit_pos_ = 0;
      continue;
    }
    Row& slot = out.AppendSlot();
    slot.tuple.Assign(merged_[emit_part_].key(emit_pos_++));
    slot.count = 1;
  }
  return Status::OK();
}

void DedupOp::CloseImpl() {
  // The merged key indexes stay parked until the next Open or
  // destruction; the wrapper returns their budget charge here.
  PublishHashCounters();
  lane_seen_.clear();
  emit_part_ = 0;
  emit_pos_ = 0;
  input_->Close();
}

}  // namespace parallel
}  // namespace mra
