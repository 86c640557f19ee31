#include "mra/exec/hash_table.h"

#include <algorithm>
#include <cmath>
#include <iterator>

namespace mra {
namespace exec {

namespace {

/// Heap payload of one value beyond its slot in an arena.
size_t PayloadBytes(const Value& v) {
  return v.kind() == TypeKind::kString ? v.string_value().capacity() : 0;
}

bool SameValues(const Value* a, const Value* b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (a[i].kind() != b[i].kind() || !a[i].Equals(b[i])) return false;
  }
  return true;
}

}  // namespace

// --- HashKeyIndex. ---

void HashKeyIndex::Reset() {
  keys_.clear();
  hashes_.clear();
  string_bytes_ = 0;
  std::fill(slots_.begin(), slots_.end(), kEmpty);
}

void HashKeyIndex::Grow() {
  size_t new_size = slots_.empty() ? kInitialSlots : slots_.size() * 2;
  slots_.assign(new_size, kEmpty);
  size_t mask = new_size - 1;
  for (size_t id = 0; id < hashes_.size(); ++id) {
    size_t pos = hashes_[id] & mask;
    while (slots_[pos] != kEmpty) pos = (pos + 1) & mask;
    slots_[pos] = id;
  }
}

size_t HashKeyIndex::InsertKey(TupleView row,
                               const std::vector<size_t>& attrs, size_t h,
                               bool* inserted) {
  ReserveOne();
  stride_ = attrs.size();
  size_t mask = slots_.size() - 1;
  size_t pos = h & mask;
  while (true) {
    size_t id = slots_[pos];
    if (id == kEmpty) {
      // Append the key projection to the arena: with parked capacity a
      // steady-state rebuild allocates nothing but long string payloads.
      id = hashes_.size();
      for (size_t a : attrs) {
        keys_.push_back(row[a]);
        string_bytes_ += PayloadBytes(keys_.back());
      }
      hashes_.push_back(h);
      slots_[pos] = id;
      *inserted = true;
      return id;
    }
    if (hashes_[id] == h && KeyEquals(row, attrs, key(id))) {
      *inserted = false;
      return id;
    }
    pos = (pos + 1) & mask;
  }
}

size_t HashKeyIndex::FindKey(TupleView row, const std::vector<size_t>& attrs,
                             size_t h) const {
  if (hashes_.empty()) return kNotFound;
  size_t mask = slots_.size() - 1;
  size_t pos = h & mask;
  while (true) {
    size_t id = slots_[pos];
    if (id == kEmpty) return kNotFound;
    if (hashes_[id] == h && KeyEquals(row, attrs, key(id))) return id;
    pos = (pos + 1) & mask;
  }
}

void HashKeyIndex::Absorb(HashKeyIndex& other, std::vector<size_t>* ids) {
  if (!other.empty()) stride_ = other.stride_;
  if (ids != nullptr) ids->resize(other.size());
  for (size_t o = 0; o < other.size(); ++o) {
    ReserveOne();
    const size_t h = other.hashes_[o];
    Value* key = other.keys_.data() + o * stride_;
    const size_t mask = slots_.size() - 1;
    size_t pos = h & mask;
    size_t id;
    while (true) {
      id = slots_[pos];
      if (id == kEmpty) {
        id = hashes_.size();
        for (size_t k = 0; k < stride_; ++k) {
          keys_.push_back(std::move(key[k]));
          string_bytes_ += PayloadBytes(keys_.back());
        }
        hashes_.push_back(h);
        slots_[pos] = id;
        break;
      }
      if (hashes_[id] == h &&
          SameValues(keys_.data() + id * stride_, key, stride_)) {
        break;
      }
      pos = (pos + 1) & mask;
    }
    if (ids != nullptr) (*ids)[o] = id;
  }
  other = HashKeyIndex();
}

size_t HashKeyIndex::ApproxBytes() const {
  return (slots_.capacity() + hashes_.capacity()) * sizeof(size_t) +
         keys_.capacity() * sizeof(Value) + string_bytes_;
}

// --- RowArena. ---

void RowArena::Clear() {
  values_.clear();
  counts_.clear();
  string_bytes_ = 0;
}

void RowArena::Append(TupleView row, uint64_t count) {
  arity_ = row.size();
  for (const Value& v : row) {
    values_.push_back(v);
    string_bytes_ += PayloadBytes(v);
  }
  counts_.push_back(count);
}

void RowArena::AppendFrom(RowArena& other) {
  if (empty()) {
    std::swap(*this, other);
  } else if (!other.empty()) {
    values_.insert(values_.end(),
                   std::make_move_iterator(other.values_.begin()),
                   std::make_move_iterator(other.values_.end()));
    counts_.insert(counts_.end(), other.counts_.begin(), other.counts_.end());
    string_bytes_ += other.string_bytes_;
  }
  other = RowArena();
}

size_t RowArena::ApproxBytes() const {
  return values_.capacity() * sizeof(Value) +
         counts_.capacity() * sizeof(uint64_t) + string_bytes_;
}

// --- JoinBuildTable. ---

void JoinBuildTable::Reset() {
  index_.Reset();
  heads_.clear();
  rows_.Clear();
  next_.clear();
}

double JoinBuildTable::EstimateBytes(double rows, size_t arity,
                                     size_t key_arity) {
  if (rows < 1) return 0;
  const double n = std::ceil(rows);
  // Capacity after growing by push_back from empty: the next power of two.
  auto capacity = [](double size) {
    return size < 1 ? 0.0 : std::exp2(std::ceil(std::log2(size)));
  };
  const double slots =
      static_cast<double>(HashKeyIndex::SlotsFor(static_cast<size_t>(n)));
  const double word = sizeof(size_t);
  const double value = sizeof(Value);
  return slots * word +                          // index slots
         capacity(n) * word +                    // stored hashes
         capacity(n * key_arity) * value +       // key copies
         capacity(n) * word +                    // chain heads
         capacity(n * arity) * value +           // row values
         capacity(n) * sizeof(uint64_t) +        // row counts
         capacity(n) * word;                     // chain links
}

void JoinBuildTable::Link(size_t m, const std::vector<size_t>& keys,
                          size_t hash) {
  bool inserted = false;
  size_t id = index_.InsertKey(rows_.row(m), keys, hash, &inserted);
  if (inserted) heads_.push_back(kNone);
  next_.push_back(heads_[id]);
  heads_[id] = m;
}

void JoinBuildTable::Insert(TupleView row, uint64_t count,
                            const std::vector<size_t>& keys, size_t hash) {
  rows_.Append(row, count);
  Link(rows_.size() - 1, keys, hash);
}

void JoinBuildTable::InsertAll(RowArena& staged,
                               const std::vector<size_t>& hashes,
                               const std::vector<size_t>& keys) {
  MRA_CHECK_EQ(staged.size(), hashes.size());
  // Prefetch a few rows ahead: the stored hashes are known up front, so
  // the slot lookups can overlap their cache misses.
  constexpr size_t kAhead = 8;
  const size_t first = rows_.size();
  rows_.AppendFrom(staged);
  for (size_t i = 0; i < hashes.size(); ++i) {
    if (i + kAhead < hashes.size()) index_.Prefetch(hashes[i + kAhead]);
    Link(first + i, keys, hashes[i]);
  }
}

}  // namespace exec
}  // namespace mra
