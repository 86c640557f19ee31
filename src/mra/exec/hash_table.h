// Flat hash state for the hash-based physical operators: the hash join's
// build table, hash group-by's group table and hash δ's seen-set all reduce
// to "map the key projection of a tuple to a dense id", and the join adds
// "keep every build row, chained under its key".
//
// Design points:
//  * Arena layout.  Nothing is boxed per entry: a HashKeyIndex keeps its
//    keys in one std::vector<Value> of stride attrs.size() (key `id` owns
//    values [id·stride, (id+1)·stride)) next to a parallel vector of stored
//    hashes; a RowArena keeps bag rows the same way, one Value arena of
//    stride arity plus a multiplicity per row.  Building appends values
//    (no malloc per entry beyond string payloads), and destroying a table
//    frees a handful of contiguous arrays instead of one heap Tuple per
//    key and per build row.  The slot array holds only ids, so growth
//    rehashes by stored hash and never touches the keys.
//  * Parking.  Reset() clear()s the arenas and keeps their capacity and
//    the slot array's, so a reopened operator (or the next query through a
//    pooled operator tree) rebuilds without reallocating; ids come out
//    identical for identical input.
//  * Views.  Stored keys and rows are handed out as TupleViews (pointer +
//    arity) into the arena, valid until it grows or resets.  Readers copy
//    out of them into recycled output slots (Tuple::Assign /
//    AssignConcat); the probe path hashes and compares the probe row's key
//    attributes in place (mra::HashKey / KeyEquals) and never materialises
//    a key tuple.
//  * Accounting.  ApproxBytes() reports the heap footprint: slot array,
//    hash and count vectors and the value arenas by capacity, plus string
//    payloads (allocator slack not counted), for the operator memory
//    budget, EXPLAIN ANALYZE and the `hash.peak_bytes` gauge.

#ifndef MRA_EXEC_HASH_TABLE_H_
#define MRA_EXEC_HASH_TABLE_H_

#include <cstdint>
#include <vector>

#include "mra/core/tuple.h"

namespace mra {
namespace exec {

class HashKeyIndex {
 public:
  static constexpr size_t kNotFound = static_cast<size_t>(-1);

  /// Number of distinct keys currently held.
  size_t size() const { return hashes_.size(); }
  bool empty() const { return hashes_.empty(); }

  /// Logical reset; the key arena and the slot array keep their capacity.
  void Reset();

  /// Finds the dense id of π_attrs(row), inserting it if absent;
  /// *inserted reports which happened.  Ids are assigned 0, 1, 2, … in
  /// first-occurrence order.
  size_t InsertKey(const Tuple& row, const std::vector<size_t>& attrs,
                   bool* inserted) {
    return InsertKey(row.view(), attrs, row.HashKey(attrs), inserted);
  }

  /// Lookup without insertion: the id of π_attrs(row), or kNotFound.
  size_t FindKey(const Tuple& row, const std::vector<size_t>& attrs) const {
    return FindKey(row.view(), attrs, row.HashKey(attrs));
  }

  /// The same with `hash` == HashKey(row, attrs) already computed (the
  /// parallel kernels hash once for radix routing and reuse it here).
  size_t InsertKey(TupleView row, const std::vector<size_t>& attrs,
                   size_t hash, bool* inserted);
  size_t FindKey(TupleView row, const std::vector<size_t>& attrs,
                 size_t hash) const;

  /// Moves every key of `other` into this index and leaves `other` empty
  /// with its storage released; with `ids` non-null, (*ids)[i] is the id
  /// here of other's key i.  New keys get ids in order of i.  The stored
  /// hashes are reused and the key values moved, so nothing is re-hashed,
  /// re-projected or copied — the merge step of partitioned Γ and δ.
  void Absorb(HashKeyIndex& other, std::vector<size_t>* ids);

  /// Starts loading the slot a lookup of `hash` probes first, so a batch
  /// of lookups can overlap their cache misses.
  void Prefetch(size_t hash) const {
    if (slots_.empty()) return;
    __builtin_prefetch(&slots_[hash & (slots_.size() - 1)]);
  }

  /// The stored key for a dense id in [0, size()).
  TupleView key(size_t id) const {
    MRA_CHECK_LT(id, size());
    return TupleView(keys_.data() + id * stride_, stride_);
  }

  /// Approximate heap bytes held by the index (see header comment).
  size_t ApproxBytes() const;

  /// The slot array size after `keys` distinct keys went in.
  static size_t SlotsFor(size_t keys) {
    size_t slots = kInitialSlots;
    while (!Fits(keys, slots)) slots *= 2;
    return slots;
  }

 private:
  void Grow();
  /// Whether `slots` slots hold `keys` keys under 70% load.
  static bool Fits(size_t keys, size_t slots) {
    return keys * 10 < slots * 7;
  }
  /// Claims the slot array for one more key, growing it at 70% load.
  void ReserveOne() {
    if (slots_.empty() || !Fits(size() + 1, slots_.size())) Grow();
  }

  static constexpr size_t kEmpty = static_cast<size_t>(-1);
  static constexpr size_t kInitialSlots = 64;  // Power of two.

  size_t stride_ = 0;            // Key arity: attrs.size().
  std::vector<Value> keys_;      // size() × stride_ values, by id.
  std::vector<size_t> hashes_;   // Stored hash per key id.
  std::vector<size_t> slots_;    // Linear-probed table of ids (kEmpty = free).
  size_t string_bytes_ = 0;      // String payload bytes of the live keys.
};

/// Bag rows stored flat: row i's values at [i·arity, (i+1)·arity) of one
/// Value arena, its multiplicity at count(i).
class RowArena {
 public:
  size_t size() const { return counts_.size(); }
  bool empty() const { return counts_.empty(); }

  /// Logical reset; the arenas keep their capacity.
  void Clear();

  /// Appends a copy of `row` with multiplicity `count`.  Every row of one
  /// arena has the same arity.
  void Append(TupleView row, uint64_t count);

  /// Moves every row of `other` to the end of this arena and leaves
  /// `other` empty with its storage released.  Into an empty arena this
  /// takes over other's storage outright.
  void AppendFrom(RowArena& other);

  TupleView row(size_t i) const {
    return TupleView(values_.data() + i * arity_, arity_);
  }
  uint64_t count(size_t i) const { return counts_[i]; }

  size_t ApproxBytes() const;

 private:
  size_t arity_ = 0;
  std::vector<Value> values_;
  std::vector<uint64_t> counts_;
  size_t string_bytes_ = 0;  // String payload bytes of the live rows.
};

/// The build side of ⋈ on equi-keys, one per radix partition of
/// parallel::HashJoinOp: a HashKeyIndex over the key projection, the build
/// rows in a RowArena, and per-key chains through them (heads by key id,
/// next by row, newest first — chain order only permutes output order,
/// which the bag stream convention does not observe).  A probe row meets
/// every build row of its key along one chain; the caller forms the
/// Def 3.1 product of the multiplicities.
class JoinBuildTable {
 public:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  size_t rows() const { return rows_.size(); }
  size_t keys() const { return index_.size(); }

  /// Logical reset; every arena keeps its capacity.
  void Reset();

  /// Adds a copy of `row` (multiplicity `count`) under its key
  /// π_keys(row), whose hash is `hash`.
  void Insert(TupleView row, uint64_t count, const std::vector<size_t>& keys,
              size_t hash);

  /// Moves every row of `staged` in (RowArena::AppendFrom) and chains
  /// them; hashes[i] is the key hash of staged row i.
  void InsertAll(RowArena& staged, const std::vector<size_t>& hashes,
                 const std::vector<size_t>& keys);

  /// The first build row whose key equals π_probe_keys(probe), or kNone;
  /// `hash` is HashKey(probe, probe_keys).
  size_t FindChain(TupleView probe, const std::vector<size_t>& probe_keys,
                   size_t hash) const {
    size_t id = index_.FindKey(probe, probe_keys, hash);
    return id == HashKeyIndex::kNotFound ? kNone : heads_[id];
  }
  /// The build row after `m` on its chain, or kNone.
  size_t next(size_t m) const { return next_[m]; }
  TupleView row(size_t m) const { return rows_.row(m); }
  uint64_t count(size_t m) const { return rows_.count(m); }

  void Prefetch(size_t hash) const { index_.Prefetch(hash); }

  size_t ApproxBytes() const {
    return index_.ApproxBytes() + rows_.ApproxBytes() +
           (heads_.capacity() + next_.capacity()) * sizeof(size_t);
  }

  /// The ApproxBytes() a one-table build of `rows` fixed-width rows of
  /// `arity` attributes reaches, keyed on `key_arity` of them, with every
  /// key distinct (the worst case for the index): the slot array at its
  /// 70% growth point, the key copies, stored hashes, chain heads and
  /// links, the row values and counts, each vector at the power-of-two
  /// capacity its push_back growth leaves.  String payloads are not
  /// counted.  The planner's hash-vs-sort-merge choice charges a join
  /// with this before building it.
  static double EstimateBytes(double rows, size_t arity, size_t key_arity);

 private:
  /// Chains build row `m` under its key.
  void Link(size_t m, const std::vector<size_t>& keys, size_t hash);

  HashKeyIndex index_;
  std::vector<size_t> heads_;  // First row per key id.
  RowArena rows_;
  std::vector<size_t> next_;   // Next row per row.
};

}  // namespace exec
}  // namespace mra

#endif  // MRA_EXEC_HASH_TABLE_H_
