// Relation: the immutable storage core of a relation — an append-only,
// set-semantics row store (rows, schema, full-tuple dedupe table) plus
// lazily built hash indexes over arbitrary column subsets. Row slots are
// never removed, which keeps TupleIds and index entries stable while
// repair semantics flip membership. Which rows are currently *live* in
// R_i or recorded in the delta relation ∆_i (Sec. 3.1) is NOT stored
// here: that cheap per-run state lives in RelationView / InstanceView
// (relation/instance_view.h), so any number of concurrent repair runs
// share one copy of the rows and indexes.
//
// Index layout: one flat open-addressed table (RowHashTable) per column
// mask, mapping a key hash to the head and tail of a chain of row slots
// threaded through a per-row next link. Chains hold rows in ascending
// slot order — the build walks rows in order and InternRow appends at
// the tail — so a probe yields its matches in the order a full scan
// would. Join enumeration order, and every result built from it, does
// not depend on the index. Probes pass a key hash (KeyHashSeed folded
// with each key column's Value::Hash), so a caller holding the key
// values elsewhere (the grounder's bindings) hashes them in place
// without materializing a Tuple.
//
// Thread model:
//  * InternRow mutates storage (rows, dedupe table, index maintenance) and
//    must not run concurrently with readers — loading/insertion is a
//    single-threaded phase.
//  * EnsureIndex is safe to call from concurrent readers: the first
//    caller builds the index under a mutex, later callers get a stable
//    pointer to the finished index, which they then read without locks
//    (it is read-only until the next InternRow).
#ifndef DELTAREPAIR_RELATION_RELATION_H_
#define DELTAREPAIR_RELATION_RELATION_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "relation/schema.h"
#include "relation/tuple.h"

namespace deltarepair {

/// Result of a set-semantics insert: the row slot and whether a new slot
/// was created (false on a dedupe hit).
struct InsertResult {
  uint32_t row = 0;
  bool inserted = false;
};

/// Flat open-addressed map from a 64-bit hash to the chain of row slots
/// recorded under it: one slot array plus one per-row chain link, so
/// inserts and bulk loads do no per-entry heap allocation. Chains are in
/// ascending row order (rows are added in increasing order and appended
/// at the tail). Serves as a relation's full-tuple dedupe table
/// (snapshot recovery builds one per relation on startup) and as each
/// join index (Relation::Index).
class RowHashTable {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  bool empty() const { return size_ == 0; }

  /// Number of rows recorded (the chain-link array length).
  size_t num_rows() const { return next_.size(); }

  /// Pre-sizes the slot array for `n` distinct hashes.
  void Reserve(size_t n);

  /// First (lowest) row slot recorded under `h`, or kNone. Follow Next()
  /// for further rows sharing the hash.
  uint32_t Head(uint64_t h) const;
  /// Next row slot on `row`'s chain, ascending; kNone at the tail.
  uint32_t Next(uint32_t row) const { return next_[row]; }

  /// Records row `r` under hash `h`, at the tail of its chain. Rows must
  /// be added with strictly increasing `r` (the row-slot counter).
  void Add(uint64_t h, uint32_t r);

  /// Bulk build: replaces any contents with rows 0..n-1 under `hashes`.
  /// Equivalent to Reserve + n Adds minus the per-add growth checks and
  /// call overhead — snapshot recovery's hot path.
  void BuildFrom(const uint64_t* hashes, uint32_t n);

  /// BuildFrom over hashes serialized as unaligned little-endian u64s
  /// (the snapshot wire layout), decoded in the build loop instead of
  /// through a temporary array.
  void BuildFromLe(const unsigned char* le_hashes, uint32_t n);

 private:
  void Grow(size_t min_slots);
  /// Links row `r` under normalized hash `hn`, assuming a free slot.
  void Insert(uint64_t hn, uint32_t r);

  // Shared BuildFrom/BuildFromLe loop; get_hash(r) yields row r's hash.
  // Defined in relation.cc — both instantiations live there.
  template <typename GetHash>
  void BuildImpl(GetHash&& get_hash, uint32_t n);

  // Parallel slot arrays (power-of-two length, load factor <= 1/2);
  // probing scans only slot_hash_, so the probe working set is a third of
  // what a combined {hash, head, tail} struct array would touch. Hash 0
  // marks an empty slot; real hashes are nudged to 1 (chains tolerate
  // hash collisions — all callers verify the row's key).
  std::vector<uint64_t> slot_hash_;
  std::vector<uint32_t> slot_head_;
  std::vector<uint32_t> slot_tail_;
  std::vector<uint32_t> next_;  // per-row chain link
  size_t size_ = 0;  // occupied slots
};

class Relation {
 public:
  explicit Relation(RelationSchema schema) : schema_(std::move(schema)) {}

  // Storage is copyable (deep copy of rows and indexes); the index mutex
  // is per-instance and never copied.
  Relation(const Relation& other);
  Relation& operator=(const Relation& other);
  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&& other) noexcept;

  const RelationSchema& schema() const { return schema_; }
  const std::string& name() const { return schema_.name(); }
  size_t arity() const { return schema_.arity(); }

  /// Number of row slots ever created.
  size_t num_rows() const { return rows_.size(); }

  const Tuple& row(uint32_t r) const { return rows_[r]; }

  /// Set-semantics insert into storage. Returns the existing slot on a
  /// dedupe hit (inserted=false); liveness is the caller's (view's)
  /// concern. Arity must match the schema. Not safe against concurrent
  /// readers.
  InsertResult InternRow(Tuple t);

  /// Row slot holding exactly `t`, or -1 if absent.
  int64_t FindRow(const Tuple& t) const;

  /// Serialization hook (snapshot load): replaces this still-empty
  /// relation's storage with `rows` and adopts `dedupe`, a table the
  /// loader built from the per-row hashes recorded at snapshot-write
  /// time (so recovery re-hashes nothing, and can build the table on a
  /// worker thread before installation). `dedupe` must cover exactly
  /// `rows` under their HashTuple hashes — the snapshot loader
  /// validates its checksums before trusting them. Single-threaded,
  /// like InternRow; every row's arity must match.
  void BulkLoadRows(std::vector<Tuple> rows, RowHashTable dedupe);

  /// Bitmask with bit c set for each indexed column c (c < kMaxArity).
  using ColumnMask = uint64_t;

  /// Hash index over one column mask: key hash -> rows (see the file
  /// comment). Walk a probe's candidates with
  ///   for (r = index->Head(h); r != Index::kNone; r = index->Next(r))
  /// Candidates share the key *hash*; callers verify the key values.
  using Index = RowHashTable;

  /// Returns the hash index over the columns in `mask`, building it on
  /// first use (over all row slots; callers filter by view liveness at
  /// probe time). Thread-safe; the returned pointer stays valid for the
  /// relation's lifetime and the index is read-only between InternRows.
  const Index* EnsureIndex(ColumnMask mask) const;

  /// Starting value of a probe key hash over `mask`; fold each masked
  /// column's Value::Hash() into it with HashCombine in ascending column
  /// order. Index chains are keyed by exactly this hash.
  static uint64_t KeyHashSeed(ColumnMask mask) {
    return 0x6b657948ULL ^ Mix64(mask);
  }

  /// Debug rendering of all stored row slots (small relations only);
  /// liveness-aware rendering lives on the views.
  std::string ToString() const;

 private:
  uint64_t KeyHash(ColumnMask mask, const Tuple& t) const;

  RelationSchema schema_;
  std::vector<Tuple> rows_;
  // Full-tuple hash -> row slots with that hash (for set-semantics
  // interning).
  RowHashTable dedupe_;
  // Column-mask -> index. Guarded by index_mu_ for map lookups/inserts
  // (node-based, so Index pointers survive later inserts); each Index is
  // read-only once built (InternRow maintains existing indexes, but never
  // runs concurrently with readers).
  mutable std::unordered_map<ColumnMask, Index> indexes_;
  mutable std::mutex index_mu_;
};

}  // namespace deltarepair

#endif  // DELTAREPAIR_RELATION_RELATION_H_
