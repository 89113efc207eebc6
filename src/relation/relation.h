// Relation: the immutable storage core of a relation — an append-only,
// set-semantics row store plus lazily built hash indexes over arbitrary
// column subsets. Row slots are never removed, which keeps TupleIds and
// index entries stable while repair semantics flip membership. Which rows
// are currently *live* in R_i or recorded in the delta relation ∆_i
// (Sec. 3.1) is NOT stored here: that cheap per-run state lives in
// RelationView / InstanceView (relation/instance_view.h), so any number
// of concurrent repair runs share one copy of the rows and indexes.
//
// Cell codes. A relation stores no Value: each row slot is `arity`
// consecutive 8-byte codes in one flat array (z3 muz's tuple_set layout).
// An int in [-2^62, 2^62) is stored inline as v << 1; every other value
// (a string, null, a larger int) is id << 1 | 1, where id indexes the
// ValueDict the relation is bound to — one per Database. Codes are
// canonical: two cells are equal as Values exactly when their codes are
// equal, so dedupe, probe-key checks and `=` compare plain integers. A
// code hashes (ValueDict::Hash) to its value's Value::Hash(), so the
// dedupe table, every index chain and the snapshot's stored row hashes
// are the same as for the decoded Tuples. Order comparisons follow
// Value's order (ValueDict::Compare). Value and Tuple appear only at the
// edges: InternRow/FindRow take a Tuple, DecodeRow/Cell give one back.
//
// Index layout: one flat open-addressed table (RowHashTable) per column
// mask, mapping a key hash to the head and tail of a chain of row slots
// threaded through a per-row next link. Chains hold rows in ascending
// slot order — the build walks rows in order and InternRow appends at
// the tail — so a probe yields its matches in the order a full scan
// would. Join enumeration order, and every result built from it, does
// not depend on the index. Probes pass a key hash (KeyHashSeed folded
// with each key column's code hash), so a caller holding the key codes
// elsewhere (the grounder's bindings) hashes them in place.
//
// Thread model:
//  * InternRow mutates storage (cells, dedupe table, index maintenance,
//    and the dictionary) and must not run concurrently with readers —
//    loading/insertion is a single-threaded phase. Lookups of absent
//    values (FindRow, ValueDict::Find) never grow the dictionary.
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
#include "relation/value.h"

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
/// (snapshot recovery builds one per relation on startup), as each
/// join index (Relation::Index) and as ValueDict's lookup.
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

/// An 8-byte cell code (see the file comment).
using Code = uint64_t;

/// The value dictionary behind cell codes: every value that is not an
/// inline int, each stored once with its Value::Hash() cached. Grows only
/// through Intern, which runs where storage grows (InternRow, snapshot
/// install); every other member is a read safe for concurrent readers.
class ValueDict {
 public:
  static bool IsInline(Code c) { return (c & 1) == 0; }
  static bool FitsInline(int64_t v) {
    return v >= -(int64_t{1} << 62) && v < (int64_t{1} << 62);
  }
  static Code InlineCode(int64_t v) { return static_cast<Code>(v) << 1; }
  static int64_t InlineInt(Code c) { return static_cast<int64_t>(c) >> 1; }

  /// Number of dictionary entries.
  size_t size() const { return values_.size(); }

  /// The code of `v`, adding `v` to the dictionary when it has none.
  Code Intern(const Value& v);
  /// The code of `v` into `*code`; false, without growing, when `v` has
  /// none (then no stored cell equals `v`).
  bool Find(const Value& v, Code* code) const {
    return Find(v, v.Hash(), code);
  }
  /// Find with `hash` == v.Hash() already computed.
  bool Find(const Value& v, uint64_t hash, Code* code) const;

  Value Decode(Code c) const {
    return IsInline(c) ? Value(InlineInt(c)) : values_[c >> 1];
  }
  /// The dictionary entry of a non-inline code, by reference.
  const Value& Entry(Code c) const { return values_[c >> 1]; }

  /// Value::Hash() of the code's value.
  uint64_t Hash(Code c) const {
    return IsInline(c) ? Value::IntHash(InlineInt(c)) : hashes_[c >> 1];
  }

  /// Three-way comparison in Value's order (null < int < string): <0, 0
  /// or >0. Two inline ints compare as int64 without a dictionary read.
  int Compare(Code a, Code b) const;
  /// Compare(a, code of b) for a `b` that need not have a code.
  int Compare(Code a, const Value& b) const;

 private:
  std::vector<Value> values_;
  std::vector<uint64_t> hashes_;  // values_[i].Hash()
  RowHashTable lookup_;           // hash -> entry ids
};

class Relation {
 public:
  /// Storage bound to `dict`, which must outlive it (a Database owns the
  /// dictionary its relations use).
  Relation(RelationSchema schema, ValueDict* dict)
      : schema_(std::move(schema)), dict_(dict) {}

  // Storage is copyable (deep copy of cells and indexes, bound to the
  // same dictionary until the owner rebinds it); the index mutex is
  // per-instance and never copied.
  Relation(const Relation& other);
  Relation& operator=(const Relation& other);
  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&& other) noexcept;

  const RelationSchema& schema() const { return schema_; }
  const std::string& name() const { return schema_.name(); }
  size_t arity() const { return schema_.arity(); }

  /// Number of row slots ever created.
  size_t num_rows() const { return num_rows_; }

  /// Row `r`'s codes, arity() of them.
  const Code* codes(uint32_t r) const {
    return cells_.data() + static_cast<size_t>(r) * schema_.arity();
  }
  /// Decodes one cell of row `r`.
  Value Cell(uint32_t r, size_t c) const { return dict_->Decode(codes(r)[c]); }
  /// Decodes row `r` (edges only: export, reports, rendering).
  Tuple DecodeRow(uint32_t r) const;

  /// HashTuple of row `r`'s values, computed from its codes.
  uint64_t RowHash(uint32_t r) const;

  /// Set-semantics insert into storage. Returns the existing slot on a
  /// dedupe hit (inserted=false); liveness is the caller's (view's)
  /// concern. Arity must match the schema. Interns the row's values
  /// into the dictionary. Not safe against concurrent readers.
  InsertResult InternRow(const Tuple& t);

  /// Row slot holding exactly `t`, or -1 if absent. Never grows the
  /// dictionary.
  int64_t FindRow(const Tuple& t) const;

  /// Serialization hook (snapshot load): replaces this still-empty
  /// relation's storage with `num_rows` rows of `cells` (row-major codes
  /// of this relation's dictionary) and adopts `dedupe`, a table the
  /// loader built from the per-row hashes recorded at snapshot-write
  /// time (so recovery re-hashes nothing, and can build the table on a
  /// worker thread before installation). `dedupe` must cover exactly
  /// these rows under their HashTuple hashes — the snapshot loader
  /// validates its checksums before trusting them. Single-threaded,
  /// like InternRow.
  void BulkLoadRows(std::vector<Code> cells, size_t num_rows,
                    RowHashTable dedupe);

  /// Bitmask with bit c set for each indexed column c (c < kMaxArity).
  using ColumnMask = uint64_t;

  /// Hash index over one column mask: key hash -> rows (see the file
  /// comment). Walk a probe's candidates with
  ///   for (r = index->Head(h); r != Index::kNone; r = index->Next(r))
  /// Candidates share the key *hash*; callers verify the key codes.
  using Index = RowHashTable;

  /// Returns the hash index over the columns in `mask`, building it on
  /// first use (over all row slots; callers filter by view liveness at
  /// probe time). Thread-safe; the returned pointer stays valid for the
  /// relation's lifetime and the index is read-only between InternRows.
  const Index* EnsureIndex(ColumnMask mask) const;

  /// Starting value of a probe key hash over `mask`; fold each masked
  /// column's Value::Hash() (equivalently its code's ValueDict::Hash)
  /// into it with HashCombine in ascending column order. Index chains
  /// are keyed by exactly this hash.
  static uint64_t KeyHashSeed(ColumnMask mask) {
    return 0x6b657948ULL ^ Mix64(mask);
  }

  /// Debug rendering of all stored row slots (small relations only);
  /// liveness-aware rendering lives on the views.
  std::string ToString() const;

 private:
  friend class Database;  // rebinds copies to the copy's dictionary

  uint64_t KeyHash(ColumnMask mask, const Code* row) const;
  /// Looks up `t`'s codes into `row` and returns HashTuple(t), hashing
  /// each value once; false in `*known` when some value has no code.
  uint64_t FindCodesOf(const Tuple& t, Code* row, bool* known) const;
  /// Dedupe-chain slot whose codes equal `row`, or kNone.
  uint32_t FindCodes(const Code* row, uint64_t h) const;

  RelationSchema schema_;
  ValueDict* dict_;
  // Row-major codes: row r's cells are [r * arity, (r + 1) * arity).
  std::vector<Code> cells_;
  size_t num_rows_ = 0;  // explicit, so arity-0 relations count rows
  // Full-row hash -> row slots with that hash (for set-semantics
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
