#include "relation/relation.h"

#include "common/status.h"

namespace deltarepair {

namespace {

/// Slot index for `h` in a power-of-two table. HashTuple output is
/// already well mixed, so the low bits are usable directly.
inline size_t SlotFor(uint64_t h, size_t num_slots) {
  return static_cast<size_t>(h) & (num_slots - 1);
}

/// Hash 0 is the empty-slot marker; nudge real hashes off it. The rare
/// 0/1 collision this introduces is harmless — chain walkers always
/// verify tuple equality.
inline uint64_t NormHash(uint64_t h) { return h == 0 ? 1 : h; }

}  // namespace

void RowHashTable::Reserve(size_t n) {
  size_t want = 16;
  while (want < n * 2) want <<= 1;  // keep load factor under 1/2
  if (want > slot_hash_.size()) Grow(want);
  if (n > next_.size()) next_.reserve(n);
}

uint32_t RowHashTable::Head(uint64_t h) const {
  if (slot_hash_.empty()) return kNone;
  const uint64_t hn = NormHash(h);
  size_t i = SlotFor(hn, slot_hash_.size());
  while (slot_hash_[i] != 0) {
    if (slot_hash_[i] == hn) return slot_head_[i];
    i = (i + 1) & (slot_hash_.size() - 1);
  }
  return kNone;
}

void RowHashTable::Add(uint64_t h, uint32_t r) {
  if (slot_hash_.empty() || (size_ + 1) * 2 > slot_hash_.size()) {
    Grow(slot_hash_.empty() ? 16 : slot_hash_.size() * 2);
  }
  if (r >= next_.size()) next_.resize(r + 1, kNone);
  Insert(NormHash(h), r);
}

void RowHashTable::Insert(uint64_t hn, uint32_t r) {
  const size_t mask = slot_hash_.size() - 1;
  size_t i = SlotFor(hn, slot_hash_.size());
  for (; slot_hash_[i] != 0; i = (i + 1) & mask) {
    if (slot_hash_[i] == hn) {
      // Same hash: rows arrive in increasing order, link at the tail.
      next_[slot_tail_[i]] = r;
      slot_tail_[i] = r;
      next_[r] = kNone;
      return;
    }
  }
  slot_hash_[i] = hn;
  slot_head_[i] = r;
  slot_tail_[i] = r;
  next_[r] = kNone;
  ++size_;
}

template <typename GetHash>
void RowHashTable::BuildImpl(GetHash&& get_hash, uint32_t n) {
  slot_hash_.clear();
  slot_head_.clear();
  slot_tail_.clear();
  next_.clear();
  size_ = 0;
  Reserve(n);
  next_.assign(n, kNone);
  for (uint32_t r = 0; r < n; ++r) Insert(NormHash(get_hash(r)), r);
}

void RowHashTable::BuildFrom(const uint64_t* hashes, uint32_t n) {
  BuildImpl([hashes](uint32_t r) { return hashes[r]; }, n);
}

void RowHashTable::BuildFromLe(const unsigned char* le_hashes, uint32_t n) {
  BuildImpl(
      [le_hashes](uint32_t r) {
        const unsigned char* p = le_hashes + r * 8;
        uint64_t h = 0;
        for (int i = 0; i < 8; ++i) {
          h |= static_cast<uint64_t>(p[i]) << (8 * i);
        }
        return h;
      },
      n);
}

void RowHashTable::Grow(size_t min_slots) {
  std::vector<uint64_t> old_hash = std::move(slot_hash_);
  std::vector<uint32_t> old_head = std::move(slot_head_);
  std::vector<uint32_t> old_tail = std::move(slot_tail_);
  slot_hash_.assign(min_slots, 0);
  slot_head_.assign(min_slots, kNone);
  slot_tail_.assign(min_slots, kNone);
  for (size_t s = 0; s < old_hash.size(); ++s) {
    if (old_hash[s] == 0) continue;
    size_t i = SlotFor(old_hash[s], slot_hash_.size());
    while (slot_hash_[i] != 0) i = (i + 1) & (slot_hash_.size() - 1);
    slot_hash_[i] = old_hash[s];
    slot_head_[i] = old_head[s];
    slot_tail_[i] = old_tail[s];
  }
}

Relation::Relation(const Relation& other)
    : schema_(other.schema_),
      rows_(other.rows_),
      dedupe_(other.dedupe_),
      indexes_(other.indexes_) {}

Relation& Relation::operator=(const Relation& other) {
  if (this != &other) {
    schema_ = other.schema_;
    rows_ = other.rows_;
    dedupe_ = other.dedupe_;
    indexes_ = other.indexes_;
  }
  return *this;
}

Relation::Relation(Relation&& other) noexcept
    : schema_(std::move(other.schema_)),
      rows_(std::move(other.rows_)),
      dedupe_(std::move(other.dedupe_)),
      indexes_(std::move(other.indexes_)) {}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this != &other) {
    schema_ = std::move(other.schema_);
    rows_ = std::move(other.rows_);
    dedupe_ = std::move(other.dedupe_);
    indexes_ = std::move(other.indexes_);
  }
  return *this;
}

InsertResult Relation::InternRow(Tuple t) {
  DR_CHECK_MSG(t.size() == schema_.arity(), "arity mismatch on insert");
  uint64_t h = HashTuple(t);
  for (uint32_t r = dedupe_.Head(h); r != RowHashTable::kNone;
       r = dedupe_.Next(r)) {
    if (rows_[r] == t) return InsertResult{r, false};
  }
  uint32_t r = static_cast<uint32_t>(rows_.size());
  // Maintain any existing indexes incrementally.
  for (auto& [mask, index] : indexes_) index.Add(KeyHash(mask, t), r);
  rows_.push_back(std::move(t));
  dedupe_.Add(h, r);
  return InsertResult{r, true};
}

void Relation::BulkLoadRows(std::vector<Tuple> rows, RowHashTable dedupe) {
  DR_CHECK_MSG(rows_.empty() && dedupe_.empty() && indexes_.empty(),
               "BulkLoadRows on non-empty relation");
  DR_CHECK_MSG(rows.size() == dedupe.num_rows(),
               "BulkLoadRows dedupe table size mismatch");
  for (const Tuple& t : rows) {
    DR_CHECK_MSG(t.size() == schema_.arity(), "arity mismatch on bulk load");
  }
  rows_ = std::move(rows);
  dedupe_ = std::move(dedupe);
}

int64_t Relation::FindRow(const Tuple& t) const {
  uint64_t h = HashTuple(t);
  for (uint32_t r = dedupe_.Head(h); r != RowHashTable::kNone;
       r = dedupe_.Next(r)) {
    if (rows_[r] == t) return r;
  }
  return -1;
}

uint64_t Relation::KeyHash(ColumnMask mask, const Tuple& t) const {
  uint64_t h = KeyHashSeed(mask);
  for (size_t c = 0; c < t.size(); ++c) {
    if (mask & (1ULL << c)) h = HashCombine(h, t[c].Hash());
  }
  return h;
}

const Relation::Index* Relation::EnsureIndex(ColumnMask mask) const {
  std::lock_guard<std::mutex> lock(index_mu_);
  auto it = indexes_.find(mask);
  if (it != indexes_.end()) return &it->second;
  Index& index = indexes_[mask];
  for (uint32_t r = 0; r < rows_.size(); ++r) {
    index.Add(KeyHash(mask, rows_[r]), r);
  }
  return &index;
}

std::string Relation::ToString() const {
  std::string out = schema_.ToString() + " {";
  for (uint32_t r = 0; r < rows_.size(); ++r) {
    if (r) out += ", ";
    out += TupleToString(rows_[r]);
  }
  out += "}";
  return out;
}

}  // namespace deltarepair
