#include "relation/relation.h"

#include <algorithm>

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

Code ValueDict::Intern(const Value& v) {
  const uint64_t hash = v.Hash();
  Code code;
  if (Find(v, hash, &code)) return code;
  const uint32_t id = static_cast<uint32_t>(values_.size());
  values_.push_back(v);
  hashes_.push_back(hash);
  lookup_.Add(hash, id);
  return (static_cast<Code>(id) << 1) | 1;
}

bool ValueDict::Find(const Value& v, uint64_t hash, Code* code) const {
  if (v.is_int() && FitsInline(v.AsInt())) {
    *code = InlineCode(v.AsInt());
    return true;
  }
  for (uint32_t id = lookup_.Head(hash); id != RowHashTable::kNone;
       id = lookup_.Next(id)) {
    if (values_[id] == v) {
      *code = (static_cast<Code>(id) << 1) | 1;
      return true;
    }
  }
  return false;
}

namespace {

template <typename T>
int ThreeWay(const T& a, const T& b) {
  return a < b ? -1 : (b < a ? 1 : 0);
}

}  // namespace

int ValueDict::Compare(Code a, Code b) const {
  if (IsInline(a) && IsInline(b)) {
    return ThreeWay(InlineInt(a), InlineInt(b));
  }
  if (a == b) return 0;
  return IsInline(b) ? -Compare(b, Entry(a)) : Compare(a, Entry(b));
}

int ValueDict::Compare(Code a, const Value& b) const {
  const ValueType ta = IsInline(a) ? ValueType::kInt : Entry(a).type();
  if (ta != b.type()) {
    return ThreeWay(static_cast<uint8_t>(ta), static_cast<uint8_t>(b.type()));
  }
  switch (ta) {
    case ValueType::kNull:
      return 0;
    case ValueType::kInt:
      return ThreeWay(IsInline(a) ? InlineInt(a) : Entry(a).AsInt(),
                      b.AsInt());
    case ValueType::kString:
      return ThreeWay(Entry(a).AsString(), b.AsString());
  }
  return 0;
}

Relation::Relation(const Relation& other)
    : schema_(other.schema_),
      dict_(other.dict_),
      cells_(other.cells_),
      num_rows_(other.num_rows_),
      dedupe_(other.dedupe_),
      indexes_(other.indexes_) {}

Relation& Relation::operator=(const Relation& other) {
  if (this != &other) {
    schema_ = other.schema_;
    dict_ = other.dict_;
    cells_ = other.cells_;
    num_rows_ = other.num_rows_;
    dedupe_ = other.dedupe_;
    indexes_ = other.indexes_;
  }
  return *this;
}

Relation::Relation(Relation&& other) noexcept
    : schema_(std::move(other.schema_)),
      dict_(other.dict_),
      cells_(std::move(other.cells_)),
      num_rows_(other.num_rows_),
      dedupe_(std::move(other.dedupe_)),
      indexes_(std::move(other.indexes_)) {}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this != &other) {
    schema_ = std::move(other.schema_);
    dict_ = other.dict_;
    cells_ = std::move(other.cells_);
    num_rows_ = other.num_rows_;
    dedupe_ = std::move(other.dedupe_);
    indexes_ = std::move(other.indexes_);
  }
  return *this;
}

Tuple Relation::DecodeRow(uint32_t r) const {
  const Code* row = codes(r);
  Tuple t;
  t.reserve(arity());
  for (size_t c = 0; c < arity(); ++c) t.push_back(dict_->Decode(row[c]));
  return t;
}

uint64_t Relation::RowHash(uint32_t r) const {
  const Code* row = codes(r);
  uint64_t h = kHashTupleSeed;
  for (size_t c = 0; c < arity(); ++c) h = HashCombine(h, dict_->Hash(row[c]));
  return h;
}

uint32_t Relation::FindCodes(const Code* row, uint64_t h) const {
  const size_t n = arity();
  for (uint32_t r = dedupe_.Head(h); r != RowHashTable::kNone;
       r = dedupe_.Next(r)) {
    if (std::equal(row, row + n, codes(r))) return r;
  }
  return RowHashTable::kNone;
}

uint64_t Relation::FindCodesOf(const Tuple& t, Code* row, bool* known) const {
  uint64_t h = kHashTupleSeed;
  *known = true;
  for (size_t c = 0; c < t.size(); ++c) {
    const uint64_t hv = t[c].Hash();
    h = HashCombine(h, hv);
    if (*known) *known = dict_->Find(t[c], hv, &row[c]);
  }
  return h;
}

InsertResult Relation::InternRow(const Tuple& t) {
  DR_CHECK_MSG(t.size() == schema_.arity(), "arity mismatch on insert");
  Code row[kMaxArity];
  bool known;
  const uint64_t h = FindCodesOf(t, row, &known);
  if (known) {
    uint32_t r = FindCodes(row, h);
    if (r != RowHashTable::kNone) return InsertResult{r, false};
  } else {
    // A value new to the dictionary: the row is new too.
    for (size_t c = 0; c < t.size(); ++c) row[c] = dict_->Intern(t[c]);
  }
  const uint32_t r = static_cast<uint32_t>(num_rows_);
  cells_.insert(cells_.end(), row, row + t.size());
  ++num_rows_;
  // Maintain any existing indexes incrementally.
  for (auto& [mask, index] : indexes_) index.Add(KeyHash(mask, row), r);
  dedupe_.Add(h, r);
  return InsertResult{r, true};
}

void Relation::BulkLoadRows(std::vector<Code> cells, size_t num_rows,
                            RowHashTable dedupe) {
  DR_CHECK_MSG(num_rows_ == 0 && dedupe_.empty() && indexes_.empty(),
               "BulkLoadRows on non-empty relation");
  DR_CHECK_MSG(num_rows == dedupe.num_rows(),
               "BulkLoadRows dedupe table size mismatch");
  DR_CHECK_MSG(cells.size() == num_rows * schema_.arity(),
               "arity mismatch on bulk load");
  cells_ = std::move(cells);
  num_rows_ = num_rows;
  dedupe_ = std::move(dedupe);
}

int64_t Relation::FindRow(const Tuple& t) const {
  if (t.size() != schema_.arity()) return -1;
  Code row[kMaxArity];
  bool known;
  const uint64_t h = FindCodesOf(t, row, &known);
  if (!known) return -1;
  uint32_t r = FindCodes(row, h);
  return r == RowHashTable::kNone ? -1 : static_cast<int64_t>(r);
}

uint64_t Relation::KeyHash(ColumnMask mask, const Code* row) const {
  uint64_t h = KeyHashSeed(mask);
  for (size_t c = 0; c < arity(); ++c) {
    if (mask & (1ULL << c)) h = HashCombine(h, dict_->Hash(row[c]));
  }
  return h;
}

const Relation::Index* Relation::EnsureIndex(ColumnMask mask) const {
  std::lock_guard<std::mutex> lock(index_mu_);
  auto it = indexes_.find(mask);
  if (it != indexes_.end()) return &it->second;
  Index& index = indexes_[mask];
  for (uint32_t r = 0; r < num_rows_; ++r) index.Add(KeyHash(mask, codes(r)), r);
  return &index;
}

std::string Relation::ToString() const {
  std::string out = schema_.ToString() + " {";
  for (uint32_t r = 0; r < num_rows_; ++r) {
    if (r) out += ", ";
    out += TupleToString(DecodeRow(r));
  }
  out += "}";
  return out;
}

}  // namespace deltarepair
