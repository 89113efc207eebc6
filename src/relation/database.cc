#include "relation/database.h"

#include "common/status.h"

namespace deltarepair {

Database::Database(const Database& other)
    : dict_(other.dict_),
      relations_(other.relations_),
      by_name_(other.by_name_),
      base_(other.base_),
      version_(other.version_),
      history_(other.history_) {
  BindDict();
  base_.db_ = this;
}

Database& Database::operator=(const Database& other) {
  if (this != &other) {
    dict_ = other.dict_;
    relations_ = other.relations_;
    by_name_ = other.by_name_;
    base_ = other.base_;
    version_ = other.version_;
    history_ = other.history_;
    BindDict();
    base_.db_ = this;
  }
  return *this;
}

Database::Database(Database&& other) noexcept
    : dict_(std::move(other.dict_)),
      relations_(std::move(other.relations_)),
      by_name_(std::move(other.by_name_)),
      base_(std::move(other.base_)),
      version_(other.version_),
      history_(std::move(other.history_)) {
  BindDict();
  base_.db_ = this;
}

Database& Database::operator=(Database&& other) noexcept {
  if (this != &other) {
    dict_ = std::move(other.dict_);
    relations_ = std::move(other.relations_);
    by_name_ = std::move(other.by_name_);
    base_ = std::move(other.base_);
    version_ = other.version_;
    history_ = std::move(other.history_);
    BindDict();
    base_.db_ = this;
  }
  return *this;
}

uint32_t Database::AddRelation(RelationSchema schema) {
  DR_CHECK_MSG(!by_name_.count(schema.name()), "duplicate relation name");
  DR_CHECK_MSG(schema.arity() <= kMaxArity, "relation wider than kMaxArity");
  uint32_t idx = static_cast<uint32_t>(relations_.size());
  by_name_[schema.name()] = idx;
  relations_.emplace_back(std::move(schema), &dict_);
  base_.db_ = this;
  base_.rels_.emplace_back(size_t{0});
  return idx;
}

int Database::RelationIndex(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? -1 : static_cast<int>(it->second);
}

const Relation* Database::FindRelation(const std::string& name) const {
  int i = RelationIndex(name);
  return i < 0 ? nullptr : &relations_[i];
}

TupleId Database::Insert(uint32_t rel, const Tuple& t) {
  InsertResult r = InsertChecked(rel, t);
  return TupleId{rel, r.row};
}

TupleId Database::Insert(const std::string& rel, const Tuple& t) {
  int i = RelationIndex(rel);
  DR_CHECK_MSG(i >= 0, "unknown relation: " + rel);
  return Insert(static_cast<uint32_t>(i), t);
}

InsertResult Database::InsertChecked(uint32_t rel, const Tuple& t) {
  DR_CHECK(rel < relations_.size());
  return base_.Insert(rel, t);
}

Delta Database::ApplyUpdate(uint32_t rel, bool is_insert,
                            const std::vector<Tuple>& tuples) {
  DR_CHECK(rel < relations_.size());
  Delta d;
  d.from_version = version_;
  d.to_version = version_;
  d.rels.resize(relations_.size());
  for (const Tuple& t : tuples) {
    if (is_insert) {
      InsertResult r = relations_[rel].InternRow(t);
      // Realized only when the row was not live before (new slot or a
      // revival of a retracted/deleted row).
      if (base_.rel(rel).AdoptLive(r.row)) d.rels[rel].inserted.push_back(r.row);
    } else {
      int64_t row = relations_[rel].FindRow(t);
      if (row < 0) continue;
      TupleId id{rel, static_cast<uint32_t>(row)};
      if (!base_.live(id)) continue;
      base_.Retract(id);
      d.rels[rel].deleted.push_back(id.row);
    }
  }
  if (!d.empty()) {
    d.to_version = ++version_;
    history_.push_back(d);
    if (history_.size() > kMaxDeltaHistory) history_.pop_front();
  }
  return d;
}

bool Database::DeltaSince(uint64_t from_version, Delta* out) const {
  out->rels.assign(relations_.size(), Delta::RelationDelta{});
  out->from_version = from_version;
  out->to_version = version_;
  if (from_version == version_) return true;
  if (from_version > version_) return false;
  size_t i = 0;
  while (i < history_.size() && history_[i].from_version < from_version) ++i;
  if (i == history_.size() || history_[i].from_version != from_version)
    return false;  // aged out of the bounded history
  *out = history_[i];
  for (++i; i < history_.size(); ++i) out->MergeFrom(history_[i]);
  return true;
}

void Database::BindDict() {
  for (Relation& r : relations_) r.dict_ = &dict_;
}

size_t Database::TotalRows() const {
  size_t n = 0;
  for (const auto& r : relations_) n += r.num_rows();
  return n;
}

std::string Database::TupleToStr(TupleId id) const {
  return relations_[id.relation].name() + TupleToString(tuple(id));
}

}  // namespace deltarepair
