#include "relation/instance_view.h"

#include <algorithm>

#include "common/status.h"
#include "relation/database.h"

namespace deltarepair {

void RelationView::Grow(uint32_t r) {
  if (r >= live_.size()) {
    live_.resize(r + 1, 0);
    delta_.resize(r + 1, 0);
  }
}

void RelationView::MarkDeleted(uint32_t r) {
  Grow(r);
  if (live_[r]) {
    live_[r] = 0;
    --live_count_;
  }
  if (!delta_[r]) {
    delta_[r] = 1;
    ++delta_count_;
  }
}

void RelationView::SetDelta(uint32_t r) {
  Grow(r);
  if (!delta_[r]) {
    delta_[r] = 1;
    ++delta_count_;
  }
}

void RelationView::Retract(uint32_t r) {
  Grow(r);
  if (live_[r]) {
    live_[r] = 0;
    --live_count_;
  }
  if (delta_[r]) {
    delta_[r] = 0;
    --delta_count_;
  }
}

void RelationView::UnmarkDeleted(uint32_t r) {
  Grow(r);
  if (!live_[r]) {
    live_[r] = 1;
    ++live_count_;
  }
  if (delta_[r]) {
    delta_[r] = 0;
    --delta_count_;
  }
}

bool RelationView::AdoptLive(uint32_t r) {
  Grow(r);
  if (live_[r]) return false;
  UnmarkDeleted(r);  // revive: live again, out of the delta relation
  return true;
}

void RelationView::ResetAllLive(size_t num_rows) {
  live_.assign(num_rows, 1);
  delta_.assign(num_rows, 0);
  live_count_ = num_rows;
  delta_count_ = 0;
}

RelationView::State RelationView::Save() const {
  return State{live_, delta_, live_count_, delta_count_};
}

void RelationView::Restore(const State& s) {
  live_ = s.live;
  delta_ = s.delta;
  live_count_ = s.live_count;
  delta_count_ = s.delta_count;
}

InstanceView::InstanceView(Database* db) : db_(db) {
  rels_.reserve(db->num_relations());
  for (uint32_t i = 0; i < db->num_relations(); ++i) {
    rels_.emplace_back(db->relation(i).num_rows());
  }
}

const Relation& InstanceView::relation(uint32_t i) const {
  return db_->relation(i);
}

void InstanceView::MarkDeleted(TupleId id) {
  DR_CHECK(id.row < db_->relation(id.relation).num_rows());
  rels_[id.relation].MarkDeleted(id.row);
}

void InstanceView::SetDelta(TupleId id) {
  DR_CHECK(id.row < db_->relation(id.relation).num_rows());
  rels_[id.relation].SetDelta(id.row);
}

void InstanceView::UnmarkDeleted(TupleId id) {
  DR_CHECK(id.row < db_->relation(id.relation).num_rows());
  rels_[id.relation].UnmarkDeleted(id.row);
}

void InstanceView::Retract(TupleId id) {
  DR_CHECK(id.row < db_->relation(id.relation).num_rows());
  rels_[id.relation].Retract(id.row);
}

InsertResult InstanceView::Insert(uint32_t rel, const Tuple& t) {
  DR_CHECK(rel < rels_.size());
  InsertResult r = db_->mutable_relation(rel).InternRow(t);
  rels_[rel].AdoptLive(r.row);
  return r;
}

void InstanceView::ApplyDelta(const Delta& delta) {
  const size_t n = std::min(delta.rels.size(), rels_.size());
  for (uint32_t rel = 0; rel < n; ++rel) {
    for (uint32_t r : delta.rels[rel].inserted) rels_[rel].AdoptLive(r);
    for (uint32_t r : delta.rels[rel].deleted) rels_[rel].Retract(r);
  }
}

size_t InstanceView::TotalLive() const {
  size_t n = 0;
  for (const auto& r : rels_) n += r.live_count();
  return n;
}

size_t InstanceView::TotalDelta() const {
  size_t n = 0;
  for (const auto& r : rels_) n += r.delta_count();
  return n;
}

std::vector<TupleId> InstanceView::LiveTupleIds() const {
  std::vector<TupleId> out;
  out.reserve(TotalLive());
  for (uint32_t i = 0; i < rels_.size(); ++i) {
    const uint32_t n = static_cast<uint32_t>(rels_[i].num_rows());
    for (uint32_t r = 0; r < n; ++r) {
      if (rels_[i].live(r)) out.push_back(TupleId{i, r});
    }
  }
  return out;
}

std::vector<TupleId> InstanceView::DeltaTupleIds() const {
  std::vector<TupleId> out;
  for (uint32_t i = 0; i < rels_.size(); ++i) {
    const uint32_t n = static_cast<uint32_t>(rels_[i].num_rows());
    for (uint32_t r = 0; r < n; ++r) {
      if (rels_[i].delta(r)) out.push_back(TupleId{i, r});
    }
  }
  return out;
}

void InstanceView::ResetAllLive() {
  for (uint32_t i = 0; i < rels_.size(); ++i) {
    rels_[i].ResetAllLive(db_->relation(i).num_rows());
  }
}

InstanceView::State InstanceView::SaveState() const {
  State s;
  s.reserve(rels_.size());
  for (const auto& r : rels_) s.push_back(r.Save());
  return s;
}

void InstanceView::RestoreState(const State& s) {
  DR_CHECK(s.size() == rels_.size());
  for (size_t i = 0; i < rels_.size(); ++i) rels_[i].Restore(s[i]);
}

std::string InstanceView::ToString() const {
  std::string out;
  for (uint32_t i = 0; i < rels_.size(); ++i) {
    const Relation& rel = db_->relation(i);
    out += rel.schema().ToString() + " {";
    bool first = true;
    const uint32_t n = static_cast<uint32_t>(rels_[i].num_rows());
    for (uint32_t r = 0; r < n; ++r) {
      if (!rels_[i].live(r)) continue;
      if (!first) out += ", ";
      first = false;
      out += TupleToString(rel.DecodeRow(r));
    }
    out += "}\n";
  }
  return out;
}

}  // namespace deltarepair
