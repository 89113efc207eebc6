// RelationView / InstanceView: the cheap per-run mutable half of the
// relation split. A RelationView is a pair of membership bitmaps over one
// Relation's row slots — `live` (tuple currently in R_i) and `delta`
// (tuple currently in the delta relation ∆_i of Sec. 3.1) — plus their
// counters. An InstanceView bundles one RelationView per relation of a
// Database and is what the grounder, the four repair semantics, and the
// stability checks operate on.
//
// Many views can exist over one Database at a time: storage (rows,
// schema, dedupe, indexes) is shared and read-only during evaluation, so
// concurrent repair runs each mutate their own thread-local view.
// Mutating *storage* through a view (Insert) is a single-threaded
// operation — the four built-in semantics only flip membership bits.
#ifndef DELTAREPAIR_RELATION_INSTANCE_VIEW_H_
#define DELTAREPAIR_RELATION_INSTANCE_VIEW_H_

#include <cstdint>
#include <string>
#include <vector>

#include "relation/delta.h"
#include "relation/relation.h"

namespace deltarepair {

class Database;

/// Live/delta bitmaps + counters over one relation's row slots. Rows
/// beyond the view's horizon (slots interned after the view was created
/// or restored) read as neither live nor delta until adopted via Insert.
class RelationView {
 public:
  RelationView() = default;
  explicit RelationView(size_t num_rows) { ResetAllLive(num_rows); }

  /// Row slots this view covers (may lag the storage's num_rows).
  size_t num_rows() const { return live_.size(); }
  size_t live_count() const { return live_count_; }
  size_t delta_count() const { return delta_count_; }

  bool live(uint32_t r) const { return r < live_.size() && live_[r] != 0; }
  bool delta(uint32_t r) const {
    return r < delta_.size() && delta_[r] != 0;
  }

  /// Removes the tuple from R_i and records it in ∆_i (delete + log).
  void MarkDeleted(uint32_t r);

  /// Records the tuple in ∆_i without removing it from R_i (used by end
  /// semantics during derivation, where base relations stay frozen).
  void SetDelta(uint32_t r);

  /// Removes the tuple from R_i *without* recording it in ∆_i: an
  /// external update to the instance (service layer), not a repair
  /// deletion. Also clears a stale delta flag, so the row reads as
  /// simply absent.
  void Retract(uint32_t r);

  /// Reverts a MarkDeleted: the tuple is live again and leaves ∆_i (used
  /// by the exact reference solvers to undo trial deletions).
  void UnmarkDeleted(uint32_t r);

  /// Adopts a row slot returned by Relation::InternRow as live: grows the
  /// view to cover it, and revives it (live again, out of ∆_i) when a
  /// dedupe hit landed on a row this view had deleted. Returns true when
  /// the row was not live before the call.
  bool AdoptLive(uint32_t r);

  /// Everything live, deltas empty, over `num_rows` slots.
  void ResetAllLive(size_t num_rows);

  /// Copy of the (live, delta) bitmaps, for snapshot/rollback.
  struct State {
    std::vector<uint8_t> live;
    std::vector<uint8_t> delta;
    size_t live_count = 0;
    size_t delta_count = 0;
  };
  State Save() const;
  /// Restores `s`. Row slots interned after the snapshot fall beyond the
  /// restored horizon and read as neither live nor delta — restoring
  /// never aborts on grown storage.
  void Restore(const State& s);

 private:
  void Grow(uint32_t r);

  std::vector<uint8_t> live_;
  std::vector<uint8_t> delta_;
  size_t live_count_ = 0;
  size_t delta_count_ = 0;
};

/// One database instance state: a RelationView per relation, over shared
/// storage. Create per-run copies with Database::SnapshotView(); the
/// canonical state used by the sequential API is Database::base_view().
class InstanceView {
 public:
  InstanceView() = default;
  /// A view mirroring `db`'s storage with everything live. `db` must
  /// outlive the view.
  explicit InstanceView(Database* db);

  const Database& db() const { return *db_; }
  Database* mutable_db() { return db_; }

  size_t num_relations() const { return rels_.size(); }
  const Relation& relation(uint32_t i) const;
  RelationView& rel(uint32_t i) { return rels_[i]; }
  const RelationView& rel(uint32_t i) const { return rels_[i]; }

  bool live(TupleId id) const { return rels_[id.relation].live(id.row); }
  bool delta(TupleId id) const { return rels_[id.relation].delta(id.row); }
  void MarkDeleted(TupleId id);
  void SetDelta(TupleId id);
  void UnmarkDeleted(TupleId id);
  void Retract(TupleId id);

  /// Set-semantics insert of a live tuple: interns the row into shared
  /// storage (single-threaded; see class comment) and adopts it in this
  /// view. A dedupe hit on a row this view had deleted *revives* it —
  /// live again, removed from ∆_i — and still reports inserted=false.
  InsertResult Insert(uint32_t rel, const Tuple& t);

  /// Brings this view forward across an external update: adopts every
  /// inserted row as live and retracts every deleted row. Used to carry a
  /// snapshot view (or warm engine state) from one instance version to
  /// the next without re-copying the whole bitmap set; the delta must
  /// come from the same database's history (Database::DeltaSince).
  void ApplyDelta(const Delta& delta);

  /// Total live tuples across relations (the size of D).
  size_t TotalLive() const;
  /// Total delta tuples across relations.
  size_t TotalDelta() const;

  /// All live tuple ids (deterministic order: relation-major).
  std::vector<TupleId> LiveTupleIds() const;
  /// All tuple ids currently in delta relations.
  std::vector<TupleId> DeltaTupleIds() const;

  /// Everything live (up to current storage), deltas empty.
  void ResetAllLive();

  /// Whole-instance (live, delta) snapshot.
  using State = std::vector<RelationView::State>;
  State SaveState() const;
  void RestoreState(const State& s);

  /// Debug rendering of live tuples (small instances only).
  std::string ToString() const;

 private:
  friend class Database;

  Database* db_ = nullptr;
  std::vector<RelationView> rels_;
};

}  // namespace deltarepair

#endif  // DELTAREPAIR_RELATION_INSTANCE_VIEW_H_
