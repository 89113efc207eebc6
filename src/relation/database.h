// Database: shared relation storage plus the canonical instance state.
// The database instance D of the paper is the set of live tuples; ∆(S) is
// tracked through per-row delta flags. Storage — each relation's rows as
// flat cell codes, its dedupe table and indexes (relation/relation.h) —
// and the one ValueDict every relation's codes index are owned here and
// shared read-only by any number of InstanceViews. The Database keeps
// one distinguished `base_view()` holding the canonical live/delta
// state, and every legacy entry point (Insert/MarkDeleted/SaveState/...)
// delegates to it. Concurrent repair runs take per-thread copies via
// SnapshotView().
//
// The dictionary grows only where storage grows: Insert/ApplyUpdate
// inserts (single-threaded, like every storage mutation) and snapshot
// install. A copied or moved Database owns its own dictionary and
// rebinds its relations to it, so interning into a copy never changes
// the original. Values and Tuples cross this boundary only at the
// edges: Insert/ApplyUpdate take Tuples, and tuple()/cell() decode.
#ifndef DELTAREPAIR_RELATION_DATABASE_H_
#define DELTAREPAIR_RELATION_DATABASE_H_

#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "relation/delta.h"
#include "relation/instance_view.h"
#include "relation/relation.h"

namespace deltarepair {

class Database {
 public:
  Database() = default;

  // Copies rebind the base view onto the new owner; independent
  // InstanceViews created from the source keep pointing at the source.
  Database(const Database& other);
  Database& operator=(const Database& other);
  Database(Database&& other) noexcept;
  Database& operator=(Database&& other) noexcept;

  /// Registers a relation; returns its index. Names must be unique.
  uint32_t AddRelation(RelationSchema schema);

  /// Index of the relation named `name`, or -1.
  int RelationIndex(const std::string& name) const;

  size_t num_relations() const { return relations_.size(); }
  const Relation& relation(uint32_t i) const { return relations_[i]; }
  /// Storage-mutating access (loading phase; see Relation's thread model).
  Relation& mutable_relation(uint32_t i) { return relations_[i]; }

  const Relation* FindRelation(const std::string& name) const;

  /// The canonical instance state every legacy entry point operates on.
  InstanceView& base_view() { return base_; }
  const InstanceView& base_view() const { return base_; }

  /// A per-run copy of the canonical state, sharing this database's
  /// storage. The backbone of parallel batch execution.
  InstanceView SnapshotView() { return base_; }

  /// Monotonically increasing instance version. Bumped by every
  /// ApplyUpdate whose realized delta is non-empty; repair-internal
  /// membership flips (MarkDeleted/SetDelta, SaveState/RestoreState) do
  /// not touch it. Version 0 is the loading phase — direct Insert calls
  /// during initial population are not versioned.
  uint64_t version() const { return version_; }

  /// Applies one external update batch (all inserts or all deletes) to
  /// the canonical state and returns the *realized* delta: inserts that
  /// were already live and deletes of absent tuples are excluded. A
  /// non-empty delta bumps the version and is recorded in the bounded
  /// delta history; an empty one leaves the version unchanged.
  Delta ApplyUpdate(uint32_t rel, bool is_insert,
                    const std::vector<Tuple>& tuples);

  /// Fills `out` with the merged realized delta covering
  /// (from_version, version()]. Returns false when `from_version` is in
  /// the future or has aged out of the bounded history — the caller must
  /// fall back to a cold rebuild. An up-to-date caller gets an empty
  /// delta and true.
  bool DeltaSince(uint64_t from_version, Delta* out) const;

  /// Realized deltas retained for DeltaSince. Older warm state goes cold.
  static constexpr size_t kMaxDeltaHistory = 256;

  /// Inserts a live tuple into relation `rel`. A dedupe hit on a deleted
  /// row revives it (see InstanceView::Insert).
  TupleId Insert(uint32_t rel, const Tuple& t);
  /// Inserts by relation name (must exist).
  TupleId Insert(const std::string& rel, const Tuple& t);
  /// Insert that also reports whether a new row slot was created.
  InsertResult InsertChecked(uint32_t rel, const Tuple& t);

  /// Decodes tuple `id` (edges only; the join reads codes).
  Tuple tuple(TupleId id) const {
    return relations_[id.relation].DecodeRow(id.row);
  }
  /// Decodes column `c` of tuple `id`.
  Value cell(TupleId id, size_t c) const {
    return relations_[id.relation].Cell(id.row, c);
  }
  /// The dictionary behind every relation's cell codes.
  const ValueDict& dict() const { return dict_; }
  /// Dictionary-growing access (snapshot install; single-threaded, like
  /// mutable_relation).
  ValueDict& mutable_dict() { return dict_; }
  bool live(TupleId id) const { return base_.live(id); }
  bool delta(TupleId id) const { return base_.delta(id); }
  void MarkDeleted(TupleId id) { base_.MarkDeleted(id); }
  void SetDelta(TupleId id) { base_.SetDelta(id); }
  void UnmarkDeleted(TupleId id) { base_.UnmarkDeleted(id); }

  /// Total live tuples across relations (the size of D).
  size_t TotalLive() const { return base_.TotalLive(); }
  /// Total row slots across relations (storage, live or not).
  size_t TotalRows() const;
  /// Total delta tuples across relations.
  size_t TotalDelta() const { return base_.TotalDelta(); }
  /// Live tuples in one relation.
  size_t live_count(uint32_t rel) const {
    return base_.rel(rel).live_count();
  }

  /// All live tuple ids (deterministic order: relation-major).
  std::vector<TupleId> LiveTupleIds() const { return base_.LiveTupleIds(); }
  /// All tuple ids currently in delta relations.
  std::vector<TupleId> DeltaTupleIds() const {
    return base_.DeltaTupleIds();
  }

  /// Restores the canonical state to everything-live, deltas empty.
  void ResetState() { base_.ResetAllLive(); }

  /// Whole-database (live, delta) snapshot of the canonical state.
  using State = InstanceView::State;
  State SaveState() const { return base_.SaveState(); }
  void RestoreState(const State& s) { base_.RestoreState(s); }

  /// Renders tuple `id` as "Rel(v1, v2)".
  std::string TupleToStr(TupleId id) const;

  /// Debug rendering of the canonical state (small databases).
  std::string ToString() const { return base_.ToString(); }

 private:
  /// Points every relation at this database's own dictionary (copies and
  /// moves).
  void BindDict();

  ValueDict dict_;
  std::vector<Relation> relations_;
  std::unordered_map<std::string, uint32_t> by_name_;
  InstanceView base_;
  uint64_t version_ = 0;
  // Consecutive realized deltas; history_[i].to_version ==
  // history_[i+1].from_version, back() ends at version_.
  std::deque<Delta> history_;
};

}  // namespace deltarepair

#endif  // DELTAREPAIR_RELATION_DATABASE_H_
