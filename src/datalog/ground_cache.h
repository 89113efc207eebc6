// GroundProgramCache: the hypothetical ground program of Algorithm 1 —
// every satisfying assignment of every rule body where base *and* delta
// atoms range over live tuples (DeltaMatch::kHypothetical) — maintained
// incrementally across external updates instead of re-enumerated per
// request. This is the shared ground-program cache keyed by (program,
// instance version): the independent semantics' CNF is a projection of
// it, CQA's symbolic repair space is built from it, and a delta that
// touches none of its ground rules certifies that *every* semantics'
// repair outcome is unchanged (all operational assignments bind only
// live rows, so they are contained in the hypothetical ground program).
//
// Maintenance is exact because the ground program is a non-recursive
// join over the live set: deleting a row invalidates exactly the ground
// rules whose body binds it (tracked by a row -> rules index), and
// inserting rows can only create ground rules binding at least one of
// them (enumerated by pivoted delta grounding). Retracted entries keep
// their id and are revived in place when the same assignment becomes
// valid again (delete-then-reinsert), so a stream that revisits
// instance states does not grow the rule store.
#ifndef DELTAREPAIR_DATALOG_GROUND_CACHE_H_
#define DELTAREPAIR_DATALOG_GROUND_CACHE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "datalog/grounder.h"
#include "relation/delta.h"

namespace deltarepair {

class ExecContext;

class GroundProgramCache {
 public:
  /// One ground rule (a stored GroundAssignment). Whether body[i] denotes
  /// a base or delta tuple follows program.rules()[rule_index].body[i].
  struct GroundRule {
    int rule_index = -1;
    TupleId head;
    std::vector<TupleId> body;
  };

  /// Full hypothetical grounding of `program` over `view`'s live set.
  /// Returns false (cache invalid) if `ctx` stopped the enumeration.
  bool Build(InstanceView* view, const Program& program, ExecContext* ctx);

  /// Advances the cache across `delta`. `view` must already reflect the
  /// post-delta live set (InstanceView::ApplyDelta). `*changed` tells
  /// whether any ground rule was added, revived or retracted; an
  /// unchanged ground program certifies that no semantics' repair outcome
  /// changed. Returns false (cache invalid) if interrupted; `*changed` is
  /// valid only on success.
  bool ApplyDelta(InstanceView* view, const Program& program,
                  const Delta& delta, bool* changed, ExecContext* ctx);

  bool valid() const { return valid_; }
  size_t num_rules() const { return rules_.size(); }
  size_t num_active() const { return num_active_; }
  bool active(uint32_t id) const { return active_[id] != 0; }
  const GroundRule& rule(uint32_t id) const { return rules_[id]; }

 private:
  static uint64_t KeyOf(const GroundRule& gr);
  // Records a freshly enumerated assignment; true on a new id or an
  // in-place revival, false when the assignment was already active.
  bool Record(const GroundAssignment& ga);

  bool valid_ = false;
  std::vector<GroundRule> rules_;
  std::vector<uint8_t> active_;
  size_t num_active_ = 0;
  // Content hash -> ids with that hash (collision chain; content is
  // compared on lookup). Covers active and retracted entries.
  std::unordered_map<uint64_t, std::vector<uint32_t>> dedupe_;
  // Packed TupleId -> ids of ground rules whose body binds that row. A
  // row bound at several atoms appears once per binding; retraction is
  // idempotent through the active bit.
  std::unordered_map<uint64_t, std::vector<uint32_t>> by_row_;
};

}  // namespace deltarepair

#endif  // DELTAREPAIR_DATALOG_GROUND_CACHE_H_
