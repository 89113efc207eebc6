// The grounder enumerates satisfying assignments (the α of Sec. 2) of a
// delta rule's body against one instance state. It is the shared join
// engine behind all four semantics, the stability check, provenance
// construction, and the trigger emulator.
//
// The grounder reads row codes and hash indexes from the shared Relation
// storage and membership (live/delta) from an InstanceView, so concurrent
// grounders over per-thread views never race: index construction is the
// only shared mutation and Relation::EnsureIndex serializes it.
//
// The join runs on 8-byte cell codes (relation/relation.h) and allocates
// nothing per probe or per assignment. A rule's plan fixes, per step,
// which columns are checked against constants or earlier bindings and
// which bind new variables; rule constants are encoded once per plan,
// bindings are codes copied from the rows they came from, checks compare
// codes as integers, and probe keys hash codes through the dictionary's
// cached hashes. No Value is built, compared or hashed per row: only an
// order comparison against a string or a large int reads the
// dictionary. One GroundAssignment per EnumerateRule call is overwritten
// at every leaf. A callback therefore sees an assignment that is valid
// only for the duration of the call: it must copy whatever it keeps.
//
// A constant the dictionary lacks matches no cell: an atom or an `=`
// comparison that needs it makes the rule empty, and the order operators
// compare against it by value. A `var = constant` comparison turns the
// columns holding that variable, at the step that first binds it, into
// constant probe-key columns: the step probes instead of scanning and
// yields the same rows in the same ascending order.
//
// Two orthogonal matching modes select which tuples a body atom ranges
// over:
//  * BaseMatch  — base atoms R_i(Y) match live rows (stage/step/stability)
//                 or all view-visible rows (end semantics freezes R during
//                 derivation, Def. 3.10).
//  * DeltaMatch — delta atoms ∆_i(Y) match currently-deleted rows
//                 (operational semantics) or *any* live row (hypothetical
//                 deletions: independent semantics may delete tuples that
//                 are never derivable). Algorithm 1's Eval
//                 (ReachableEval, repair/stability_model.h) does not
//                 enumerate every hypothetical assignment: it pivots a
//                 delta atom on the rows it has reached and filters the
//                 others by reach round. The warm ground cache and the
//                 side-effect analysis enumerate them all.
#ifndef DELTAREPAIR_DATALOG_GROUNDER_H_
#define DELTAREPAIR_DATALOG_GROUNDER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "datalog/ast.h"
#include "relation/database.h"

namespace deltarepair {

enum class BaseMatch : uint8_t { kLive, kAllRows };
enum class DeltaMatch : uint8_t { kCurrent, kHypothetical };

/// One satisfying assignment of a rule body. The grounder reuses one
/// instance for every assignment of an EnumerateRule call: it is valid
/// only during the callback that receives it.
struct GroundAssignment {
  const Rule* rule = nullptr;
  int rule_index = -1;
  /// Row bound to the self atom — the tuple the rule derives (α(head)).
  /// Invalid (!valid()) for headless query rules (self_atom == -1).
  TupleId head;
  /// Row bound to each body atom, in body order. Whether entry i denotes a
  /// base or delta tuple follows rule->body[i].is_delta.
  std::vector<TupleId> body;
};

/// Return false to stop enumeration early. The assignment is valid only
/// during the call; copy what you keep.
using AssignmentCallback = std::function<bool(const GroundAssignment&)>;

class Grounder {
 public:
  /// `view` must outlive the grounder. Probing builds shared hash indexes
  /// lazily (thread-safe); logical content is never modified.
  explicit Grounder(InstanceView* view) : view_(view) {}
  /// Convenience: grounds against the database's canonical state.
  explicit Grounder(Database* db) : Grounder(&db->base_view()) {}

  /// Enumerates every satisfying assignment of `rule`.
  ///
  /// When `pivot_atom` >= 0, that body atom is restricted to the rows in
  /// `pivot_rows` (semi-naive evaluation pivots over freshly derived delta
  /// tuples). Returns false if the callback requested an early stop.
  bool EnumerateRule(const Rule& rule, int rule_index, BaseMatch bm,
                     DeltaMatch dm, const AssignmentCallback& cb,
                     int pivot_atom = -1,
                     const std::vector<uint32_t>* pivot_rows = nullptr);

  /// Delta grounding (semi-naive against an external update): enumerates
  /// only assignments that bind at least one of the given rows — for each
  /// body atom whose relation has rows in `rows_by_relation` (indexed by
  /// relation id), the join is re-run pivoted on that atom. An assignment
  /// binding pivot rows at several atoms is emitted once per such atom;
  /// callers dedupe (e.g. by rule index + packed body vector). Matching
  /// modes are as in EnumerateRule; the pivot applies to base and delta
  /// atoms alike, so hypothetical grounding (DeltaMatch::kHypothetical)
  /// covers newly live rows bound at ∆ positions too.
  bool EnumerateRuleDelta(const Rule& rule, int rule_index, BaseMatch bm,
                          DeltaMatch dm,
                          const std::vector<std::vector<uint32_t>>& rows_by_relation,
                          const AssignmentCallback& cb);

  /// True if at least one satisfying assignment of any rule in `program`
  /// exists (i.e., the instance is *unstable* w.r.t. the program,
  /// Def. 3.12 negated).
  bool AnyAssignment(const Program& program, BaseMatch bm, DeltaMatch dm);

  /// Total assignments emitted since construction (statistics).
  uint64_t assignments_enumerated() const { return assignments_enumerated_; }

 private:
  /// What one column of a step's atom does with a candidate row's cell,
  /// fixed by the plan's binding order (never by row values).
  struct ColumnOp {
    enum Kind : uint8_t { kConst, kCheck, kBind };
    Kind kind = kConst;
    uint32_t column = 0;
    uint32_t var = 0;   // kCheck / kBind
    Code constant = 0;  // kConst
  };

  /// A comparison with both sides bound at its step. The left side is a
  /// variable or a constant's code; the right side may also be a
  /// constant the dictionary lacks (`foreign`), compared by value.
  struct CmpCheck {
    struct Side {
      bool is_var = false;
      uint32_t var = 0;  // is_var
      Code code = 0;     // !is_var
    };
    CmpOp op = CmpOp::kEq;
    Side lhs, rhs;
    const Value* foreign = nullptr;  // when set, the right side
  };

  struct PlanStep {
    int atom = -1;                     // body atom index
    std::vector<CmpCheck> cmp_checks;  // comparisons first fully bound here
    // Per column, in column order: compare with a constant, compare with
    // a variable bound earlier (by a previous step or an earlier column
    // of this atom), or bind a fresh variable to the cell.
    std::vector<ColumnOp> ops;
    // Probe mask over the atom's columns: a column is in the mask when
    // its term is a constant, a variable fixed by `var = constant`, or a
    // variable bound by an earlier step.
    Relation::ColumnMask mask = 0;
    // The masked columns' ops, in ascending column order: the probe key.
    std::vector<ColumnOp> key;
    // Index for `mask`, resolved lazily at the step's first visit.
    const Relation::Index* index = nullptr;
  };

  struct Plan {
    std::vector<PlanStep> steps;
    // Variables fixed by a `var = constant` comparison, with the code
    // every assignment binds them to (preset in the bindings).
    std::vector<std::pair<uint32_t, Code>> fixed;
    // No assignment exists: a constant the rule needs equality with has
    // no code, or two `var = constant` comparisons disagree.
    bool empty = false;
  };

  Plan MakePlan(const Rule& rule, int pivot_atom) const;

  InstanceView* view_;
  uint64_t assignments_enumerated_ = 0;
};

}  // namespace deltarepair

#endif  // DELTAREPAIR_DATALOG_GROUNDER_H_
