// The independent repair space (Def. 3.3) in the one representation
// every consumer reads: the reachable part of Algorithm 1's stability CNF
// over dense deletion variables (its minimum models are the minimum
// stabilizing sets), the tuple of each variable, a proven minimum model,
// and the minimum-repair cone decomposition over them (provenance/cone.h).
//
// Reachable Eval. Algorithm 1's line 1 grounds every rule with delta
// atoms ranging over every live tuple. The clause of an assignment α is
// (∨ its base tuples) ∨ (∨ ¬its delta tuples). Let R be the least set of
// live tuples such that every assignment whose delta tuples all lie in R
// has all its base tuples in R; the rules with no delta atom seed it.
// ReachableEval grounds exactly the assignments whose delta tuples lie in
// R, and the two CNFs have the same minimum models:
//  * a model S of the full CNF restricts to a model S ∩ R (a clause whose
//    delta tuples lie in S ∩ R has its base tuples in R, and S holds one),
//    so every minimum model lies inside R;
//  * a model of the reachable clauses, with every other tuple kept, is a
//    model of the full CNF: each remaining clause has a delta tuple
//    outside R.
// R is exactly the set of variables, so a tuple with no variable is kept
// by every minimum repair. A larger stabilizing set (a counterexample
// beyond the minimum, cqa/entailment.h) lies in the closure of R and its
// own seeds, which ReachableEval extends from R.
//
// Two producers build the model, and both run the same Process Prov and
// Solve phases (ProcessProvAndSolve) and make the model the same way
// (MakeStabilityModel):
//  * cold — BuildStabilityModel runs the reachable Eval over a view first
//    (SolveStability, which IndependentSemantics::Run runs too);
//  * warm — IncrementalEngine encodes the reachable rules of the ground
//    program it maintains (GroundProgramCache::ReachableRules), once per
//    ground epoch.
//
// A model is immutable after construction, except for the slicer's
// memoized slices (built on demand, thread-safe), so one model serves
// any number of concurrent judges. Holders share it by shared_ptr.
#ifndef DELTAREPAIR_REPAIR_STABILITY_MODEL_H_
#define DELTAREPAIR_REPAIR_STABILITY_MODEL_H_

#include <functional>
#include <memory>
#include <vector>

#include "datalog/grounder.h"
#include "provenance/bool_formula.h"
#include "provenance/cone.h"
#include "repair/repair_options.h"
#include "sat/min_ones.h"

namespace deltarepair {

class Span;

/// The reachable hypothetical grounding: a semi-naive closure over
/// DeltaMatch::kHypothetical assignments in which a delta atom ranges only
/// over tuples already reached, and every base tuple of an emitted
/// assignment becomes reached. Round 0 grounds the rules with no delta
/// atom; each later round re-grounds every rule with delta atoms, once per
/// delta atom whose relation gained rows, pivoted on the rows reached in
/// the previous round. The other delta atoms of the rule are filtered by
/// the round their row was reached in (rows of earlier delta atoms before
/// that round, of later ones up to it), so each reachable assignment is
/// emitted exactly once.
class ReachableEval {
 public:
  /// `view` and `program` must outlive the eval.
  ReachableEval(InstanceView* view, const Program& program);

  /// Declares `t` reached by an earlier closure whose assignments the
  /// caller already holds: assignments whose delta tuples all lie in
  /// such tuples are not emitted again. Call before Seed and Run.
  void MarkGrounded(TupleId t);
  /// Adds a live tuple to the first round's frontier unless it is
  /// reached already.
  void Seed(TupleId t);

  /// Grounds to the closure and hands `emit` each new assignment once:
  /// first, when `delta_free_round`, those of the rules with no delta
  /// atom; then, one round per frontier until none is left, those whose
  /// delta tuples are all reached and at least one of them since the
  /// previous round (so none whose delta tuples are all MarkGrounded).
  /// The assignment is valid only during the call. ctx ticks per
  /// assignment. False when ctx stopped the grounding or `emit` returned
  /// false.
  bool Run(bool delta_free_round, const AssignmentCallback& emit,
           ExecContext* ctx);

  /// Assignments emitted so far.
  uint64_t assignments() const { return assignments_; }
  /// Rounds run so far, round 0 included.
  uint64_t rounds() const { return rounds_; }

 private:
  uint32_t& mark(TupleId t) { return marks_[t.relation][t.row]; }
  /// Marks an unreached tuple with the current round and queues it.
  void Reach(TupleId t);
  /// Reaches the base tuples of an emitted assignment, then emits it.
  bool Accept(const GroundAssignment& ga, const AssignmentCallback& emit);

  const Program& program_;
  Grounder grounder_;
  /// Per relation and row: 0 while unreached, else the round whose
  /// frontier held the row (1 for MarkGrounded rows).
  std::vector<std::vector<uint32_t>> marks_;
  /// Per relation: rows marked round_, the next round's pivots.
  std::vector<std::vector<uint32_t>> frontier_;
  uint32_t round_ = 1;
  uint64_t assignments_ = 0;
  uint64_t rounds_ = 0;
};

class StabilityModel {
 public:
  /// Deletion variable of a tuple, or -1 when the tuple has none.
  using VarLookup = std::function<int64_t(TupleId)>;

  /// `cnf` ranges over variables [0, tuples.size()), variable v standing
  /// for the deletion of tuples[v]; `min_model` is a proven minimum model
  /// of it and `var_of` the inverse of `tuples`.
  StabilityModel(Cnf cnf, std::vector<TupleId> tuples,
                 const std::vector<bool>& min_model, VarLookup var_of);

  const Cnf& cnf() const { return cnf_; }
  uint32_t num_vars() const { return static_cast<uint32_t>(tuples_.size()); }
  TupleId tuple(uint32_t v) const { return tuples_[v]; }
  int64_t FindVar(TupleId t) const { return var_of_(t); }
  const VarLookup& var_of() const { return var_of_; }
  /// The size of every minimum repair.
  uint32_t optimum() const { return optimum_; }
  /// The minimum-repair cone decomposition. GetSlice memoizes
  /// (thread-safe); everything else is read-only.
  ConeSlicer& slicer() const { return slicer_; }

 private:
  Cnf cnf_;
  std::vector<TupleId> tuples_;
  VarLookup var_of_;
  uint32_t optimum_ = 0;
  mutable ConeSlicer slicer_;
};

/// Algorithm 1's Eval, Process Prov and Solve phases over the view's
/// current state, Eval restricted to the reachable assignments
/// (ReachableEval). Eval stores the assignments flat, so Figure 8's Eval
/// and Process Prov phases are timed separately; the three phase times,
/// the assignment count, the CNF size counters and the solver counters
/// land in `stats`. `builder` receives the stability CNF with its
/// variable maps, and `solved` the Min-Ones result under the remaining
/// ctx budget. Returns false, with `solved` untouched and stats->optimal
/// false, when the budget or cancellation stopped Eval or Process Prov:
/// the CNF is then incomplete.
bool SolveStability(InstanceView* view, const Program& program,
                    const MinOnesOptions& options, ExecContext* ctx,
                    DeletionCnfBuilder* builder, MinOnesResult* solved,
                    RepairStats* stats);

/// Algorithm 1's Process Prov and Solve phases: `encode` feeds every
/// ground assignment to `builder` (ticking ctx) and may add args to the
/// phase's "repair.process_prov" span, the CNF is normalized once and its
/// shape counters land in `stats`, and `solved` receives the Min-Ones
/// result under the remaining ctx budget and cancel flag, with the phase
/// times and solver counters in `stats`. Returns false, with `solved`
/// untouched and stats->optimal false, when the budget or cancellation
/// stopped Process Prov: the CNF is then incomplete.
bool ProcessProvAndSolve(const std::function<void(Span*)>& encode,
                         const MinOnesOptions& options, ExecContext* ctx,
                         DeletionCnfBuilder* builder, MinOnesResult* solved,
                         RepairStats* stats);

/// The model over `builder`'s CNF and a proven minimum model of it. The
/// model takes the clauses; the builder keeps its variable maps and stays
/// alive, shared, as the model's tuple -> variable lookup.
std::shared_ptr<const StabilityModel> MakeStabilityModel(
    std::shared_ptr<DeletionCnfBuilder> builder,
    const std::vector<bool>& min_model);

/// The cold producer: SolveStability, then the model over its optimum.
/// nullptr when the run was interrupted or the optimum is unproven —
/// without it the space cannot be characterized.
std::shared_ptr<const StabilityModel> BuildStabilityModel(
    InstanceView* view, const Program& program,
    const MinOnesOptions& options, ExecContext* ctx, RepairStats* stats);

}  // namespace deltarepair

#endif  // DELTAREPAIR_REPAIR_STABILITY_MODEL_H_
