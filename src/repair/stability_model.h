// The independent repair space (Def. 3.3) in the one representation
// every consumer reads: Algorithm 1's stability CNF over dense deletion
// variables (its models are the stabilizing sets), the tuple of each
// variable, a proven minimum model, and the minimum-repair cone
// decomposition over them (provenance/cone.h).
//
// Two producers build it, and both run the same Process Prov and Solve
// phases (ProcessProvAndSolve) and make the model the same way
// (MakeStabilityModel):
//  * cold — BuildStabilityModel runs Algorithm 1's Eval phase over a view
//    first (SolveStability, which IndependentSemantics::Run runs too);
//  * warm — IncrementalEngine encodes the ground program it maintains
//    (datalog/ground_cache.h), once per ground epoch.
//
// A model is immutable after construction, except for the slicer's
// memoized slices (built on demand, thread-safe), so one model serves
// any number of concurrent judges. Holders share it by shared_ptr.
#ifndef DELTAREPAIR_REPAIR_STABILITY_MODEL_H_
#define DELTAREPAIR_REPAIR_STABILITY_MODEL_H_

#include <functional>
#include <memory>
#include <vector>

#include "provenance/bool_formula.h"
#include "provenance/cone.h"
#include "repair/repair_options.h"
#include "sat/min_ones.h"

namespace deltarepair {

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
/// current state. Eval stores the hypothetical assignments flat, so
/// Figure 8's Eval and Process Prov phases are timed separately; the
/// three phase times, the assignment count, the CNF size counters and
/// the solver counters land in `stats`. `builder` receives the
/// stability CNF with its variable maps, and `solved` the Min-Ones
/// result under the remaining ctx budget. Returns false, with `solved`
/// untouched and stats->optimal false, when the budget or cancellation
/// stopped Eval or Process Prov: the CNF is then incomplete.
bool SolveStability(InstanceView* view, const Program& program,
                    const MinOnesOptions& options, ExecContext* ctx,
                    DeletionCnfBuilder* builder, MinOnesResult* solved,
                    RepairStats* stats);

/// Algorithm 1's Process Prov and Solve phases: `encode` feeds every
/// ground assignment to `builder` (ticking ctx), the CNF is normalized
/// once and its shape counters land in `stats`, and `solved` receives the
/// Min-Ones result under the remaining ctx budget and cancel flag, with
/// the phase times and solver counters in `stats`. Returns false, with
/// `solved` untouched and stats->optimal false, when the budget or
/// cancellation stopped Process Prov: the CNF is then incomplete.
bool ProcessProvAndSolve(const std::function<void()>& encode,
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
