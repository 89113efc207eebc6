#include "repair/independent_semantics.h"

#include "common/timer.h"
#include "repair/stability.h"
#include "repair/stability_model.h"

namespace deltarepair {

RepairResult IndependentSemantics::Run(InstanceView* view, const Program& program,
                                       const RepairOptions& options,
                                       ExecContext* ctx) const {
  WallTimer total;
  RepairResult result;
  result.semantics = SemanticsKind::kIndependent;

  DeletionCnfBuilder builder;
  MinOnesResult solved;
  if (!SolveStability(view, program, options.independent.min_ones, ctx,
                      &builder, &solved, &result.stats)) {
    // Interrupted during either provenance phase: the CNF would be
    // missing constraints, so an incumbent over it would not be
    // trustworthy. Keep the anytime contract on budget exhaustion with
    // the trivial fallback; on cancellation just unwind.
    if (ctx->reason() == TerminationReason::kBudgetExhausted) {
      TrivialStabilizingCompletion(view, program, &result);
    }
    CanonicalizeResult(&result);
    result.stats.total_seconds = total.ElapsedSeconds();
    return result;
  }
  // The formula always has the all-true model (every clause has a positive
  // literal because every rule body contains its self atom), so
  // unsatisfiability would indicate an encoding bug.
  DR_CHECK_MSG(solved.satisfiable, "negated provenance must be satisfiable");
  // Latch kBudgetExhausted/kCancelled when the solver was cut short and
  // the run-level budget or token (not just the solver's own work caps)
  // is to blame.
  if (!solved.optimal) ctx->ShouldStop();

  // Line 6: output the tuples whose deletion variable is true.
  for (uint32_t v = 0; v < builder.num_vars(); ++v) {
    if (solved.model[v]) result.deleted.push_back(builder.TupleOfVar(v));
  }
  for (const TupleId& t : result.deleted) view->MarkDeleted(t);
  CanonicalizeResult(&result);
  result.stats.total_seconds = total.ElapsedSeconds();
  return result;
}

}  // namespace deltarepair
