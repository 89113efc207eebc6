#include "repair/independent_semantics.h"

#include <algorithm>

#include "common/timer.h"
#include "provenance/bool_formula.h"
#include "repair/stability.h"

namespace deltarepair {

RepairResult IndependentSemantics::Run(InstanceView* view, const Program& program,
                                       const RepairOptions& options,
                                       ExecContext* ctx) const {
  WallTimer total;
  RepairResult result;
  result.semantics = SemanticsKind::kIndependent;

  // Phase 1 (Eval): enumerate all possible assignments, with delta atoms
  // ranging over hypothetical deletions of any live tuple (line 1 of
  // Algorithm 1), and store them as raw provenance — flat, so the Eval
  // and Process Prov phases of Figure 8 stay separately measurable, as in
  // the paper's prototype: per assignment its rule, and its body rows
  // appended to one array (the rule's body length delimits them).
  std::vector<const Rule*> stored_rules;
  std::vector<TupleId> stored_bodies;
  {
    ScopedTimer t(&result.stats.eval_seconds);
    Grounder grounder(view);
    for (size_t i = 0; i < program.rules().size() && !ctx->stopped(); ++i) {
      grounder.EnumerateRule(program.rules()[i], static_cast<int>(i),
                             BaseMatch::kLive, DeltaMatch::kHypothetical,
                             [&](const GroundAssignment& ga) {
                               if (ctx->Tick()) return false;
                               stored_rules.push_back(ga.rule);
                               stored_bodies.insert(stored_bodies.end(),
                                                    ga.body.begin(),
                                                    ga.body.end());
                               return true;
                             });
    }
    result.stats.assignments = grounder.assignments_enumerated();
  }
  // Interrupted during either provenance phase: the CNF would be missing
  // constraints, so an incumbent over it would not be trustworthy. Keep
  // the anytime contract on budget exhaustion with the trivial fallback;
  // on cancellation just unwind.
  auto interrupted = [&]() -> RepairResult {
    result.stats.optimal = false;
    if (ctx->reason() == TerminationReason::kBudgetExhausted) {
      TrivialStabilizingCompletion(view, program, &result);
    }
    CanonicalizeResult(&result);
    result.stats.total_seconds = total.ElapsedSeconds();
    return result;
  };
  if (ctx->stopped()) return interrupted();

  // Phase 2 (Process Prov): convert the stored provenance into the negated
  // CNF over deletion variables (lines 2-4).
  DeletionCnfBuilder builder;
  {
    ScopedTimer t(&result.stats.process_prov_seconds);
    const TupleId* body = stored_bodies.data();
    for (const Rule* rule : stored_rules) {
      if (ctx->Tick()) break;
      builder.AddAssignment(*rule, body);
      body += rule->body.size();
    }
    if (!ctx->stopped()) builder.Normalize();
  }
  if (ctx->stopped()) return interrupted();
  result.stats.cnf_vars = builder.num_vars();
  result.stats.cnf_clauses = builder.cnf().num_clauses();
  result.stats.cnf_dup_clauses = builder.normalize_stats().duplicate_clauses;
  result.stats.cnf_subsumed_clauses =
      builder.normalize_stats().unit_subsumed_clauses;

  // Phase 3 (Solve): Min-Ones SAT (line 5). The remaining wall-clock
  // budget caps the solver's own deadline, and the cancel flag reaches
  // its bounded-search loop; either way the anytime incumbent is a
  // model of the full CNF, i.e. still a stabilizing set.
  MinOnesResult solved;
  {
    ScopedTimer t(&result.stats.solve_seconds);
    MinOnesOptions solver_options = options.independent.min_ones;
    solver_options.time_limit_seconds = std::min(
        solver_options.time_limit_seconds, ctx->RemainingSeconds());
    if (ctx->cancel_token() != nullptr) {
      solver_options.cancel = ctx->cancel_token()->flag();
    }
    solved = MinOnesSat(builder.cnf(), solver_options);
  }
  // The formula always has the all-true model (every clause has a positive
  // literal because every rule body contains its self atom), so
  // unsatisfiability would indicate an encoding bug.
  DR_CHECK_MSG(solved.satisfiable, "negated provenance must be satisfiable");
  result.stats.optimal = solved.optimal;
  result.stats.AddSolver(solved.solver);
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
