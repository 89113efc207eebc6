#include "repair/stability_model.h"

#include <algorithm>

#include "common/timer.h"
#include "obs/trace.h"

namespace deltarepair {

namespace {

std::vector<uint64_t> PackedIds(const std::vector<TupleId>& tuples) {
  std::vector<uint64_t> ids;
  ids.reserve(tuples.size());
  for (const TupleId& t : tuples) ids.push_back(t.Pack());
  return ids;
}

}  // namespace

StabilityModel::StabilityModel(Cnf cnf, std::vector<TupleId> tuples,
                               const std::vector<bool>& min_model,
                               VarLookup var_of)
    : cnf_(std::move(cnf)),
      tuples_(std::move(tuples)),
      var_of_(std::move(var_of)),
      optimum_(static_cast<uint32_t>(
          std::count(min_model.begin(), min_model.end(), true))),
      slicer_(cnf_, min_model, PackedIds(tuples_)) {}

bool SolveStability(InstanceView* view, const Program& program,
                    const MinOnesOptions& options, ExecContext* ctx,
                    DeletionCnfBuilder* builder, MinOnesResult* solved,
                    RepairStats* stats) {
  // Phase 1 (Eval): enumerate all possible assignments, with delta atoms
  // ranging over hypothetical deletions of any live tuple (line 1 of
  // Algorithm 1), and store them as raw provenance — flat, so the Eval
  // and Process Prov phases of Figure 8 stay separately measurable, as in
  // the paper's prototype: per assignment its rule, and its body rows
  // appended to one array (the rule's body length delimits them).
  std::vector<const Rule*> stored_rules;
  std::vector<TupleId> stored_bodies;
  {
    ScopedTimer t(&stats->eval_seconds);
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
    stats->assignments = grounder.assignments_enumerated();
  }
  if (ctx->stopped()) {
    stats->optimal = false;
    return false;
  }

  // Phase 2 (Process Prov): convert the stored provenance into the negated
  // CNF over deletion variables (lines 2-4), normalized once here.
  {
    Span span("repair.process_prov");
    ScopedTimer t(&stats->process_prov_seconds);
    const TupleId* body = stored_bodies.data();
    for (const Rule* rule : stored_rules) {
      if (ctx->Tick()) break;
      builder->AddAssignment(*rule, body);
      body += rule->body.size();
    }
    // Encoded: free the raw provenance before Normalize and Min-Ones
    // allocate their own working memory.
    std::vector<const Rule*>().swap(stored_rules);
    std::vector<TupleId>().swap(stored_bodies);
    if (!ctx->stopped()) builder->Normalize();
    span.SetArg("clauses", builder->cnf().num_clauses());
    span.SetArg("dup_clauses", builder->normalize_stats().duplicate_clauses);
    span.SetArg("subsumed_clauses",
                builder->normalize_stats().unit_subsumed_clauses);
  }
  if (ctx->stopped()) {
    stats->optimal = false;
    return false;
  }
  stats->cnf_vars = builder->num_vars();
  stats->cnf_clauses = builder->cnf().num_clauses();
  stats->cnf_dup_clauses = builder->normalize_stats().duplicate_clauses;
  stats->cnf_subsumed_clauses =
      builder->normalize_stats().unit_subsumed_clauses;

  // Phase 3 (Solve): Min-Ones SAT (line 5). The remaining wall-clock
  // budget caps the solver's own deadline, and the cancel flag reaches
  // its bounded-search loop; either way the anytime incumbent is a
  // model of the full CNF, i.e. still a stabilizing set.
  {
    ScopedTimer t(&stats->solve_seconds);
    MinOnesOptions solver_options = options;
    solver_options.time_limit_seconds = std::min(
        solver_options.time_limit_seconds, ctx->RemainingSeconds());
    if (ctx->cancel_token() != nullptr) {
      solver_options.cancel = ctx->cancel_token()->flag();
    }
    *solved = MinOnesSat(builder->cnf(), solver_options);
  }
  stats->optimal = solved->optimal;
  stats->AddSolver(solved->solver);
  return true;
}

std::shared_ptr<const StabilityModel> BuildStabilityModel(
    InstanceView* view, const Program& program,
    const MinOnesOptions& options, ExecContext* ctx, RepairStats* stats) {
  auto builder = std::make_shared<DeletionCnfBuilder>();
  MinOnesResult solved;
  if (!SolveStability(view, program, options, ctx, builder.get(), &solved,
                      stats) ||
      !solved.satisfiable || !solved.optimal || ctx->ShouldStop()) {
    stats->optimal = false;
    return nullptr;
  }
  std::vector<TupleId> tuples(builder->num_vars());
  for (uint32_t v = 0; v < tuples.size(); ++v) {
    tuples[v] = builder->TupleOfVar(v);
  }
  // The model takes the clauses; the builder stays behind only as the
  // tuple -> variable map.
  Cnf cnf = std::move(builder->mutable_cnf());
  return std::make_shared<const StabilityModel>(
      std::move(cnf), std::move(tuples), solved.model,
      [builder](TupleId t) { return builder->FindVar(t); });
}

}  // namespace deltarepair
