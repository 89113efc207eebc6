#include "cqa/entailment.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"
#include "sat/totalizer.h"

namespace deltarepair {

SlicedJudge::SlicedJudge(SymbolicRepairSpace* space)
    : space_(space), min_ones_(space->min_ones_options_) {
  const StabilityModel* model = space->model_.get();
  if (model != nullptr && model->slicer().valid()) model_ = model;
}

SlicedJudge::~SlicedJudge() {
  std::lock_guard<std::mutex> lock(space_->stats_mu_);
  space_->slice_stats_.Add(slice_stats_);
  space_->stats_.Add(repair_stats_);
}

ConeSlicer::ReducedAnswer SlicedJudge::Reduce(
    const AnswerProvenance& prov) const {
  return model_->slicer().Reduce(prov.monomials, model_->var_of());
}

MinOnesOptions SlicedJudge::BudgetedMinOnes(ExecContext* ctx) const {
  MinOnesOptions options = min_ones_;
  options.time_limit_seconds =
      std::min(options.time_limit_seconds, ctx->RemainingSeconds());
  if (ctx->cancel_token() != nullptr) {
    options.cancel = ctx->cancel_token()->flag();
  }
  return options;
}

bool SlicedJudge::LoadCappedSlice(const ConeSlicer::Slice& slice,
                                  ExecContext* ctx, CdclSolver* solver) {
  // A cap wider than max_totalizer_area (n_i x (k_i+1) clauses) is not
  // built, and the verdict that needs it comes back undecided.
  for (const ConeSlicer::Slice::Cap& cap : slice.caps) {
    if (cap.bound != 0 &&
        static_cast<uint64_t>(cap.inputs.size()) * (cap.bound + 1) >
            min_ones_.max_totalizer_area) {
      return false;
    }
  }
  SolverOptions* opts = solver->mutable_options();
  opts->learning = min_ones_.enable_learning;
  opts->restarts = min_ones_.enable_restarts;
  double remaining = ctx->RemainingSeconds();
  opts->time_limit_seconds =
      std::isinf(remaining) ? 0 : std::max(remaining, 1e-9);
  opts->cancel =
      ctx->cancel_token() != nullptr ? ctx->cancel_token()->flag() : nullptr;
  solver->AddCnf(slice.cnf);
  for (const ConeSlicer::Slice::Cap& cap : slice.caps) {
    if (cap.bound == 0) {
      for (Lit l : cap.inputs) solver->AddClause({-l});
      continue;
    }
    std::vector<Lit> outputs =
        BuildTotalizer(solver, cap.inputs, cap.bound + 1);
    if (outputs.size() > cap.bound) {
      solver->AddClause({-outputs[cap.bound]});
    }
  }
  return true;
}

CqaVerdict SlicedJudge::Certain(const AnswerProvenance& prov,
                                ExecContext* ctx) {
  if (model_ == nullptr) return {false, false};
  const ConeSlicer::ReducedAnswer red = Reduce(prov);
  // Constant-propagated outcomes: no solver, no slice.
  if (red.untouched || red.alive) return {true, true};
  if (red.no_survivor) return {false, true};
  if (ctx->ShouldStop()) return {false, false};
  const ConeSlicer::Slice& slice = model_->slicer().GetSlice(red.seeds);

  Span span("cqa.slice_solve");
  CdclSolver solver;
  const bool capped = LoadCappedSlice(slice, ctx, &solver);
  span.SetArg("cap_skipped", capped ? 0 : 1);
  if (!capped) return {false, false};
  // ¬φ over the cone: every surviving monomial loses an open tuple.
  for (const std::vector<uint32_t>& mono : red.monomials) {
    std::vector<Lit> clause;
    clause.reserve(mono.size());
    for (uint32_t v : mono) {
      clause.push_back(PosLit(slice.local_of_global.at(v)));
    }
    solver.AddClause(std::move(clause));
  }
  ++slice_stats_.sliced_solve_calls;
  SolveStatus status = solver.Solve();
  repair_stats_.AddSolver(solver.stats());
  if (status == SolveStatus::kUnknown) {
    ctx->ShouldStop();  // latch the budget/cancel reason
    return {false, false};
  }
  // UNSAT under ¬φ over the minimum repairs: the answer survives all.
  return {status == SolveStatus::kUnsat, true};
}

CqaVerdict SlicedJudge::Possible(const AnswerProvenance& prov,
                                 ExecContext* ctx) {
  if (model_ == nullptr) return {true, false};
  const ConeSlicer::ReducedAnswer red = Reduce(prov);
  if (red.untouched || red.alive) return {true, true};
  if (red.no_survivor) return {false, true};
  if (ctx->ShouldStop()) return {true, false};
  const ConeSlicer::Slice& slice = model_->slicer().GetSlice(red.seeds);

  Span span("cqa.slice_solve");
  CdclSolver solver;
  const bool capped = LoadCappedSlice(slice, ctx, &solver);
  span.SetArg("cap_skipped", capped ? 0 : 1);
  if (!capped) return {true, false};
  // φ over the cone: some surviving monomial keeps all its open tuples
  // (Tseitin monomial variables; pinned tuples are already accounted:
  // forced-kept survive every minimum repair, dead monomials are gone).
  std::vector<Lit> some_monomial;
  some_monomial.reserve(red.monomials.size());
  for (const std::vector<uint32_t>& mono : red.monomials) {
    const Lit mv = PosLit(solver.NewVar());
    some_monomial.push_back(mv);
    for (uint32_t v : mono) {
      solver.AddClause({-mv, NegLit(slice.local_of_global.at(v))});
    }
  }
  solver.AddClause(std::move(some_monomial));
  ++slice_stats_.sliced_solve_calls;
  SolveStatus status = solver.Solve();
  repair_stats_.AddSolver(solver.stats());
  if (status == SolveStatus::kUnknown) {
    ctx->ShouldStop();
    return {true, false};
  }
  return {status == SolveStatus::kSat, true};
}

std::optional<CqaCounterexample> SlicedJudge::Counterexample(
    const AnswerProvenance& prov, ExecContext* ctx) {
  if (model_ == nullptr) return std::nullopt;
  const ConeSlicer::ReducedAnswer red = Reduce(prov);
  ConeSlicer& slicer = model_->slicer();
  std::vector<uint32_t> killer;
  bool minimal = false;
  std::optional<CexFallbackReason> fallback;
  if (red.untouched || red.alive) {
    // Survives every minimum repair; the smallest killer (if any)
    // deletes pinned tuples the slice fixed, or tuples with no variable.
    fallback = CexFallbackReason::kAlive;
  } else if (red.no_survivor) {
    // Every minimum repair kills the answer; the global optimum itself
    // (empty-cone composition) is a smallest killer.
    killer = slicer.ComposeKiller(ConeSlicer::Slice{}, std::vector<bool>{});
    minimal = true;
  } else {
    const ConeSlicer::Slice& slice = slicer.GetSlice(red.seeds);
    // Min-Ones over the cone's residual clauses ∧ ¬φ — deliberately
    // without the cardinality caps: the smallest killer may exceed the
    // cone's share of the optimum.
    Cnf cnf = slice.cnf;
    for (const std::vector<uint32_t>& mono : red.monomials) {
      for (uint32_t v : mono) cnf.PushLit(PosLit(slice.local_of_global.at(v)));
      cnf.EndClause();
    }
    ++slice_stats_.sliced_solve_calls;
    MinOnesResult solved = MinOnesSat(cnf, BudgetedMinOnes(ctx));
    repair_stats_.AddSolver(solved.solver);
    if (!solved.satisfiable && !solved.optimal) {
      // Budget tripped before any model; nothing to report.
      ctx->ShouldStop();
      return std::nullopt;
    }
    if (!solved.satisfiable) {
      fallback = CexFallbackReason::kNoConeKiller;
    } else if (solved.optimal && solved.num_true > slice.cone_cost) {
      // The composed killer would exceed the optimum k; a smaller one
      // deleting pinned tuples may exist.
      fallback = CexFallbackReason::kOverShare;
    } else {
      killer = slicer.ComposeKiller(slice, solved.model);
      // A local optimum matching the cone's share of k composes into a
      // minimum repair — provably the smallest killer overall.
      minimal = solved.optimal && solved.num_true == slice.cone_cost;
    }
  }
  if (fallback.has_value()) {
    ++slice_stats_.slice_fallbacks;
    Span span("cqa.cex_fallback");
    span.SetArg("reason", static_cast<uint64_t>(*fallback));
    return FullCounterexample(prov, ctx);
  }
  CqaCounterexample cex;
  cex.deleted.reserve(killer.size());
  for (uint32_t v : killer) cex.deleted.push_back(model_->tuple(v));
  std::sort(cex.deleted.begin(), cex.deleted.end());
  cex.minimal = minimal;
  return cex;
}

std::optional<CqaCounterexample> SlicedJudge::FullCounterexample(
    const AnswerProvenance& prov, ExecContext* ctx) {
  // The smallest stabilizing set killing the answer lies in the closure
  // of the model's variables and the answer's tuples: the kill clauses
  // are all-positive, so they seed the closure as the rules with no
  // delta atom do. Copy the model's CNF over the same variables, then
  // append the extension's clauses over fresh variables.
  DeletionCnfBuilder builder;
  builder.mutable_cnf() = model_->cnf();
  ReachableEval eval(space_->view_, space_->program_);
  for (uint32_t v = 0; v < model_->num_vars(); ++v) {
    builder.VarOf(model_->tuple(v));  // variable v again
    eval.MarkGrounded(model_->tuple(v));
  }
  for (const std::vector<TupleId>& m : prov.monomials) {
    for (const TupleId& t : m) eval.Seed(t);
  }
  if (!eval.Run(/*delta_free_round=*/false,
                [&](const GroundAssignment& ga) {
                  builder.AddAssignment(ga);
                  return true;
                },
                ctx)) {
    return std::nullopt;  // budget or cancellation
  }
  Cnf& cnf = builder.mutable_cnf();
  for (const std::vector<TupleId>& m : prov.monomials) {
    for (const TupleId& t : m) cnf.PushLit(PosLit(builder.VarOf(t)));
    cnf.EndClause();
  }
  // When the answer is non-certain the minimum equals the optimum, so
  // the witness is itself a minimum repair.
  MinOnesResult solved = MinOnesSat(cnf, BudgetedMinOnes(ctx));
  repair_stats_.AddSolver(solved.solver);
  if (!solved.satisfiable) {
    ctx->ShouldStop();
    return std::nullopt;  // proven certain, or budget before any model
  }
  CqaCounterexample cex;
  for (uint32_t v = 0; v < builder.num_vars(); ++v) {
    if (solved.model[v]) cex.deleted.push_back(builder.TupleOfVar(v));
  }
  std::sort(cex.deleted.begin(), cex.deleted.end());
  cex.minimal = solved.optimal;
  return cex;
}

}  // namespace deltarepair
