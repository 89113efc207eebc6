#include "cqa/entailment.h"

#include <algorithm>
#include <cmath>

#include "sat/totalizer.h"

namespace deltarepair {

namespace {

// Cones wider than this fraction of the deletion variables fall back to
// the full CNF (slicing overhead would exceed the saving). A floor of
// 32 variables keeps tiny instances sliceable.
constexpr double kMaxConeFraction = 0.5;

}  // namespace

SlicedJudge::SlicedJudge(ConeSlicer* slicer, const SliceOptions& options,
                         const MinOnesOptions& min_ones)
    : slicer_(slicer), min_ones_(min_ones) {
  enabled_ = options.enable && slicer != nullptr && slicer->valid();
  if (!enabled_) return;
  double cap = kMaxConeFraction * static_cast<double>(slicer->num_vars());
  max_cone_vars_ = std::max<uint32_t>(32, static_cast<uint32_t>(cap));
}

const ConeSlicer::Slice* SlicedJudge::SliceFor(
    const ConeSlicer::ReducedAnswer& red) {
  const ConeSlicer::Slice* slice =
      slicer_->GetSlice(red.seeds, max_cone_vars_);
  if (slice == nullptr) ++slice_stats_.slice_fallbacks;
  return slice;
}

bool SlicedJudge::LoadCappedSlice(const ConeSlicer::Slice& slice,
                                  ExecContext* ctx, CdclSolver* solver) {
  // Same rule as the full-CNF fallbacks: a cap wider than
  // max_totalizer_area (n_i x (k_i+1) clauses) is not built, and the
  // verdict that needs it comes back undecided.
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

std::optional<CqaVerdict> SlicedJudge::Certain(
    const ConeSlicer::ReducedAnswer& red, ExecContext* ctx) {
  // Constant-propagated outcomes: no solver, no slice.
  if (red.untouched || red.alive) return CqaVerdict{true, true};
  if (red.no_survivor) return CqaVerdict{false, true};
  if (ctx->ShouldStop()) return CqaVerdict{false, false};
  const ConeSlicer::Slice* slice = SliceFor(red);
  if (slice == nullptr) return std::nullopt;

  CdclSolver solver;
  if (!LoadCappedSlice(*slice, ctx, &solver)) return CqaVerdict{false, false};
  // ¬φ over the cone: every surviving monomial loses an open tuple.
  for (const std::vector<uint32_t>& mono : red.monomials) {
    std::vector<Lit> clause;
    clause.reserve(mono.size());
    for (uint32_t v : mono) {
      clause.push_back(PosLit(slice->local_of_global.at(v)));
    }
    solver.AddClause(std::move(clause));
  }
  ++slice_stats_.sliced_solve_calls;
  SolveStatus status = solver.Solve();
  repair_stats_.AddSolver(solver.stats());
  if (status == SolveStatus::kUnknown) {
    ctx->ShouldStop();  // latch the budget/cancel reason
    return CqaVerdict{false, false};
  }
  return CqaVerdict{status == SolveStatus::kUnsat, true};
}

std::optional<CqaVerdict> SlicedJudge::Possible(
    const ConeSlicer::ReducedAnswer& red, ExecContext* ctx) {
  if (red.untouched || red.alive) return CqaVerdict{true, true};
  if (red.no_survivor) return CqaVerdict{false, true};
  if (ctx->ShouldStop()) return CqaVerdict{true, false};
  const ConeSlicer::Slice* slice = SliceFor(red);
  if (slice == nullptr) return std::nullopt;

  CdclSolver solver;
  if (!LoadCappedSlice(*slice, ctx, &solver)) return CqaVerdict{true, false};
  // φ over the cone: some surviving monomial keeps all its open tuples
  // (Tseitin monomial variables; pinned tuples are already accounted:
  // forced-kept survive every minimum repair, dead monomials are gone).
  std::vector<Lit> some_monomial;
  some_monomial.reserve(red.monomials.size());
  for (const std::vector<uint32_t>& mono : red.monomials) {
    const Lit mv = PosLit(solver.NewVar());
    some_monomial.push_back(mv);
    for (uint32_t v : mono) {
      solver.AddClause({-mv, NegLit(slice->local_of_global.at(v))});
    }
  }
  solver.AddClause(std::move(some_monomial));
  ++slice_stats_.sliced_solve_calls;
  SolveStatus status = solver.Solve();
  repair_stats_.AddSolver(solver.stats());
  if (status == SolveStatus::kUnknown) {
    ctx->ShouldStop();
    return CqaVerdict{true, false};
  }
  return CqaVerdict{status == SolveStatus::kSat, true};
}

SlicedJudge::CexOutcome SlicedJudge::Counterexample(
    const ConeSlicer::ReducedAnswer& red, ExecContext* ctx) {
  CexOutcome out;
  if (red.untouched) return out;  // unkillable by any repair
  if (red.alive) {
    // Survives every minimum repair; the smallest killer (if any)
    // deletes pinned tuples the slice fixed — full-CNF territory.
    out.kind = CexOutcome::Kind::kFallback;
    return out;
  }
  if (red.no_survivor) {
    // Every minimum repair kills the answer; the global optimum itself
    // (empty-cone composition) is a smallest killer.
    out.kind = CexOutcome::Kind::kFound;
    out.deleted_vars = slicer_->ComposeKiller(
        ConeSlicer::Slice{}, std::vector<bool>{});
    out.minimal = true;
    return out;
  }
  const ConeSlicer::Slice* slice = SliceFor(red);
  if (slice == nullptr) {
    out.kind = CexOutcome::Kind::kFallback;
    return out;
  }

  // Min-Ones over the cone's residual clauses ∧ ¬φ — deliberately
  // without the cardinality caps: the smallest killer may exceed the
  // cone's share of the optimum.
  Cnf cnf = slice->cnf;
  for (const std::vector<uint32_t>& mono : red.monomials) {
    std::vector<Lit> clause;
    clause.reserve(mono.size());
    for (uint32_t v : mono) {
      clause.push_back(PosLit(slice->local_of_global.at(v)));
    }
    cnf.AddClause(std::move(clause));
  }
  MinOnesOptions options = min_ones_;
  options.time_limit_seconds =
      std::min(options.time_limit_seconds, ctx->RemainingSeconds());
  if (ctx->cancel_token() != nullptr) {
    options.cancel = ctx->cancel_token()->flag();
  }
  ++slice_stats_.sliced_solve_calls;
  MinOnesResult solved = MinOnesSat(cnf, options);
  repair_stats_.AddSolver(solved.solver);
  if (!solved.satisfiable) {
    if (!solved.optimal) {
      // Budget tripped before any model; nothing to report.
      ctx->ShouldStop();
      return out;
    }
    // Proven: no killer stays within the cone's residual space. One may
    // still exist deleting pinned tuples — the full CNF must decide.
    out.kind = CexOutcome::Kind::kFallback;
    return out;
  }
  if (solved.optimal && solved.num_true > slice->cone_cost) {
    // The composed killer would exceed the global optimum k; a smaller
    // killer deleting pinned tuples may exist, so a "minimal"
    // claim here would be unsound.
    out.kind = CexOutcome::Kind::kFallback;
    return out;
  }
  out.kind = CexOutcome::Kind::kFound;
  out.deleted_vars = slicer_->ComposeKiller(*slice, solved.model);
  // Local optimum matching the cone's share of k composes into a
  // global minimum repair — provably the smallest killer overall.
  out.minimal = solved.optimal && solved.num_true == slice->cone_cost;
  return out;
}

}  // namespace deltarepair
