#include "cqa/warm_space.h"

#include <algorithm>
#include <cmath>

#include "cqa/entailment.h"
#include "obs/trace.h"

namespace deltarepair {

// Per-worker judge over the warm space: sliced verdicts on the engine's
// long-lived ConeSlicer, full-CNF fallbacks on the borrowed solver.
// Mirrors the cold SymbolicJudge; declared at namespace scope for the
// friend grant.
class WarmJudge : public AnswerJudge {
 public:
  explicit WarmJudge(WarmRepairSpace* space)
      : space_(space),
        sliced_(space->slice_ != nullptr ? space->slice_->slicer.get()
                                         : nullptr,
                space->slice_options_, space->min_ones_options_) {}

  ~WarmJudge() override {
    std::lock_guard<std::mutex> lock(space_->stats_mu_);
    space_->slice_stats_.Add(sliced_.slice_stats());
    space_->stats_.Add(sliced_.repair_stats());
  }

  CqaVerdict Certain(const AnswerProvenance& prov,
                     ExecContext* ctx) override {
    if (!space_->exact()) return {false, false};
    if (sliced_.enabled()) {
      std::optional<CqaVerdict> verdict = sliced_.Certain(Reduce(prov), ctx);
      if (verdict.has_value()) return *verdict;
    }
    return space_->FallbackCertain(prov, ctx);
  }

  CqaVerdict Possible(const AnswerProvenance& prov,
                      ExecContext* ctx) override {
    if (!space_->exact()) return {true, false};
    if (sliced_.enabled()) {
      std::optional<CqaVerdict> verdict = sliced_.Possible(Reduce(prov), ctx);
      if (verdict.has_value()) return *verdict;
    }
    return space_->FallbackPossible(prov, ctx);
  }

  std::optional<CqaCounterexample> Counterexample(
      const AnswerProvenance& prov, ExecContext* ctx) override {
    if (!space_->exact()) return std::nullopt;
    if (sliced_.enabled()) {
      SlicedJudge::CexOutcome out = sliced_.Counterexample(Reduce(prov), ctx);
      if (out.kind == SlicedJudge::CexOutcome::Kind::kNone) {
        return std::nullopt;
      }
      if (out.kind == SlicedJudge::CexOutcome::Kind::kFound) {
        CqaCounterexample cex;
        cex.deleted.reserve(out.deleted_vars.size());
        for (uint32_t v : out.deleted_vars) {
          cex.deleted.push_back(space_->slice_->tuples[v]);
        }
        std::sort(cex.deleted.begin(), cex.deleted.end());
        cex.minimal = out.minimal;
        return cex;
      }
    }
    return space_->FallbackCounterexample(prov, ctx);
  }

 private:
  ConeSlicer::ReducedAnswer Reduce(const AnswerProvenance& prov) const {
    const WarmSliceState* slice = space_->slice_;
    return slice->slicer->Reduce(
        prov.monomials, [slice](TupleId t) -> int64_t {
          auto it = slice->var_of.find(t.Pack());
          return it == slice->var_of.end()
                     ? -1
                     : static_cast<int64_t>(it->second);
        });
  }

  WarmRepairSpace* space_;
  SlicedJudge sliced_;
};

WarmRepairSpace::WarmRepairSpace(IncrementalDeletionCnf* cnf,
                                 const WarmMinOnesResult& optimum,
                                 const MinOnesOptions& min_ones_options,
                                 WarmSliceProvider slice_provider,
                                 const SliceOptions& slice_options)
    : cnf_(cnf),
      min_ones_options_(min_ones_options),
      slice_provider_(std::move(slice_provider)),
      slice_options_(slice_options) {
  // Without a proven warm optimum the space cannot be characterized —
  // same rule as the cold symbolic space.
  exact_ = optimum.satisfiable && optimum.optimal &&
           cnf_->SolvedAtCurrentEpoch();
  repair_size_ = static_cast<uint32_t>(optimum.num_true);
}

void WarmRepairSpace::PrepareJudges(size_t num_answers) {
  // The cone decomposition is refreshed only for requests grounding at
  // least this many answers; below it the warm long-lived solver answers
  // faster than the decomposition costs to rebuild.
  constexpr size_t kWarmMinAnswers = 16;
  if (slice_provider_ == nullptr || !slice_options_.enable ||
      num_answers < kWarmMinAnswers) {
    return;
  }
  slice_ = slice_provider_();
}

CqaVerdict WarmRepairSpace::Certain(const AnswerProvenance& prov,
                                    ExecContext* ctx) {
  WarmJudge judge(this);
  return judge.Certain(prov, ctx);
}

CqaVerdict WarmRepairSpace::Possible(const AnswerProvenance& prov,
                                     ExecContext* ctx) {
  WarmJudge judge(this);
  return judge.Possible(prov, ctx);
}

std::optional<CqaCounterexample> WarmRepairSpace::Counterexample(
    const AnswerProvenance& prov, ExecContext* ctx) {
  WarmJudge judge(this);
  return judge.Counterexample(prov, ctx);
}

std::unique_ptr<AnswerJudge> WarmRepairSpace::NewJudge() {
  return std::make_unique<WarmJudge>(this);
}

void WarmRepairSpace::AddSliceStats(SliceStats* stats) const {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats->Add(slice_stats_);
  }
  if (slice_ != nullptr && slice_->slicer != nullptr) {
    stats->Add(slice_->slicer->stats());
    stats->cone_seconds += slice_->extract_seconds;
  }
  stats->scrub_runs += cnf_->scrub_runs();
  stats->clauses_reclaimed += cnf_->clauses_reclaimed();
}

bool WarmRepairSpace::TouchesUncappedLocked(
    const AnswerProvenance& prov) const {
  for (const std::vector<TupleId>& m : prov.monomials) {
    for (const TupleId& t : m) {
      int64_t v = cnf_->FindVar(t);
      if (v >= 0 && cnf_->CapSkipped(static_cast<uint32_t>(v))) return true;
    }
  }
  return false;
}

bool WarmRepairSpace::DeathClause(const std::vector<TupleId>& monomial,
                                  std::vector<Lit>* out) {
  bool touched = false;
  for (const TupleId& t : monomial) {
    int64_t v = cnf_->FindVar(t);
    if (v >= 0) {
      out->push_back(PosLit(static_cast<uint32_t>(v)));
      touched = true;
    }
  }
  return touched;
}

SolveStatus WarmRepairSpace::SolveUnder(ExecContext* ctx,
                                        const std::vector<Lit>& assumptions) {
  CdclSolver* solver = cnf_->solver();
  SolverOptions* opts = solver->mutable_options();
  double remaining = ctx->RemainingSeconds();
  opts->time_limit_seconds =
      std::isinf(remaining) ? 0 : std::max(remaining, 1e-9);
  opts->cancel =
      ctx->cancel_token() != nullptr ? ctx->cancel_token()->flag() : nullptr;
  return solver->Solve(assumptions);
}

CqaVerdict WarmRepairSpace::FallbackCertain(const AnswerProvenance& prov,
                                            ExecContext* ctx) {
  if (ctx->ShouldStop()) return {false, false};
  // ¬φ: every monomial loses a tuple, checked against the minimum
  // repairs selected by the entailment assumptions. A monomial with no
  // deletion variable at all makes the answer certain outright.
  std::vector<std::vector<Lit>> clauses;
  clauses.reserve(prov.monomials.size());
  for (const std::vector<TupleId>& m : prov.monomials) {
    std::vector<Lit> clause;
    if (!DeathClause(m, &clause)) return {true, true};
    clauses.push_back(std::move(clause));
  }
  std::lock_guard<std::mutex> lock(fallback_mu_);
  std::vector<Lit> assumptions =
      cnf_->entail_assumptions(min_ones_options_.max_totalizer_area);
  Span span("cqa.fallback");
  const bool uncapped = TouchesUncappedLocked(prov);
  span.SetArg("cap_skipped", uncapped ? 1 : 0);
  if (uncapped) return {false, false};
  CdclSolver* solver = cnf_->solver();
  const Lit selector = PosLit(solver->NewVar());
  for (std::vector<Lit>& clause : clauses) {
    clause.push_back(-selector);
    solver->AddClause(std::move(clause));
  }
  assumptions.push_back(selector);
  SolveStatus status = SolveUnder(ctx, assumptions);
  solver->AddClause({-selector});  // retire
  if (status == SolveStatus::kUnknown) {
    ctx->ShouldStop();  // latch the budget/cancel reason
    return {false, false};
  }
  return {status == SolveStatus::kUnsat, true};
}

CqaVerdict WarmRepairSpace::FallbackPossible(const AnswerProvenance& prov,
                                             ExecContext* ctx) {
  if (ctx->ShouldStop()) return {true, false};
  // φ: some monomial fully survives — Tseitin monomial variables under
  // a retired selector, mirroring the cold space.
  for (const std::vector<TupleId>& m : prov.monomials) {
    std::vector<Lit> death;
    if (!DeathClause(m, &death)) return {true, true};
  }
  std::lock_guard<std::mutex> lock(fallback_mu_);
  std::vector<Lit> assumptions =
      cnf_->entail_assumptions(min_ones_options_.max_totalizer_area);
  Span span("cqa.fallback");
  const bool uncapped = TouchesUncappedLocked(prov);
  span.SetArg("cap_skipped", uncapped ? 1 : 0);
  if (uncapped) return {true, false};
  CdclSolver* solver = cnf_->solver();
  const Lit selector = PosLit(solver->NewVar());
  std::vector<Lit> some_monomial{-selector};
  for (const std::vector<TupleId>& m : prov.monomials) {
    const Lit mono = PosLit(solver->NewVar());
    some_monomial.push_back(mono);
    for (const TupleId& t : m) {
      int64_t v = cnf_->FindVar(t);
      if (v >= 0) {
        solver->AddClause({-mono, NegLit(static_cast<uint32_t>(v))});
      }
    }
  }
  solver->AddClause(std::move(some_monomial));
  assumptions.push_back(selector);
  SolveStatus status = SolveUnder(ctx, assumptions);
  solver->AddClause({-selector});  // retire
  if (status == SolveStatus::kUnknown) {
    ctx->ShouldStop();
    return {true, false};
  }
  return {status == SolveStatus::kSat, true};
}

void WarmRepairSpace::EnsureScratch() {
  std::lock_guard<std::mutex> lock(scratch_mu_);
  if (extracted_) return;
  scratch_cnf_ = cnf_->ExtractActiveCnf(&scratch_tuples_);
  scratch_var_.reserve(scratch_tuples_.size());
  for (uint32_t i = 0; i < scratch_tuples_.size(); ++i) {
    scratch_var_[scratch_tuples_[i].Pack()] = i;
  }
  extracted_ = true;
}

std::optional<CqaCounterexample> WarmRepairSpace::FallbackCounterexample(
    const AnswerProvenance& prov, ExecContext* ctx) {
  // Min-Ones over stability ∧ ¬φ on a dense snapshot of the active
  // clauses — the smallest stabilizing set killing the answer, exactly
  // the cold space's counterexample query. The slice state, when
  // present, *is* that snapshot; otherwise extract one lazily.
  const Cnf* base = nullptr;
  const std::vector<TupleId>* tuples = nullptr;
  const std::unordered_map<uint64_t, uint32_t>* var_of = nullptr;
  if (slice_ != nullptr) {
    base = &slice_->cnf;
    tuples = &slice_->tuples;
    var_of = &slice_->var_of;
  } else {
    EnsureScratch();
    base = &scratch_cnf_;
    tuples = &scratch_tuples_;
    var_of = &scratch_var_;
  }
  Cnf cnf = *base;
  for (const std::vector<TupleId>& m : prov.monomials) {
    std::vector<Lit> clause;
    bool touched = false;
    for (const TupleId& t : m) {
      auto it = var_of->find(t.Pack());
      if (it != var_of->end()) {
        clause.push_back(PosLit(it->second));
        touched = true;
      }
    }
    if (!touched) return std::nullopt;  // unkillable
    cnf.AddClause(std::move(clause));
  }
  MinOnesOptions options = min_ones_options_;
  options.time_limit_seconds =
      std::min(options.time_limit_seconds, ctx->RemainingSeconds());
  if (ctx->cancel_token() != nullptr) {
    options.cancel = ctx->cancel_token()->flag();
  }
  MinOnesResult solved = MinOnesSat(cnf, options);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.AddSolver(solved.solver);
  }
  if (!solved.satisfiable) {
    ctx->ShouldStop();
    return std::nullopt;  // proven certain, or budget before any model
  }
  CqaCounterexample cex;
  for (uint32_t v = 0; v < tuples->size(); ++v) {
    if (v < solved.model.size() && solved.model[v]) {
      cex.deleted.push_back((*tuples)[v]);
    }
  }
  std::sort(cex.deleted.begin(), cex.deleted.end());
  cex.minimal = solved.optimal;
  return cex;
}

}  // namespace deltarepair
