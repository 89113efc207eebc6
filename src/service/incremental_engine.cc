#include "service/incremental_engine.h"

#include <algorithm>

#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relation/database.h"
#include "repair/stability.h"

namespace deltarepair {

namespace {

std::vector<TupleId> SortedCopy(const std::vector<TupleId>& ids) {
  std::vector<TupleId> out = ids;
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

StatusOr<std::unique_ptr<IncrementalEngine>> IncrementalEngine::Create(
    Database* db, Program program, IncrementalEngineOptions options) {
  StatusOr<RepairEngine> cold = RepairEngine::Create(db, std::move(program));
  if (!cold.ok()) return cold.status();
  std::unique_ptr<IncrementalEngine> engine(
      new IncrementalEngine(db, options));
  engine->cold_ =
      std::make_unique<RepairEngine>(std::move(cold.value()));
  std::lock_guard<std::mutex> lock(engine->mu_);
  engine->ColdRebuildLocked();
  // The initial snapshot counts as initialization, not a fallback.
  engine->stats_.cold_rebuilds = 0;
  return StatusOr<std::unique_ptr<IncrementalEngine>>(std::move(engine));
}

IncrementalEngine::Stats IncrementalEngine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

uint64_t IncrementalEngine::warm_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return warm_version_;
}

void IncrementalEngine::ColdRebuildLocked() {
  Span span("warm.cold_rebuild");
  static Counter* rebuilds = MetricsRegistry::Global().GetCounter(
      "drepair_warm_cold_rebuilds_total",
      "Warm engine full rebuilds (delta history exhausted or too large)");
  rebuilds->Inc();
  ++stats_.cold_rebuilds;
  view_ = db_->SnapshotView();
  warm_version_ = db_->version();
  fixpoint_cache_.Clear();
  // A version read before the rebuild need not name the same instance
  // (a different database object), so no cached result survives.
  solved_version_ = UINT64_MAX;
  stage_version_ = UINT64_MAX;
  step_version_ = UINT64_MAX;
}

void IncrementalEngine::SyncLocked() {
  Span span("warm.sync");
  static Counter* syncs = MetricsRegistry::Global().GetCounter(
      "drepair_warm_syncs_total", "Warm engine delta syncs");
  syncs->Inc();
  ++stats_.syncs;
  const uint64_t current = db_->version();
  if (current == warm_version_) {
    ++stats_.noop_syncs;
    return;
  }
  Delta delta;
  if (!db_->DeltaSince(warm_version_, &delta)) {
    // Aged out of the bounded history (or a version from the future —
    // a different database object); only a rebuild is sound.
    ColdRebuildLocked();
    return;
  }
  if (options_.cold_fallback_fraction > 0) {
    const double live = static_cast<double>(db_->TotalLive());
    if (static_cast<double>(delta.size()) >
        options_.cold_fallback_fraction * live) {
      ColdRebuildLocked();
      return;
    }
  }

  view_.ApplyDelta(delta);
  ++stats_.incremental_syncs;
  warm_version_ = current;

  if (fixpoint_cache_.valid) {
    RepairStats fstats;
    ExecContext fctx;
    if (RunSemiNaiveFixpoint(&view_, program(), delta, &fixpoint_cache_,
                             &fstats, &fctx)) {
      // Restore the warm view's empty-delta invariant (the derived
      // tuples are live; UnmarkDeleted just drops their delta bit).
      for (const TupleId& t : fixpoint_cache_.derived) {
        view_.UnmarkDeleted(t);
      }
    }
    // On interruption the callee invalidated the cache; the next end
    // request reseeds it.
  }
}

bool IncrementalEngine::EnsureWarmSolveLocked(const MinOnesOptions& options,
                                              ExecContext* ctx,
                                              RepairStats* stats) {
  if (solved_version_ == warm_version_) return true;
  // The cold pipeline, on the view of this version.
  auto builder = std::make_shared<DeletionCnfBuilder>();
  MinOnesResult solved;
  if (!SolveStability(&view_, program(), options, ctx, builder.get(), &solved,
                      stats) ||
      !solved.satisfiable || !solved.optimal) {
    return false;
  }
  warm_builder_ = std::move(builder);
  warm_solved_ = std::move(solved);
  warm_solve_stats_ = *stats;
  warm_model_.reset();
  solved_version_ = warm_version_;
  return true;
}

RepairOutcome IncrementalEngine::ExecuteRepair(const RepairRequest& request) {
  Span span("warm.repair");
  std::lock_guard<std::mutex> lock(mu_);
  SyncLocked();
  StatusOr<const Semantics*> semantics =
      SemanticsRegistry::Global().Get(request.semantics);
  if (!semantics.ok()) {
    RepairOutcome out;
    out.status = semantics.status();
    out.termination = TerminationReason::kInvalidProgram;
    return out;
  }
  RepairOutcome out;
  switch (semantics.value()->kind()) {
    case SemanticsKind::kEnd:
      out = EndRepairLocked(request);
      break;
    case SemanticsKind::kStage:
      out = DeterministicRepairLocked(request, SemanticsKind::kStage);
      break;
    case SemanticsKind::kStep:
      out = DeterministicRepairLocked(request, SemanticsKind::kStep);
      break;
    case SemanticsKind::kIndependent:
      out = IndependentRepairLocked(request);
      break;
  }
  if (out.ok() && request.options.verify_after_run &&
      !out.verified.has_value()) {
    out.verified = IsStabilizingSet(&view_, program(), out.result.deleted);
  }
  return out;
}

RepairOutcome IncrementalEngine::EndRepairLocked(
    const RepairRequest& request) {
  WallTimer total;
  if (fixpoint_cache_.valid) {
    RepairOutcome out;
    out.result.semantics = SemanticsKind::kEnd;
    out.result.deleted = SortedCopy(fixpoint_cache_.derived);
    // Report the seeding run's effort counters so a cached reply is
    // indistinguishable from the run that built the cache.
    out.result.stats = fixpoint_stats_;
    out.result.stats.total_seconds = total.ElapsedSeconds();
    ++stats_.incremental_repairs;
    ++stats_.reused_repair_results;
    return out;
  }
  // Seed the cache with a full fixpoint on the warm view.
  ExecContext ctx(request.options);
  RepairStats stats;
  const bool complete = RunSemiNaiveFixpoint(
      &view_, program(), /*delete_between_rounds=*/false,
      request.options.record_provenance, &stats, &ctx, &fixpoint_cache_);
  std::vector<TupleId> derived = view_.DeltaTupleIds();
  for (const TupleId& t : derived) view_.UnmarkDeleted(t);
  if (!complete) {
    // The cold path owns the anytime contract (trivial stabilizing
    // completion under budget exhaustion).
    ++stats_.cold_repairs;
    return cold_->ExecuteOnSnapshot(request);
  }
  fixpoint_stats_ = stats;
  RepairOutcome out;
  out.result.semantics = SemanticsKind::kEnd;
  out.result.deleted = std::move(derived);
  std::sort(out.result.deleted.begin(), out.result.deleted.end());
  out.result.stats = stats;
  out.result.stats.total_seconds = total.ElapsedSeconds();
  ++stats_.incremental_repairs;
  return out;
}

RepairOutcome IncrementalEngine::DeterministicRepairLocked(
    const RepairRequest& request, SemanticsKind kind) {
  RepairResult& cached =
      kind == SemanticsKind::kStage ? stage_result_ : step_result_;
  uint64_t& cached_version =
      kind == SemanticsKind::kStage ? stage_version_ : step_version_;
  // Seeded runs may shuffle (the step runner's kArbitrary order), so
  // only the deterministic default participates in result reuse.
  const bool cacheable = request.options.seed == 0;
  if (cacheable && cached_version == warm_version_) {
    RepairOutcome out;
    out.result = cached;
    ++stats_.incremental_repairs;
    ++stats_.reused_repair_results;
    return out;
  }
  InstanceView::State snapshot = view_.SaveState();
  ExecContext ctx(request.options);
  RepairOutcome out;
  out.result = SemanticsRegistry::Global().GetKind(kind).Run(
      &view_, program(), request.options, &ctx);
  view_.RestoreState(snapshot);
  out.termination = ctx.reason();
  if (cacheable && !ctx.stopped() && out.result.stats.optimal) {
    cached = out.result;
    cached_version = warm_version_;
  }
  ++stats_.cold_repairs;
  return out;
}

RepairOutcome IncrementalEngine::IndependentRepairLocked(
    const RepairRequest& request) {
  WallTimer total;
  ExecContext ctx(request.options);
  RepairOutcome out;
  RepairStats& stats = out.result.stats;
  // Phase times and solver counters cover this request's own work: a
  // request that reuses the version's solve reports none.
  if (!EnsureWarmSolveLocked(request.options.independent.min_ones, &ctx,
                             &stats)) {
    ++stats_.cold_repairs;
    return cold_->ExecuteOnSnapshot(request);
  }
  out.result.semantics = SemanticsKind::kIndependent;
  for (uint32_t v = 0; v < warm_builder_->num_vars(); ++v) {
    if (warm_solved_.model[v]) {
      out.result.deleted.push_back(warm_builder_->TupleOfVar(v));
    }
  }
  CanonicalizeResult(&out.result);
  stats.cnf_vars = warm_solve_stats_.cnf_vars;
  stats.cnf_clauses = warm_solve_stats_.cnf_clauses;
  stats.cnf_dup_clauses = warm_solve_stats_.cnf_dup_clauses;
  stats.cnf_subsumed_clauses = warm_solve_stats_.cnf_subsumed_clauses;
  stats.optimal = true;
  stats.total_seconds = total.ElapsedSeconds();
  ++stats_.incremental_repairs;
  return out;
}

CqaResult IncrementalEngine::ExecuteCqa(const CqaRequest& request) {
  Span span("warm.cqa");
  std::lock_guard<std::mutex> lock(mu_);
  SyncLocked();
  StatusOr<const Semantics*> semantics =
      SemanticsRegistry::Global().Get(request.semantics);
  if (!semantics.ok()) {
    // Let the cold path produce the canonical error result.
    ++stats_.cold_cqa;
    return AnswerQueryOnSnapshot(cold_.get(), request);
  }

  switch (semantics.value()->kind()) {
    case SemanticsKind::kEnd: {
      if (!fixpoint_cache_.valid) {
        ExecContext ctx(request.options);
        RepairStats stats;
        const bool complete = RunSemiNaiveFixpoint(
            &view_, program(), /*delete_between_rounds=*/false,
            /*prov=*/nullptr, &stats, &ctx, &fixpoint_cache_);
        for (const TupleId& t : view_.DeltaTupleIds()) {
          view_.UnmarkDeleted(t);
        }
        if (!complete) break;  // cold fallback
        fixpoint_stats_ = stats;
      }
      // The end repair is deterministic: the space is the singleton
      // {derived}, same shape — and the same construction-effort
      // counters — the cold builder produces.
      EnumeratedRepairSpace space({SortedCopy(fixpoint_cache_.derived)},
                                  /*exact=*/true, fixpoint_stats_);
      ++stats_.warm_cqa;
      return AnswerQueryWithSpace(&view_, request, &space);
    }

    case SemanticsKind::kStage: {
      if (stage_version_ != warm_version_) {
        InstanceView::State snapshot = view_.SaveState();
        ExecContext ctx(request.options);
        RepairResult result =
            SemanticsRegistry::Global()
                .GetKind(SemanticsKind::kStage)
                .Run(&view_, program(), request.options, &ctx);
        view_.RestoreState(snapshot);
        if (ctx.stopped() || !result.stats.optimal) break;  // cold fallback
        stage_result_ = std::move(result);
        stage_version_ = warm_version_;
      }
      EnumeratedRepairSpace space({stage_result_.deleted}, /*exact=*/true,
                                  stage_result_.stats);
      ++stats_.warm_cqa;
      return AnswerQueryWithSpace(&view_, request, &space);
    }

    case SemanticsKind::kStep:
      // The step repair *space* is the set of all minimal activation
      // outcomes, not the engine's one cached greedy result — nothing
      // warm describes it, so step CQA always runs cold.
      break;

    case SemanticsKind::kIndependent: {
      ExecContext ctx(request.options);
      RepairStats solve_stats;
      if (!EnsureWarmSolveLocked(request.options.independent.min_ones, &ctx,
                                 &solve_stats)) {
        break;  // cold fallback
      }
      // Built at the version's first independent CQA, so a repair-only
      // version builds no ConeSlicer.
      if (warm_model_ == nullptr) {
        warm_model_ = MakeStabilityModel(warm_builder_, warm_solved_.model);
      }
      SymbolicRepairSpace space(warm_model_, &view_, program(),
                                request.options.independent.min_ones);
      ++stats_.warm_cqa;
      return AnswerQueryWithSpace(&view_, request, &space);
    }
  }

  ++stats_.cold_cqa;
  return AnswerQueryOnSnapshot(cold_.get(), request);
}

}  // namespace deltarepair
