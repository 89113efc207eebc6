// IncrementalEngine: warm delta-aware execution state for repair and CQA
// serving. Where RepairEngine re-snapshots and re-runs every request from
// scratch, this engine keeps warm state across requests, each piece valid
// for exactly one database version, and advances its view by realized
// deltas (Database::DeltaSince):
//
//   relation layer   a warm InstanceView carried forward by ApplyDelta;
//                    it mirrors the current version with empty delta
//                    relations;
//   repair layer     a FixpointCache replaying the end-semantics
//                    fixpoint, maintained by delete-rederive at every
//                    realized delta; the stage and step results of the
//                    version; and for independent the cold Algorithm 1
//                    pipeline (SolveStability, repair/stability_model.h)
//                    run once per version on the warm view;
//   CQA layer        that version's StabilityModel, built at its first
//                    independent CQA and served by SymbolicRepairSpace.
//
// Each cached result is keyed by the version it was computed at, and
// the warm view mirrors that version, so a warm result is the cold
// computation on the same instance.
//
// Cold fallbacks (correctness first): the warm state is rebuilt from
// scratch when the delta fraction exceeds
// IncrementalEngineOptions::cold_fallback_fraction, or when the warm
// version has aged out of the database's bounded delta history. A
// rebuild snapshots the view and drops every cached result. Budget-
// truncated warm work never poisons a cache — truncated caches are
// invalidated, and truncated requests are re-served by the cold engine.
//
// Thread model: every public entry serializes on one internal mutex (the
// warm state is a single shared artifact — that is the point). Callers
// must still prevent concurrent *database* mutation, e.g. by holding the
// store's reader lock across a call (lock order: store, then engine).
#ifndef DELTAREPAIR_SERVICE_INCREMENTAL_ENGINE_H_
#define DELTAREPAIR_SERVICE_INCREMENTAL_ENGINE_H_

#include <memory>
#include <mutex>

#include "cqa/cqa.h"
#include "repair/fixpoint.h"
#include "repair/repair_engine.h"
#include "repair/stability_model.h"

namespace deltarepair {

struct IncrementalEngineOptions {
  /// Realized-delta fraction (delta tuples / live tuples) above which a
  /// sync abandons incremental maintenance and cold-rebuilds: past this
  /// point re-running the end fixpoint is cheaper than maintaining it by
  /// delete-rederive. <= 0 disables the fallback (always incremental).
  double cold_fallback_fraction = 0.25;
};

class IncrementalEngine {
 public:
  /// Resolves `program` against `db` (the cold engine's contract) and
  /// snapshots the warm view; every result is computed at its first
  /// request. `db` must outlive the engine.
  static StatusOr<std::unique_ptr<IncrementalEngine>> Create(
      Database* db, Program program, IncrementalEngineOptions options = {});

  /// Executes one repair request against the current instance version,
  /// syncing the warm state first. Equivalent to the cold engine's
  /// read-only path (`apply` is ignored — route applying requests to the
  /// cold engine under an exclusive lock).
  RepairOutcome ExecuteRepair(const RepairRequest& request);

  /// Executes one CQA request against the current instance version,
  /// syncing the warm state first.
  CqaResult ExecuteCqa(const CqaRequest& request);

  struct Stats {
    uint64_t syncs = 0;
    uint64_t noop_syncs = 0;         // warm state already current
    uint64_t incremental_syncs = 0;  // advanced by delta maintenance
    uint64_t cold_rebuilds = 0;      // view re-snapshot fallbacks
    uint64_t incremental_repairs = 0;   // served from warm state
    uint64_t reused_repair_results = 0; // same-version result reuse
    uint64_t cold_repairs = 0;          // delegated to the cold engine
    uint64_t warm_cqa = 0;
    uint64_t cold_cqa = 0;
    /// Always 0 since the verdict cache was removed; perfbench/ still
    /// reads it.
    uint64_t verdict_cache_hits = 0;
    /// Always 0 since the verdict cache was removed; perfbench/ still
    /// reads it.
    uint64_t verdict_cache_misses = 0;
    /// Always 0 since the warm Min-Ones component cache was removed;
    /// perfbench/ still reads it.
    uint64_t minones_components_reused = 0;
    /// Always 0 since the warm Min-Ones component cache was removed;
    /// perfbench/ still reads it.
    uint64_t minones_components_solved = 0;
    /// Always 0 since the long-lived solver was removed; perfbench/
    /// still reads it.
    uint64_t scrub_runs = 0;
  };
  Stats stats() const;

  /// Instance version the warm state currently reflects.
  uint64_t warm_version() const;

  const Program& program() const { return cold_->program(); }

  /// The cold (from-scratch) engine, for applying repairs and as the
  /// correctness fallback.
  RepairEngine* cold_engine() { return cold_.get(); }

 private:
  IncrementalEngine(Database* db, IncrementalEngineOptions options)
      : db_(db), options_(options) {}

  /// Brings the warm state to db_->version(). All *Locked members
  /// require mu_ held.
  void SyncLocked();
  /// Snapshots the view at the current version and drops every cached
  /// result.
  void ColdRebuildLocked();
  /// Runs Algorithm 1 (SolveStability) on the warm view unless the
  /// current version already has a proven optimum. The run's phase times
  /// and solver counters land in `stats`. False when the run was
  /// truncated or its optimum is unproven; nothing is kept then, and the
  /// next request retries with its own budget.
  bool EnsureWarmSolveLocked(const MinOnesOptions& options, ExecContext* ctx,
                             RepairStats* stats);
  /// End semantics from warm state: cached fixpoint replay, or a full
  /// fixpoint run (on the warm view) that seeds the cache.
  RepairOutcome EndRepairLocked(const RepairRequest& request);
  /// Stage/step: the version's cached result, else a cold run on the warm
  /// view that fills the cache.
  RepairOutcome DeterministicRepairLocked(const RepairRequest& request,
                                          SemanticsKind kind);
  RepairOutcome IndependentRepairLocked(const RepairRequest& request);

  Database* db_ = nullptr;
  IncrementalEngineOptions options_;
  std::unique_ptr<RepairEngine> cold_;

  mutable std::mutex mu_;
  // Warm state (all guarded by mu_). Invariant between calls: view_
  // mirrors version warm_version_ with *empty* delta relations. Every
  // *_version_ names the version its result was computed at (UINT64_MAX:
  // none); a result is served only at that version.
  InstanceView view_;
  uint64_t warm_version_ = 0;
  FixpointCache fixpoint_cache_;
  /// Construction-effort counters of the run that seeded
  /// fixpoint_cache_, reported by warm end-semantics CQA so its space
  /// stats match what the cold builder would emit.
  RepairStats fixpoint_stats_;
  /// Algorithm 1 at version solved_version_: the builder holding the
  /// stability CNF and its variable maps, the proven minimum, and the
  /// stats of the run (every independent repair of the version reports
  /// its cnf_* shape counters).
  std::shared_ptr<DeletionCnfBuilder> warm_builder_;
  MinOnesResult warm_solved_;
  RepairStats warm_solve_stats_;
  uint64_t solved_version_ = UINT64_MAX;
  /// The independent space of version solved_version_, built from
  /// warm_builder_ at the version's first independent CQA (it takes the
  /// builder's clauses and shares its lookup). Reset by every new solve.
  std::shared_ptr<const StabilityModel> warm_model_;
  RepairResult stage_result_, step_result_;
  uint64_t stage_version_ = UINT64_MAX, step_version_ = UINT64_MAX;

  Stats stats_;
};

}  // namespace deltarepair

#endif  // DELTAREPAIR_SERVICE_INCREMENTAL_ENGINE_H_
