// IncrementalEngine: warm delta-aware execution state for repair and CQA
// serving. Where RepairEngine re-grounds, re-encodes and re-solves every
// request from scratch, this engine keeps one warm copy of every layer's
// state across instance versions and advances it by realized deltas
// (Database::DeltaSince):
//
//   relation layer   a warm InstanceView carried forward by ApplyDelta;
//   grounder layer   a GroundProgramCache (Algorithm 1's hypothetical
//                    ground program) advanced per delta; each change
//                    starts a new ground epoch;
//   repair layer     a FixpointCache replaying the end-semantics
//                    fixpoint by delete-rederive, per-semantics result
//                    reuse while the ground epoch is unchanged, and for
//                    independent the cold pipeline's Process Prov and
//                    Solve phases (repair/stability_model.h) run once per
//                    ground epoch over the cached ground program;
//   CQA layer        that epoch's StabilityModel, built at its first
//                    independent CQA and served by SymbolicRepairSpace,
//                    plus a per-answer verdict cache keyed by the
//                    answer's provenance cone (residual-component content
//                    keys) — only answers whose cone intersects the delta
//                    are re-validated.
//
// Soundness anchor: the hypothetical ground program is a non-recursive
// join over the live set, so the cache maintains it exactly; every
// semantics' rule firings bind only live rows, so a delta that leaves
// the ground program unchanged certifies that all repair outcomes and CQA
// verdicts are unchanged.
//
// Cold fallbacks (correctness first): the warm state is rebuilt from
// scratch when the delta fraction exceeds
// IncrementalEngineOptions::cold_fallback_fraction, when the warm
// version has aged out of the database's bounded delta history, or when
// any maintenance step was interrupted. Budget-truncated warm work never
// poisons a cache — truncated caches are invalidated, and truncated
// requests are re-served by the cold engine.
//
// Thread model: every public entry serializes on one internal mutex (the
// warm state is a single shared artifact — that is the point). Callers
// must still prevent concurrent *database* mutation, e.g. by holding the
// store's reader lock across a call (lock order: store, then engine).
#ifndef DELTAREPAIR_SERVICE_INCREMENTAL_ENGINE_H_
#define DELTAREPAIR_SERVICE_INCREMENTAL_ENGINE_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "cqa/cqa.h"
#include "datalog/ground_cache.h"
#include "repair/fixpoint.h"
#include "repair/repair_engine.h"
#include "repair/stability_model.h"

namespace deltarepair {

struct IncrementalEngineOptions {
  /// Realized-delta fraction (delta tuples / live tuples) above which a
  /// sync abandons incremental maintenance and cold-rebuilds: past this
  /// point re-grounding is cheaper than patching. <= 0 disables the
  /// fallback (always incremental).
  double cold_fallback_fraction = 0.25;
};

class IncrementalEngine {
 public:
  /// Resolves `program` against `db` (the cold engine's contract) and
  /// builds the initial warm state eagerly, so the first request is
  /// already served warm. `db` must outlive the engine.
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
    uint64_t cold_rebuilds = 0;      // full re-ground fallbacks
    uint64_t empty_patches = 0;      // deltas that left the ground
                                     // program untouched
    uint64_t incremental_repairs = 0;   // served from warm state
    uint64_t reused_repair_results = 0; // unchanged-epoch result reuse
    uint64_t cold_repairs = 0;          // delegated to the cold engine
    uint64_t warm_cqa = 0;
    uint64_t cold_cqa = 0;
    uint64_t verdict_cache_hits = 0;
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
  void ColdRebuildLocked();
  /// Runs Algorithm 1's Process Prov and Solve phases over ground_cache_
  /// unless the current ground epoch already has a proven optimum. The
  /// run's phase times and solver counters land in `stats`. False when
  /// the pass was truncated or its optimum is unproven; nothing is kept
  /// then, and the next request retries with its own budget.
  bool EnsureWarmSolveLocked(const MinOnesOptions& options, ExecContext* ctx,
                             RepairStats* stats);
  /// End semantics from warm state: cached fixpoint replay, or a full
  /// fixpoint run (on the warm view) that seeds the cache.
  RepairOutcome EndRepairLocked(const RepairRequest& request);
  /// Stage/step: epoch-cached result reuse, else a cold run on the warm
  /// view that fills the cache.
  RepairOutcome DeterministicRepairLocked(const RepairRequest& request,
                                          SemanticsKind kind);
  RepairOutcome IndependentRepairLocked(const RepairRequest& request);

  /// 128-bit signature of one answer's provenance cone under the
  /// current warm_model_ (which must have a valid slicer): monomial
  /// tuple ids interleaved with each deletion variable's forced state
  /// and — for open variables — the content key of its *residual*
  /// component, which is far smaller than a raw CNF component on
  /// join-heavy programs, so fewer deltas invalidate cached verdicts.
  /// Equal signatures across versions imply equal certain/possible
  /// verdicts.
  std::pair<uint64_t, uint64_t> AnswerSignatureLocked(
      const AnswerProvenance& prov) const;

  Database* db_ = nullptr;
  IncrementalEngineOptions options_;
  std::unique_ptr<RepairEngine> cold_;

  mutable std::mutex mu_;
  // Warm state (all guarded by mu_). Invariant between calls: view_
  // mirrors version warm_version_ with *empty* delta relations.
  InstanceView view_;
  uint64_t warm_version_ = 0;
  GroundProgramCache ground_cache_;
  FixpointCache fixpoint_cache_;
  /// Construction-effort counters of the run that seeded
  /// fixpoint_cache_, reported by warm end-semantics CQA so its space
  /// stats match what the cold builder would emit.
  RepairStats fixpoint_stats_;
  /// Bumped on every ground-program change (a delta that changed it, or
  /// a rebuild); per-semantics cached results are valid while it is
  /// unchanged.
  uint64_t ground_epoch_ = 0;
  /// Algorithm 1 over ground epoch solved_epoch_: the builder holding the
  /// stability CNF and its variable maps, the proven minimum, and the
  /// stats of the run (every independent repair of the epoch reports its
  /// cnf_* shape counters).
  std::shared_ptr<DeletionCnfBuilder> warm_builder_;
  MinOnesResult warm_solved_;
  RepairStats warm_solve_stats_;
  uint64_t solved_epoch_ = UINT64_MAX;
  /// The independent space of epoch solved_epoch_, built from
  /// warm_builder_ at the epoch's first independent CQA (it takes the
  /// builder's clauses and shares its lookup); serves warm CQA and the
  /// verdict-cache signatures. Reset by every new solve.
  std::shared_ptr<const StabilityModel> warm_model_;
  RepairResult stage_result_, step_result_;
  uint64_t stage_epoch_ = UINT64_MAX, step_epoch_ = UINT64_MAX;

  struct VerdictEntry {
    uint64_t sig1 = 0, sig2 = 0;
    CqaVerdict certain, possible;
  };
  /// (query text \x1f answer tuple) -> cached verdicts + signature.
  std::unordered_map<std::string, VerdictEntry> verdict_cache_;

  Stats stats_;
};

}  // namespace deltarepair

#endif  // DELTAREPAIR_SERVICE_INCREMENTAL_ENGINE_H_
