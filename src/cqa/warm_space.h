// WarmRepairSpace: the symbolic independent repair space served from
// warm incremental state instead of a per-request rebuild.
//
// SymbolicRepairSpace re-grounds the hypothetical program, re-normalizes
// the stability CNF, re-runs Min-Ones and re-slices the cone
// decomposition on every CQA request. The warm space skips all of it: it
// borrows the engine's long-lived IncrementalDeletionCnf and, for large
// enough requests, a WarmSliceState the engine refreshes lazily per CNF
// epoch — a dense extraction of the active stability clauses plus a
// ConeSlicer over it.
// Per-answer verdicts run through SlicedJudge on the answer's memoized
// cone slice (fresh throwaway solvers — thread-safe, deterministic); the
// pre-slicing machinery on the borrowed long-lived solver
// (entail_assumptions() + per-answer selector-retired clause groups)
// stays as the soundness fallback, serialized on an internal mutex.
// Counterexample fallbacks run Min-Ones over private copies of the dense
// snapshot and need no serialization.
//
// Lifetime contract: the space borrows the long-lived solver and the
// slice state, so exactly one WarmRepairSpace may be live at a time and
// its owner must hold the engine lock for the space's whole lifetime
// (IncrementalEngine does).
#ifndef DELTAREPAIR_CQA_WARM_SPACE_H_
#define DELTAREPAIR_CQA_WARM_SPACE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cqa/repair_space.h"
#include "provenance/cone.h"
#include "provenance/incremental_cnf.h"

namespace deltarepair {

/// Warm cone-slicing state, owned by the engine and rebuilt lazily when
/// the CNF epoch moves: a dense snapshot of the active stability
/// clauses and the minimum-repair cone decomposition over it. Dense var
/// i corresponds to tuples[i]; the slicer's variable space is exactly
/// this dense space.
struct WarmSliceState {
  std::unique_ptr<ConeSlicer> slicer;
  std::vector<TupleId> tuples;                    // dense var -> tuple
  std::unordered_map<uint64_t, uint32_t> var_of;  // packed id -> dense var
  Cnf cnf;                                        // dense active clauses
  /// IncrementalDeletionCnf::epoch() this state reflects.
  uint64_t epoch = UINT64_MAX;
  /// Dense-extraction time (the cone build itself is timed by the
  /// slicer's own stats).
  double extract_seconds = 0;
};

/// Returns the engine's slice state, current for the CNF's epoch
/// (rebuilding it if stale). Must stay valid for the space's lifetime.
using WarmSliceProvider = std::function<WarmSliceState*()>;

class WarmRepairSpace : public RepairSpace {
 public:
  /// `cnf` must have run SolveMinOnes at its current epoch; `optimum` is
  /// that solve's result. `slice_provider` (nullable — verdicts then
  /// always use the full-CNF fallback) is invoked at most once, from
  /// PrepareJudges, and only when the request grounds at least
  /// SliceOptions::warm_min_answers answers — refreshing the cone
  /// decomposition for a handful of answers costs more than the warm
  /// solver's direct assumption solves. The space is inexact (all
  /// verdicts undecided) when the warm optimum is unsatisfiable or
  /// unproven.
  WarmRepairSpace(IncrementalDeletionCnf* cnf,
                  const WarmMinOnesResult& optimum,
                  const MinOnesOptions& min_ones_options,
                  WarmSliceProvider slice_provider,
                  const SliceOptions& slice_options);

  /// Builds/refreshes the shared cone decomposition when this request
  /// is big enough to amortize it (see ctor comment).
  void PrepareJudges(size_t num_answers) override;

  /// Direct calls delegate to a temporary judge.
  CqaVerdict Certain(const AnswerProvenance& prov,
                     ExecContext* ctx) override;
  CqaVerdict Possible(const AnswerProvenance& prov,
                      ExecContext* ctx) override;
  std::optional<CqaCounterexample> Counterexample(
      const AnswerProvenance& prov, ExecContext* ctx) override;

  std::unique_ptr<AnswerJudge> NewJudge() override;

  // AddStats inherits the default (scratch counters only): the borrowed
  // solver's counters are cumulative across the engine's lifetime and
  // would multi-count if folded into every request; the engine reports
  // them once through its own stats instead.

  /// Slice-layer counters: this request's judge work, plus the warm
  /// build-side and scrub gauges (cumulative over the engine lifetime —
  /// the cone decomposition and solver compactions are amortized across
  /// requests, so per-request deltas would be misleading zeros).
  void AddSliceStats(SliceStats* stats) const override;

 private:
  friend class WarmJudge;

  /// Full-CNF verdicts on the borrowed long-lived solver
  /// (selector-retired clause groups under entail_assumptions());
  /// serialize internally on fallback_mu_.
  CqaVerdict FallbackCertain(const AnswerProvenance& prov, ExecContext* ctx);
  CqaVerdict FallbackPossible(const AnswerProvenance& prov, ExecContext* ctx);
  /// Full-CNF counterexample: Min-Ones over a private copy of the dense
  /// stability snapshot ∧ ¬φ — no shared solver, runs concurrently.
  std::optional<CqaCounterexample> FallbackCounterexample(
      const AnswerProvenance& prov, ExecContext* ctx);

  /// True when `prov` touches a component the entailment assumptions
  /// left uncapped (IncrementalDeletionCnf::CapSkipped): the borrowed
  /// solver would range over a superset of the minimum repairs there,
  /// so the verdict stays undecided. Requires fallback_mu_, after
  /// entail_assumptions().
  bool TouchesUncappedLocked(const AnswerProvenance& prov) const;
  /// Positive deletion literals of the monomial's tuples that have a
  /// deletion variable. False when none has one (the answer then
  /// survives every repair outright). Variables pinned false by the
  /// entailment assumptions may appear — their literals are simply dead
  /// under those assumptions, which is exactly the intended semantics.
  bool DeathClause(const std::vector<TupleId>& monomial,
                   std::vector<Lit>* out);
  /// One assumption solve on the borrowed solver. Requires fallback_mu_.
  SolveStatus SolveUnder(ExecContext* ctx,
                         const std::vector<Lit>& assumptions);
  /// Dense snapshot for counterexample fallbacks when no slice state
  /// was provided (thread-safe lazy extraction).
  void EnsureScratch();

  IncrementalDeletionCnf* cnf_;
  MinOnesOptions min_ones_options_;
  WarmSliceProvider slice_provider_;
  WarmSliceState* slice_ = nullptr;  // set by PrepareJudges
  SliceOptions slice_options_;

  std::mutex fallback_mu_;  // serializes borrowed-solver use

  std::mutex scratch_mu_;  // guards the lazy extraction below
  bool extracted_ = false;
  Cnf scratch_cnf_;
  std::vector<TupleId> scratch_tuples_;                 // dense var -> tuple
  std::unordered_map<uint64_t, uint32_t> scratch_var_;  // packed -> dense

  mutable std::mutex stats_mu_;  // judges flush counters concurrently
  SliceStats slice_stats_;
};

}  // namespace deltarepair

#endif  // DELTAREPAIR_CQA_WARM_SPACE_H_
