// Per-answer entailment over a StabilityModel: certain/possible verdicts
// decided on the answer's query-scoped cone slice (provenance/cone.h),
// and minimal counterexamples composed from a cone-local Min-Ones.
//
// A SlicedJudge is the per-worker face of one SymbolicRepairSpace: every
// solve runs on a fresh throwaway solver over the answer's memoized
// slice, so judges on different threads share only the slicer's memo
// table, and the verdicts (and their work counters) are deterministic
// regardless of fan-out. Each judge accumulates its own SliceStats /
// RepairStats and folds them into its space on destruction.
//
// Certain and possible are always decided on the slice; cones have no
// width limit. Such a verdict comes back undecided only when a budget or
// cancellation trips mid-solve, when a component cap of the slice is
// wider than MinOnesOptions::max_totalizer_area (its "cqa.slice_solve"
// span then carries cap_skipped=1), or — defensively — when the slicer
// is invalid.
//
// A counterexample reruns on the model's full CNF (Min-Ones over
// stability ∧ ¬φ) when the slice cannot compose one. Each rerun counts
// in SliceStats::slice_fallbacks, and its "cqa.cex_fallback" span
// carries the CexFallbackReason. In every case the smallest killer may
// delete variables the slice pinned by minimality-preserving
// preprocessing, or tuples with no variable at all, so the rerun first
// extends the model's reachable closure (repair/stability_model.h) from
// the answer's tuples over the space's view: the smallest stabilizing
// set killing the answer lies in that closure.
#ifndef DELTAREPAIR_CQA_ENTAILMENT_H_
#define DELTAREPAIR_CQA_ENTAILMENT_H_

#include <optional>
#include <vector>

#include "cqa/repair_space.h"
#include "provenance/cone.h"
#include "repair/stability_model.h"

namespace deltarepair {

/// Why a counterexample reran on the full CNF (the "reason" argument of
/// the "cqa.cex_fallback" span).
enum class CexFallbackReason : uint64_t {
  /// The answer survives every minimum repair (a derivation whose tuples
  /// are all forced kept or have no variable); any killer is larger.
  kAlive = 1,
  /// The cone's residual space holds no killer.
  kNoConeKiller = 2,
  /// The cone-local optimum exceeds the cone's share of the optimum.
  kOverShare = 3,
};

class SlicedJudge : public AnswerJudge {
 public:
  /// `space` must outlive the judge.
  explicit SlicedJudge(SymbolicRepairSpace* space);
  ~SlicedJudge() override;

  CqaVerdict Certain(const AnswerProvenance& prov, ExecContext* ctx) override;
  CqaVerdict Possible(const AnswerProvenance& prov,
                      ExecContext* ctx) override;
  std::optional<CqaCounterexample> Counterexample(
      const AnswerProvenance& prov, ExecContext* ctx) override;

 private:
  /// The answer's monomials over the model's deletion variables.
  ConeSlicer::ReducedAnswer Reduce(const AnswerProvenance& prov) const;
  /// Fresh solver primed with the slice CNF and its cardinality caps
  /// (models = the cone's minimum component repairs). False, with the
  /// solver untouched, when a cap exceeds max_totalizer_area: the
  /// verdict is then undecided.
  bool LoadCappedSlice(const ConeSlicer::Slice& slice, ExecContext* ctx,
                       CdclSolver* solver);
  /// Min-Ones over the model's full CNF, extended from the answer's
  /// tuples, ∧ ¬φ: the smallest stabilizing set killing the answer.
  std::optional<CqaCounterexample> FullCounterexample(
      const AnswerProvenance& prov, ExecContext* ctx);
  /// Min-Ones options bounded by the remaining ctx budget.
  MinOnesOptions BudgetedMinOnes(ExecContext* ctx) const;

  SymbolicRepairSpace* space_;
  /// nullptr when the space is inexact or the slicer invalid: every
  /// verdict is then undecided.
  const StabilityModel* model_ = nullptr;
  MinOnesOptions min_ones_;
  SliceStats slice_stats_;
  RepairStats repair_stats_;
};

}  // namespace deltarepair

#endif  // DELTAREPAIR_CQA_ENTAILMENT_H_
