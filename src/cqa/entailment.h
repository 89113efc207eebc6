// Sliced per-answer entailment: certain/possible verdicts and minimal
// counterexamples decided on a query-scoped cone of the stability CNF
// (provenance/cone.h) instead of the full formula.
//
// A SlicedJudge is the per-worker face of one ConeSlicer: every verdict
// runs on a fresh throwaway solver over the answer's memoized slice, so
// judges on different threads never share solver state and the verdicts
// (and their work counters) are deterministic regardless of fan-out.
// Each judge accumulates its own SliceStats / RepairStats; the owner
// folds them after the workers join.
//
// Soundness gates — the judge *declines* (returns nullopt / kFallback)
// rather than guess, and the caller reruns on the full CNF:
//  * the cone exceeds the configured width cap (slicing would not pay);
//  * a counterexample must search outside the minimum-repair space: the
//    answer is alive in every minimum repair but might die under a
//    larger deletion set, or the cone-local Min-Ones optimum exceeds
//    the cone's share of the global optimum (both mean the smallest
//    killer may delete pinned variables the slice fixed by
//    minimality-preserving preprocessing).
#ifndef DELTAREPAIR_CQA_ENTAILMENT_H_
#define DELTAREPAIR_CQA_ENTAILMENT_H_

#include <optional>
#include <vector>

#include "cqa/repair_space.h"
#include "provenance/cone.h"
#include "repair/repair_options.h"
#include "sat/min_ones.h"

namespace deltarepair {

class SlicedJudge {
 public:
  /// `slicer` must outlive the judge and may be shared across judges.
  SlicedJudge(ConeSlicer* slicer, const SliceOptions& options,
              const MinOnesOptions& min_ones);

  /// False when slicing is disabled or the slicer is invalid; every
  /// query must then go to the full CNF (no fallback counted).
  bool enabled() const { return enabled_; }

  /// Verdicts over the minimum-repair space, or nullopt when the cone
  /// exceeds the width cap (counted as a fallback). A returned verdict
  /// with decided=false means a budget/cancel tripped mid-solve or a
  /// cardinality cap exceeded max_totalizer_area — final, not a
  /// fallback (the full CNF is bounded by the same budget and area).
  std::optional<CqaVerdict> Certain(const ConeSlicer::ReducedAnswer& red,
                                    ExecContext* ctx);
  std::optional<CqaVerdict> Possible(const ConeSlicer::ReducedAnswer& red,
                                     ExecContext* ctx);

  struct CexOutcome {
    enum class Kind {
      kNone,      // no counterexample exists / none found in budget
      kFound,     // deleted_vars is a stabilizing killer
      kFallback,  // soundness gate: rerun on the full CNF
    };
    Kind kind = Kind::kNone;
    /// Global deletion variables of the killer, unsorted (kFound).
    std::vector<uint32_t> deleted_vars;
    /// Whether the killer is provably the smallest overall.
    bool minimal = false;
  };
  CexOutcome Counterexample(const ConeSlicer::ReducedAnswer& red,
                            ExecContext* ctx);

  /// Solve-side counters of this judge (sliced_solve_calls,
  /// slice_fallbacks); the owner folds them post-join.
  const SliceStats& slice_stats() const { return slice_stats_; }
  /// Solver work of this judge's throwaway solvers.
  const RepairStats& repair_stats() const { return repair_stats_; }

 private:
  /// Memoized slice for the answer's cone, or nullptr past the width
  /// cap (fallback counted here).
  const ConeSlicer::Slice* SliceFor(const ConeSlicer::ReducedAnswer& red);
  /// Fresh solver primed with the slice CNF and its cardinality caps
  /// (models = the cone's minimum component repairs). False, with the
  /// solver untouched, when a cap exceeds max_totalizer_area: the
  /// verdict is then undecided.
  bool LoadCappedSlice(const ConeSlicer::Slice& slice, ExecContext* ctx,
                       CdclSolver* solver);

  ConeSlicer* slicer_;
  bool enabled_ = false;
  uint32_t max_cone_vars_ = 0;
  MinOnesOptions min_ones_;
  SliceStats slice_stats_;
  RepairStats repair_stats_;
};

}  // namespace deltarepair

#endif  // DELTAREPAIR_CQA_ENTAILMENT_H_
