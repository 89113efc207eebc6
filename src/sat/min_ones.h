// Min-Ones SAT (Sec. 5.1 / [31]): find a satisfying assignment with the
// minimum number of variables set to true. This replaces the paper's use
// of the Z3 optimizing solver in Algorithm 1: variables are candidate
// tuple deletions; minimizing true variables = minimizing the repair.
//
// The optimizer is an anytime bounded search over the incremental CDCL
// engine (solver.h):
//  1. normalize (dedupe + unit subsumption) into one working copy, then
//     preprocess it with the objective in mind, cascading three rules to
//     a fixpoint over shared CSR occurrence lists:
//       - unit propagation;
//       - pure-negative elimination: no positive occurrence left, so
//         false costs nothing;
//       - dominated-variable elimination: v is fixed false when another
//         free u has occ+(v) ⊆ occ+(u) and occ-(u) ⊆ occ-(v) over the
//         live clauses. Sound because v := 0, u := 1 satisfies every
//         clause and never adds a true variable, so some minimum model
//         has v false. A check of v scans the literals of its positive
//         clauses, then per surviving candidate one negative list no
//         longer than v's. A round checks each variable at most once,
//         so it costs O(sum of |c|^2 + w * L-), w the widest clause and
//         L- the negative literal count; on join CNFs candidates die
//         after a clause or two and a round is near-linear. Later
//         rounds re-check only variables whose clauses died or shrank,
//         and every round but the last fixes a variable.
//     On join-shaped deletion CNFs (a Cite's clauses nest in its
//     Publication's, an Author's in its Organization's) this decides
//     most variables — often all of them. The reduction keeps the
//     optimum, not the set of minimum models: callers may take k and the
//     one returned model, but anything that ranges over all minimum
//     repairs (CQA cone slicing and cardinality caps) must work on the
//     unreduced CNF,
//  2. decompose the residual into connected components (violation
//     clusters solve independently — the dominant win on
//     denial-constraint instances),
//  3. one greedy-cover-seeded global solve hands every component a warm
//     incumbent; components whose incumbent matches the disjoint
//     all-positive-clause lower bound are proven optimal on the spot,
//  4. each remaining component gets its own incremental solver. Its
//     lower bound is first raised by splitting on the busiest variable
//     and preprocessing each side (closes the star-shaped cores
//     dominance leaves behind); then a totalizer cardinality counter
//     (capped at the incumbent) is emitted once, and the optimum is
//     bisected via single-literal assumptions "sum <= t" — learned
//     clauses carry across bounds; UNSAT proves optimality. Components
//     too large for a totalizer fall back to blocking-clause descent
//     with a non-improvement cap.
//
// A work budget / deadline / cancel flag turns the solver into an anytime
// heuristic: when exhausted, the best incumbent is returned with
// optimal=false (the paper makes the same "any satisfying assignment is
// still a stabilizing set" observation).
#ifndef DELTAREPAIR_SAT_MIN_ONES_H_
#define DELTAREPAIR_SAT_MIN_ONES_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "sat/cnf.h"
#include "sat/solver.h"

namespace deltarepair {

struct MinOnesOptions {
  /// Engine work budget (decisions + propagations) across the whole
  /// instance (anytime cutoff).
  uint64_t max_assignments = 100'000'000;
  /// Wall-clock cutoff in seconds for the whole instance; each variable
  /// component is additionally guaranteed a small minimum slice so late
  /// components still get an incumbent.
  double time_limit_seconds = 5.0;
  /// Connected-component decomposition (ablation knob; always beneficial
  /// in practice, see bench_ablation).
  bool decompose_components = true;
  /// Clause learning (ablation knob; off = conflict-driven backjumping
  /// without a persistent clause database).
  bool enable_learning = true;
  /// Luby restarts (ablation knob).
  bool enable_restarts = true;
  /// Totalizer size estimate (component vars x incumbent) above which
  /// exact bound probing gives way to blocking-clause descent. Mostly a
  /// tuning/testing knob; 0 forces blocking descent everywhere. CQA's
  /// entailment caps obey the same bound: a wider cap is skipped and
  /// the verdicts that need it come back undecided.
  uint64_t max_totalizer_area = 100'000;
  /// Optional cooperative cancellation (observed alongside the wall-clock
  /// check). Treated like an exhausted budget: the incumbent (or the
  /// all-true fallback) is returned with optimal=false. If cancellation
  /// fires before *any* model exists for some component, the result is
  /// satisfiable=false with optimal=false — "unknown", not an unsat
  /// proof (satisfiable=false with optimal=true is proven).
  const std::atomic<bool>* cancel = nullptr;
};

struct MinOnesResult {
  bool satisfiable = false;
  /// True when the returned model is provably minimum.
  bool optimal = false;
  /// Model indexed by variable; valid when satisfiable.
  std::vector<bool> model;
  /// Number of true variables in the model.
  uint32_t num_true = 0;
  /// Decisions + propagations across all components (work measure).
  uint64_t engine_assignments = 0;
  /// Number of independent variable components left after
  /// preprocessing (0 when preprocessing decided every variable).
  uint32_t num_components = 0;
  /// Preprocessing counters: variables decided by unit propagation or
  /// pure-negative elimination, variables fixed false by dominance, and
  /// dominance rounds run.
  uint32_t fixed_by_propagation = 0;
  uint32_t fixed_by_dominance = 0;
  uint32_t preprocess_rounds = 0;
  /// What preprocessing left for search, over num_components components.
  uint32_t residual_vars = 0;
  uint32_t residual_clauses = 0;
  /// CDCL counters aggregated across components and bound iterations.
  SolverStats solver;
  /// What the pre-solve normalization dropped.
  Cnf::NormalizeStats normalize;
};

/// Solves min-ones over `cnf`.
MinOnesResult MinOnesSat(const Cnf& cnf, const MinOnesOptions& options = {});

}  // namespace deltarepair

#endif  // DELTAREPAIR_SAT_MIN_ONES_H_
