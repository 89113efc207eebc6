// Query-scoped cone-of-influence slicing of the stability CNF.
//
// A single CQA answer is decided only by the part of Algorithm 1's
// deletion CNF reachable from its why-provenance monomials — but raw
// clause connectivity is useless as a cone boundary on join-heavy
// programs, whose CNF is one giant component. The ConeSlicer therefore
// first restricts the formula to the *minimum-repair space* with two
// min-model-preserving reductions, then slices at the granularity of
// what survives:
//
//  1. Boolean constraint propagation: a unit-forced literal holds in
//     every model, so its variable is pinned (forced-deleted when the
//     unit is positive, forced-kept when negative).
//  2. Pure-negative-literal elimination: a variable with no positive
//     occurrence among the remaining unsatisfied clauses can be flipped
//     false in any model without falsifying anything, strictly lowering
//     the deletion count — so every *minimum* model keeps it
//     (forced-kept). Rounds of 1+2 run to fixpoint.
//
// The residual clauses (open literals only) split into connected
// components; the minimum repairs factorize exactly as
//
//   {forced-deleted} x {forced-kept} x prod_i MinModels(C_i, k_i)
//
// where k_i is the provided global optimum restricted to component i
// (any slice of a global optimum is a component optimum). An answer's
// cone is the set of residual components its open monomial variables
// touch; certain/possible entailment and counterexample Min-Ones then
// run on a slice holding only the cone's clauses with per-component
// caps at k_i — everything outside the cone contributes a constant. On
// the measured join benches the fixpoint decides *every* variable, so
// most answers are settled by constant propagation with no solver call
// at all.
//
// Slices are memoized by component set and shared across answers (and
// across the worker threads of one query — GetSlice is thread-safe;
// everything else is immutable after construction).
#ifndef DELTAREPAIR_PROVENANCE_CONE_H_
#define DELTAREPAIR_PROVENANCE_CONE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "relation/tuple.h"
#include "sat/cnf.h"

namespace deltarepair {

/// Counters and phase timers of the slicing layer, reported through
/// CqaStats / --json / bench rows. The build-side fields (cone_*,
/// slice_seconds) are deterministic functions of the query, independent
/// of thread count; the solve-side fields count per-answer work.
struct SliceStats {
  double cone_seconds = 0;   // preprocessing + residual decomposition
  double slice_seconds = 0;  // sliced sub-CNF materialization
  uint64_t cone_vars = 0;     // summed over distinct cones built
  uint64_t cone_clauses = 0;  // summed over distinct cones built
  uint64_t sliced_solve_calls = 0;  // solves answered on a slice
  uint64_t slice_fallbacks = 0;     // counterexamples rerun on the full CNF
  void Add(const SliceStats& o);
};

class ConeSlicer {
 public:
  enum class VarState : uint8_t {
    kForcedKept = 0,     // false in every minimum repair
    kForcedDeleted = 1,  // true in every model (unit-forced)
    kOpen = 2,           // lives in a residual component
  };

  /// `cnf` is the stability CNF over deletion variables
  /// 0..cnf.num_vars()-1 and `min_model` a *proven* minimum model of it
  /// (the pure-literal reduction reads minimality). `content_ids` give
  /// each variable an identity that does not depend on its number —
  /// packed tuple ids — so component content keys compare across
  /// epochs and rebuilds.
  ConeSlicer(const Cnf& cnf, const std::vector<bool>& min_model,
             const std::vector<uint64_t>& content_ids);

  /// False when the model contradicts the propagation fixpoint
  /// (defensive: a consistent caller never trips it); verdicts are then
  /// undecided.
  bool valid() const { return valid_; }

  uint32_t num_vars() const { return num_vars_; }
  size_t num_components() const { return comps_.size(); }
  VarState state(uint32_t v) const { return state_[v]; }
  /// Residual component of an open variable (meaningless otherwise).
  uint32_t component_of(uint32_t v) const { return comp_of_[v]; }
  /// Renumbering-stable 128-bit content key of one residual component
  /// (hashes its reduced clauses over content ids). Equal keys across
  /// epochs mean an identical residual subproblem over identical
  /// tuples.
  std::pair<uint64_t, uint64_t> component_content(uint32_t c) const {
    return comps_[c].content;
  }
  uint32_t component_cost(uint32_t c) const { return comps_[c].cost; }
  /// Variables deleted in every model (composes counterexamples).
  const std::vector<uint32_t>& forced_deleted() const {
    return forced_deleted_;
  }

  /// One answer's provenance DNF reduced over the minimum-repair space.
  struct ReducedAnswer {
    /// Some monomial has no deletion variable at all: the answer
    /// survives every minimum repair (certain and possible), though a
    /// larger deletion set could still kill it.
    bool untouched = false;
    /// Some monomial's variables are all forced-kept: the answer
    /// survives every *minimum* repair (certain and possible), though a
    /// larger deletion set could still kill it.
    bool alive = false;
    /// Every monomial contained a forced-deleted variable: the answer
    /// survives no minimum repair.
    bool no_survivor = false;
    /// Surviving monomials, reduced to their open variables.
    std::vector<std::vector<uint32_t>> monomials;
    /// Sorted deduplicated union of the monomials' open variables.
    std::vector<uint32_t> seeds;
  };

  /// Reduces `monomials` via `var_of` (tuple -> deletion variable, < 0
  /// when the tuple has none). Exactly one of untouched / alive /
  /// no_survivor / !monomials.empty() describes the outcome.
  ReducedAnswer Reduce(
      const std::vector<std::vector<TupleId>>& monomials,
      const std::function<int64_t(TupleId)>& var_of) const;

  /// A materialized cone: the residual clauses of the touched
  /// components over a dense local variable space, plus the
  /// per-component cardinality caps (bound = k_i, possibly 0)
  /// restricting local models to minimum component repairs. Entailment
  /// enforces the caps; counterexample search deliberately omits them
  /// (the smallest killer may cost more than the cone's share of the
  /// optimum).
  struct Slice {
    Cnf cnf;  // over local vars [0, global_of_local.size())
    std::vector<uint32_t> global_of_local;
    std::unordered_map<uint32_t, uint32_t> local_of_global;
    struct Cap {
      std::vector<Lit> inputs;  // local positive literals
      uint32_t bound = 0;
    };
    std::vector<Cap> caps;
    uint32_t cone_cost = 0;  // sum of k_i over the cone's components
    std::vector<uint32_t> comps;  // sorted component indices
  };

  /// Memoized slice for the cone touched by `seed_open_vars` (all must
  /// be kOpen). Thread-safe.
  const Slice& GetSlice(const std::vector<uint32_t>& seed_open_vars);

  /// Composes a local cone model into a full deletion set: the forced-
  /// deleted variables, every non-cone component's cached minimum, and
  /// the local model mapped back to global variables. Returns global
  /// variable ids, unsorted.
  std::vector<uint32_t> ComposeKiller(
      const Slice& slice, const std::vector<bool>& local_model) const;

  /// Build-side counters (cone_seconds / slice_seconds / cone_vars /
  /// cone_clauses); deterministic across runs and thread counts.
  SliceStats stats() const;

 private:
  struct Component {
    std::vector<uint32_t> vars;        // sorted global ids
    std::vector<uint32_t> clauses;     // indices into residual_
    std::vector<uint32_t> true_vars;   // min_model restriction
    uint32_t cost = 0;                 // k_i
    std::pair<uint64_t, uint64_t> content{0, 0};
  };

  bool Preprocess(const Cnf& cnf, const std::vector<bool>& min_model);
  void BuildComponents(const std::vector<bool>& min_model,
                       const std::vector<uint64_t>& content_ids);

  bool valid_ = false;
  uint32_t num_vars_ = 0;
  std::vector<VarState> state_;
  std::vector<uint32_t> forced_deleted_;
  std::vector<std::vector<Lit>> residual_;  // reduced clauses, open lits
  std::vector<uint32_t> comp_of_;           // open var -> component index
  std::vector<Component> comps_;

  mutable std::mutex mu_;  // guards slices_, orphaned_ and build_stats_
  std::unordered_map<uint64_t, std::unique_ptr<Slice>> slices_;
  /// Slices built on a (vanishingly unlikely) memo-key collision: kept
  /// alive here, handed out unmemoized.
  std::vector<std::unique_ptr<Slice>> orphaned_;
  SliceStats build_stats_;
};

}  // namespace deltarepair

#endif  // DELTAREPAIR_PROVENANCE_CONE_H_
