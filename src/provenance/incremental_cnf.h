// IncrementalDeletionCnf: the monotone-extensible successor of
// DeletionCnfBuilder for warm (delta-aware) execution. One long-lived
// CdclSolver carries the negated provenance formula of Algorithm 1
// across instance versions: new ground rules append clauses between
// Solve calls (learned clauses survive), and retracted ground rules are
// retired through per-rule selector literals — every rule clause is
// guarded as (C ∨ ¬sel), active rules contribute `sel` as an assumption,
// and retirement asserts the unit ¬sel. Deletion variables are never
// hard-poisoned: a variable whose clauses all retired is pinned false by
// *assumption*, so a delete-then-reinsert revives the same tuple
// variable instead of leaking a contradictory unit.
//
// Min-Ones warm-starts instead of re-solving: the active clause set is
// split into connected components, each component is content-hashed, and
// components untouched since the previous optimum reuse their cached
// per-component minimum (re-verified against the clauses); only dirty
// components are solved. The previous global optimum also drives phase
// saving on the long-lived solver, which serves the CQA entailment
// queries (per-component totalizer caps selected by assumptions).
#ifndef DELTAREPAIR_PROVENANCE_INCREMENTAL_CNF_H_
#define DELTAREPAIR_PROVENANCE_INCREMENTAL_CNF_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "datalog/ground_cache.h"
#include "sat/min_ones.h"
#include "sat/solver.h"

namespace deltarepair {

/// 128-bit content key of one CNF component (two independent 64-bit
/// hashes; cached results are additionally re-verified, so a collision
/// cannot corrupt correctness, only verdict caching).
using ComponentKey = std::pair<uint64_t, uint64_t>;

struct ComponentKeyHash {
  size_t operator()(const ComponentKey& k) const {
    return static_cast<size_t>(k.first ^ (k.second * 0x9e3779b97f4a7c15ULL));
  }
};

/// Aggregated result of a warm Min-Ones pass.
struct WarmMinOnesResult {
  bool satisfiable = false;
  bool optimal = false;
  uint64_t num_true = 0;
  /// Tuples deleted by the composed minimum repair (unsorted).
  std::vector<TupleId> deleted;
  size_t num_components = 0;
  size_t reused_components = 0;  // served from the component cache
  size_t solved_components = 0;  // handed to MinOnesSat
};

class IncrementalDeletionCnf {
 public:
  IncrementalDeletionCnf();

  /// Discards all state and encodes the active ground rules of `cache`
  /// onto a fresh long-lived solver (the cold path, and the garbage
  /// collection path once too many selectors have been retired).
  void Build(const Program& program, const GroundProgramCache& cache);

  /// Advances the encoding across a ground-program patch: appends a
  /// guarded clause per added (or revived) ground rule and retires the
  /// selector of every retracted one.
  void ApplyPatch(const Program& program, const GroundProgramCache& cache,
                  const GroundProgramCache::Patch& patch);

  /// Compacts the long-lived solver in place: physically drops every
  /// unit-retired selector clause *and* reclaims the retired selector /
  /// totalizer variables by renumbering the deletion variables densely
  /// (their order — and thus every dense extraction — is preserved) onto
  /// a fresh solver. Unlike Build this keeps all warm artifacts: rule
  /// clause encodings (retired ones stay revivable), the component
  /// result cache, the live component list and the saved phases are
  /// remapped rather than discarded, and the epoch does NOT advance —
  /// a solved-at-current-epoch state stays solved. Learned clauses are
  /// the only warm state given up.
  void Scrub();

  /// Warm Min-Ones over the current active clause set. Budget applies to
  /// the dirty components only (clean ones are cache hits). Optimal
  /// per-component results populate the cache; a truncated component is
  /// reported non-optimal and never cached.
  WarmMinOnesResult SolveMinOnes(const MinOnesOptions& options);

  /// The long-lived solver, for entailment-style queries layered on top
  /// (CQA). Callers must pass entail_assumptions() to every Solve.
  CdclSolver* solver() { return solver_.get(); }

  /// Assumptions restricting solver models to exactly the minimum
  /// repairs of the current version: active rule selectors, the
  /// per-component totalizer cap at the component minimum, and pinned-
  /// false literals for every unconstrained deletion variable. A cap
  /// wider than `max_totalizer_area` (component vars x (minimum + 1)) is
  /// skipped: that component's models are then a superset of its
  /// minimum repairs, and CapSkipped() reports its variables. Valid
  /// after the most recent SolveMinOnes (rebuilt lazily).
  const std::vector<Lit>& entail_assumptions(uint64_t max_totalizer_area);

  /// True when the latest entail_assumptions() left the component of
  /// deletion variable `var` uncapped.
  bool CapSkipped(uint32_t var) const;

  /// Deletion variable of tuple `t`, or -1 if the tuple never appeared
  /// in any (active or retired) ground rule.
  int64_t FindVar(TupleId t) const;

  /// Tuple of deletion variable `var` (meaningful only for vars returned
  /// by FindVar / listed in a component).
  TupleId TupleOfVar(uint32_t var) const { return tuple_of_[var]; }

  /// Dense snapshot of the active stability clauses, remapped onto a
  /// fresh variable space (one var per deletion variable, constrained or
  /// not), for scratch Min-Ones solves such as CQA counterexamples.
  /// `tuples` receives dense var -> tuple.
  Cnf ExtractActiveCnf(std::vector<TupleId>* tuples) const;

  /// Content key of the component the deletion variable currently
  /// belongs to, or (0,0) for an unconstrained variable (pinned false in
  /// every minimum repair). Valid after the most recent SolveMinOnes.
  ComponentKey ComponentKeyOf(uint32_t var) const;

  /// Bumped by Build and by every non-empty ApplyPatch; cheap staleness
  /// signal for layers caching per-answer state.
  uint64_t epoch() const { return epoch_; }

  /// True once SolveMinOnes has run at the current epoch (precondition
  /// for entail_assumptions / ComponentKeyOf).
  bool SolvedAtCurrentEpoch() const { return solved_epoch_ == epoch_; }

  /// Selectors retired since the last Build/Scrub (garbage pressure
  /// signal).
  size_t retired_selectors() const { return retired_selectors_; }
  size_t active_rules() const { return active_rules_; }

  /// Lifetime compaction counters (never reset — gauges for stats
  /// surfaces): Scrub passes run, and the problem clauses / solver
  /// variables they reclaimed.
  uint64_t scrub_runs() const { return scrub_runs_; }
  uint64_t clauses_reclaimed() const { return clauses_reclaimed_; }
  uint64_t vars_reclaimed() const { return vars_reclaimed_; }

 private:
  struct RuleClause {
    uint32_t sel = UINT32_MAX;  // UINT32_MAX: retired or tautology
    bool active = false;
    bool tautology = false;
    std::vector<Lit> lits;  // deletion literals only (guard excluded)
    // Content-hash contribution of `lits`, fixed at first encoding so a
    // warm solve folds component keys without re-hashing every clause.
    // Hashed over *tuple* content (packed ids + polarity), not solver
    // var ids, so keys — and every cache keyed by them — survive the
    // variable renumbering of Scrub and full rebuilds alike.
    uint64_t h1 = 0, h2 = 0;
  };

  uint32_t VarOf(TupleId t);
  // Encodes cache rule `id` (fresh or revived): builds lits, allocates a
  // selector and emits the guarded clause unless tautological.
  void Encode(const Program& program, const GroundProgramCache& cache,
              uint32_t id);
  void Retire(uint32_t id);

  std::unique_ptr<CdclSolver> solver_;
  std::unordered_map<uint64_t, uint32_t> var_of_;  // packed TupleId -> var
  std::vector<TupleId> tuple_of_;   // solver var -> tuple (invalid: not a
                                    // deletion var)
  std::vector<uint32_t> deletion_vars_;
  std::vector<RuleClause> clauses_;  // indexed by ground-cache rule id
  size_t active_rules_ = 0;
  size_t retired_selectors_ = 0;
  uint64_t epoch_ = 0;
  uint64_t scrub_runs_ = 0;
  uint64_t clauses_reclaimed_ = 0;
  uint64_t vars_reclaimed_ = 0;
  // Phase hints of the latest optimum, indexed by deletion-var *slot*
  // (position in deletion_vars_, which only appends) so Scrub can
  // re-seed the fresh solver without a phase getter.
  std::vector<bool> phase_by_slot_;

  // ---- populated by SolveMinOnes ----
  struct CachedComponent {
    uint64_t num_true = 0;
    std::vector<uint32_t> true_vars;  // solver var ids
  };
  std::unordered_map<ComponentKey, CachedComponent, ComponentKeyHash>
      component_cache_;
  // Totalizer outputs already laid down on the solver, keyed by
  // component content (reusable while the component is unchanged).
  std::unordered_map<ComponentKey, std::vector<Lit>, ComponentKeyHash>
      totalizer_cache_;
  std::unordered_map<uint32_t, ComponentKey> comp_key_of_var_;
  // Per-component data of the latest solve, for assumption building.
  struct LiveComponent {
    ComponentKey key;
    uint64_t num_true = 0;
    std::vector<uint32_t> vars;
  };
  std::vector<LiveComponent> live_components_;
  uint64_t solved_epoch_ = UINT64_MAX;
  uint64_t assumptions_epoch_ = UINT64_MAX;
  uint64_t assumptions_area_ = 0;  // max_totalizer_area they were built for
  std::vector<Lit> entail_assumptions_;
  std::unordered_set<ComponentKey, ComponentKeyHash> uncapped_;
};

}  // namespace deltarepair

#endif  // DELTAREPAIR_PROVENANCE_INCREMENTAL_CNF_H_
