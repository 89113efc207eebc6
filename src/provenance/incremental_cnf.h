// IncrementalDeletionCnf: the monotone-extensible successor of
// DeletionCnfBuilder for warm (delta-aware) execution. It carries the
// negated provenance formula of Algorithm 1 across instance versions as
// one clause per ground rule of a GroundProgramCache: new ground rules
// add clauses, and retracted ones are marked inactive (their encoding
// is kept, so a delete-then-reinsert revives the same clause). Deletion
// variables are dense tuple slots that only ever append — a tuple keeps
// its variable for the object's lifetime — so every snapshot of the
// active clauses is already over a dense variable space.
//
// Min-Ones warm-starts instead of re-solving: the active clause set is
// split into connected components, each component is content-hashed, and
// components untouched since the previous optimum reuse their cached
// per-component minimum (re-verified against the clauses); only dirty
// components are solved.
#ifndef DELTAREPAIR_PROVENANCE_INCREMENTAL_CNF_H_
#define DELTAREPAIR_PROVENANCE_INCREMENTAL_CNF_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "datalog/ground_cache.h"
#include "sat/min_ones.h"

namespace deltarepair {

/// 128-bit content key of one CNF component (two independent 64-bit
/// hashes; cached results are additionally re-verified, so a collision
/// costs a cache miss, never a wrong optimum).
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
  /// Discards all state and encodes the active ground rules of `cache`
  /// (the cold path).
  void Build(const Program& program, const GroundProgramCache& cache);

  /// Advances the encoding across a ground-program patch: encodes every
  /// added (or revived) ground rule and deactivates every retracted one.
  void ApplyPatch(const Program& program, const GroundProgramCache& cache,
                  const GroundProgramCache::Patch& patch);

  /// Warm Min-Ones over the current active clause set. Budget applies to
  /// the dirty components only (clean ones are cache hits). Optimal
  /// per-component results populate the cache; a truncated component is
  /// reported non-optimal and never cached.
  WarmMinOnesResult SolveMinOnes(const MinOnesOptions& options);

  /// Deletion variable of tuple `t`, or -1 if the tuple never appeared
  /// in any (active or retired) ground rule.
  int64_t FindVar(TupleId t) const;

  /// Number of deletion variables (they only ever append).
  uint32_t num_vars() const { return static_cast<uint32_t>(tuple_of_.size()); }

  /// The active stability clauses over variables [0, num_vars()), one
  /// per deletion variable, constrained or not. `tuples` receives
  /// variable -> tuple.
  Cnf ExtractActiveCnf(std::vector<TupleId>* tuples) const;

  /// Bumped by Build and by every non-empty ApplyPatch; cheap staleness
  /// signal for layers caching per-answer state.
  uint64_t epoch() const { return epoch_; }

  /// True once SolveMinOnes has run at the current epoch.
  bool SolvedAtCurrentEpoch() const { return solved_epoch_ == epoch_; }

 private:
  struct RuleClause {
    bool active = false;
    bool tautology = false;
    std::vector<Lit> lits;  // deletion literals
    // Content-hash contribution of `lits`, fixed at first encoding so a
    // warm solve folds component keys without re-hashing every clause.
    // Hashed over *tuple* content (packed ids + polarity), so keys — and
    // every cache keyed by them — survive full rebuilds.
    uint64_t h1 = 0, h2 = 0;
  };

  uint32_t VarOf(TupleId t);
  // Encodes cache rule `id` (fresh or revived) and marks it active.
  void Encode(const Program& program, const GroundProgramCache& cache,
              uint32_t id);
  void Retire(uint32_t id);

  static constexpr uint32_t kNoVar = UINT32_MAX;
  std::vector<std::vector<uint32_t>> var_of_;  // [relation][row] -> var
  std::vector<TupleId> tuple_of_;              // var -> tuple
  std::vector<RuleClause> clauses_;  // indexed by ground-cache rule id
  size_t active_rules_ = 0;
  uint64_t epoch_ = 0;

  // ---- populated by SolveMinOnes ----
  struct CachedComponent {
    uint64_t num_true = 0;
    std::vector<uint32_t> true_vars;
  };
  std::unordered_map<ComponentKey, CachedComponent, ComponentKeyHash>
      component_cache_;
  uint64_t solved_epoch_ = UINT64_MAX;
};

}  // namespace deltarepair

#endif  // DELTAREPAIR_PROVENANCE_INCREMENTAL_CNF_H_
