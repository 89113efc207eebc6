// An incremental CDCL engine (the successor of the counter-based DPLL
// core). The architecture is the standard MiniSat lineage, specialized
// for the repair workload:
//  * two-watched-literal propagation with blocker caching,
//  * 1-UIP conflict analysis, learned clauses with activity-driven
//    deletion (ReduceDb),
//  * VSIDS-style decision heuristic over an indexed max-heap, with phase
//    saving (initial polarity false — the Min-Ones objective prefers few
//    true variables, so the first models found are already cheap),
//  * Luby restarts,
//  * incremental solving under assumptions: Solve(assumptions) places the
//    assumptions as pseudo-decisions, so learned clauses stay sound and
//    are kept across calls. Clauses may also be added between calls
//    (AddClause), which is how the Min-Ones loop tightens its bound.
//
// Learning and restarts are individually switchable (SolverOptions) for
// the ablation bench; with learning off the engine still backjumps via
// 1-UIP analysis but aggressively drops the clause database, which is the
// honest "no learning" baseline. Everything else (decay factors, restart
// unit, phase saving) is a fixed constant in solver.cc: every Min-Ones,
// entailment and warm solve runs this one configuration.
#ifndef DELTAREPAIR_SAT_SOLVER_H_
#define DELTAREPAIR_SAT_SOLVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "sat/cnf.h"

namespace deltarepair {

/// Outcome of one Solve() call. kUnknown means a budget, deadline, or
/// cancellation tripped before an answer was proven.
enum class SolveStatus : uint8_t { kSat, kUnsat, kUnknown };

const char* SolveStatusName(SolveStatus s);

/// Engine knobs. Learning/restarts are the ablation switches; the budget
/// fields make the engine anytime (kUnknown when exhausted).
struct SolverOptions {
  bool learning = true;
  bool restarts = true;
  /// Cumulative (decisions + propagated literals) cap across the lifetime
  /// of the solver; 0 = unlimited. Checked per decision and per conflict.
  uint64_t max_work = 0;
  /// Wall-clock limit for one Solve() call; <= 0 = unlimited. Checked
  /// every few hundred conflicts/decisions.
  double time_limit_seconds = 0;
  /// Optional cooperative cancellation (checked with the clock).
  const std::atomic<bool>* cancel = nullptr;
};

/// Work counters, cumulative across Solve() calls.
struct SolverStats {
  uint64_t solve_calls = 0;
  uint64_t decisions = 0;
  uint64_t propagations = 0;  // literals propagated
  uint64_t conflicts = 0;
  uint64_t restarts = 0;
  uint64_t learned_clauses = 0;
  uint64_t learned_literals = 0;
  uint64_t deleted_clauses = 0;

  /// Decisions + propagations: the work measure budgets are written in
  /// (the moral successor of the old engine's num_assignments).
  uint64_t work() const { return decisions + propagations; }

  void Add(const SolverStats& o);
};

/// Incremental CDCL solver.
class CdclSolver {
 public:
  explicit CdclSolver(const SolverOptions& options = {});
  ~CdclSolver();
  CdclSolver(const CdclSolver&) = delete;
  CdclSolver& operator=(const CdclSolver&) = delete;

  /// Grows the variable universe to at least `n` variables.
  void EnsureVars(uint32_t n);
  /// Adds one fresh variable and returns it.
  uint32_t NewVar();
  uint32_t num_vars() const { return static_cast<uint32_t>(assign_.size()); }
  /// Problem clauses currently held (learned clauses excluded) — the
  /// footprint signal scrub/compaction passes account against.
  size_t num_problem_clauses() const { return clauses_.size(); }

  /// Adds a clause (legal between Solve() calls — the solver is always at
  /// decision level 0 outside Solve). Duplicate literals are dropped and
  /// tautologies ignored. Returns false when the clause makes the formula
  /// unsatisfiable at the top level (the solver stays usable; every later
  /// Solve() returns kUnsat).
  bool AddClause(std::vector<Lit> lits);
  /// Adds every clause of `cnf` and grows the universe to cnf.num_vars().
  void AddCnf(const Cnf& cnf);

  /// Solves under the given assumptions. Learned clauses persist across
  /// calls; assumptions hold only for this call. kUnsat with assumptions
  /// means "unsatisfiable under these assumptions" (the formula itself
  /// may be satisfiable). The universe grows to cover every assumption
  /// variable.
  SolveStatus Solve(const std::vector<Lit>& assumptions = {});

  /// Model indexed by variable; valid after Solve() returned kSat.
  const std::vector<bool>& model() const { return model_; }

  /// Sets the decision-polarity hint for `var` (what phase saving will
  /// start from). Callers seed this with problem knowledge — Min-Ones
  /// seeds a greedy cover so the first model is already cheap.
  void SetPhase(uint32_t var, bool phase);

  /// Seeds the decision priority of `var`. Must not decrease an already
  /// seeded value (the order heap only sifts up on this path).
  void SeedActivity(uint32_t var, double activity);

  /// Value of `var` fixed by top-level propagation (present in every
  /// model/conflict proof): -1 when not fixed, else 0/1.
  int8_t FixedValue(uint32_t var) const;

  /// False once the formula is unsatisfiable at the top level.
  bool ok() const { return ok_; }

  const SolverStats& stats() const { return stats_; }
  SolverOptions* mutable_options() { return &options_; }

 private:
  struct Clause {
    double activity = 0;
    bool learned = false;
    bool dead = false;  // marked for removal, reaped in the same pass
    std::vector<Lit> lits;
  };
  struct Watcher {
    Clause* clause;
    Lit blocker;  // some other literal of the clause; if true, skip
  };

  // Literal index for watch lists: 2*var for the positive literal,
  // 2*var+1 for the negative one.
  static uint32_t WatchIndex(Lit l) {
    return LitVar(l) * 2 + (LitSign(l) ? 0 : 1);
  }
  static Lit Negate(Lit l) { return -l; }

  /// -1 unassigned, 0 false, 1 true.
  int8_t LitValue(Lit l) const {
    int8_t a = assign_[LitVar(l)];
    if (a < 0) return -1;
    return static_cast<int8_t>(a == (LitSign(l) ? 1 : 0));
  }

  int DecisionLevel() const { return static_cast<int>(trail_lim_.size()); }
  void NewDecisionLevel() { trail_lim_.push_back(trail_.size()); }

  void AttachClause(Clause* c);
  void DetachClause(Clause* c);
  void UncheckedEnqueue(Lit p, Clause* reason);
  Clause* Propagate();
  void Analyze(Clause* conflict, std::vector<Lit>* learnt, int* bt_level);
  void CancelUntil(int level);
  Lit PickBranchLit();
  void ReduceDb();
  void VarBumpActivity(uint32_t v);
  void ClauseBumpActivity(Clause* c);
  bool Locked(const Clause* c) const;
  void RemoveClause(Clause* c);
  SolveStatus Search(const std::vector<Lit>& assumptions);
  bool BudgetExhausted();
  bool Interrupted() const {
    return options_.cancel != nullptr &&
           options_.cancel->load(std::memory_order_relaxed);
  }

  // Indexed max-heap over var activity (decision order).
  void HeapInsert(uint32_t v);
  void HeapUpdate(uint32_t v);
  uint32_t HeapPop();
  void HeapSiftUp(size_t i);
  void HeapSiftDown(size_t i);
  bool HeapInside(uint32_t v) const {
    return heap_pos_[v] >= 0;
  }

  SolverOptions options_;
  SolverStats stats_;
  bool ok_ = true;

  std::vector<std::unique_ptr<Clause>> clauses_;  // problem clauses
  std::vector<std::unique_ptr<Clause>> learnts_;
  std::vector<std::vector<Watcher>> watches_;  // per literal index

  std::vector<int8_t> assign_;   // per var: -1 / 0 / 1
  std::vector<int> level_;       // per var: decision level of assignment
  std::vector<Clause*> reason_;  // per var: forcing clause (null = decision)
  std::vector<int8_t> saved_phase_;  // per var: last value (phase saving)
  std::vector<Lit> trail_;
  std::vector<size_t> trail_lim_;  // trail size at each decision level
  size_t qhead_ = 0;               // propagation queue head into trail_

  std::vector<double> activity_;  // per var (VSIDS)
  double var_inc_ = 1.0;
  double clause_inc_ = 1.0;
  std::vector<uint32_t> heap_;   // binary max-heap of vars
  std::vector<int> heap_pos_;    // per var: index in heap_, -1 if absent

  std::vector<int8_t> seen_;     // per var scratch for Analyze
  double max_learnts_ = 0;       // learned-clause DB size target

  std::vector<bool> model_;
};

/// Result of a plain satisfiability call.
struct SatResult {
  bool satisfiable = false;
  /// Model indexed by variable (valid when satisfiable).
  std::vector<bool> model;
  uint64_t decisions = 0;
};

/// One-shot satisfiability over `cnf` via the CDCL engine.
SatResult SolveSat(const Cnf& cnf);

}  // namespace deltarepair

#endif  // DELTAREPAIR_SAT_SOLVER_H_
