// Shared types of the repair core: the four semantics of the paper
// (Defs. 3.3, 3.5, 3.7, 3.10), repair results and the phase-timing
// breakdown reported in Figure 8.
#ifndef DELTAREPAIR_REPAIR_SEMANTICS_H_
#define DELTAREPAIR_REPAIR_SEMANTICS_H_

#include <string>
#include <vector>

#include "datalog/ast.h"
#include "relation/database.h"

namespace deltarepair {

struct SolverStats;

enum class SemanticsKind {
  kEnd,          // Def. 3.10 — datalog baseline, deletions applied at fixpoint
  kStage,        // Def. 3.7  — semi-naive rounds, deterministic
  kStep,         // Def. 3.5  — one activation at a time, minimized (Alg. 2)
  kIndependent,  // Def. 3.3  — minimum stabilizing set (Alg. 1)
};

const char* SemanticsName(SemanticsKind k);

/// Wall-clock phase breakdown (Figure 8's Eval / Process Prov /
/// Solve / Traverse) plus work counters.
struct RepairStats {
  double eval_seconds = 0;          // rule evaluation + provenance storage
  double process_prov_seconds = 0;  // formula/graph construction
  double solve_seconds = 0;         // Min-Ones SAT (Algorithm 1)
  double traverse_seconds = 0;      // graph traversal (Algorithm 2)
  double total_seconds = 0;

  // Ground assignments enumerated. For the independent semantics: the
  // reachable assignments Algorithm 1's Eval grounds (ReachableEval in
  // repair/stability_model.h), each counted once; 0 when the warm
  // engine reuses the solve of its database version.
  uint64_t assignments = 0;
  uint64_t iterations = 0;    // fixpoint rounds / stages
  uint64_t cnf_vars = 0;      // Algorithm 1 formula size
  uint64_t cnf_clauses = 0;
  uint64_t cnf_dup_clauses = 0;       // dropped by pre-solve normalization
  uint64_t cnf_subsumed_clauses = 0;  // unit-subsumed, also dropped
  uint64_t graph_nodes = 0;   // Algorithm 2 provenance-graph size
  uint64_t graph_layers = 0;
  // CDCL solver counters (Algorithm 1's Min-Ones loop).
  uint64_t sat_conflicts = 0;
  uint64_t sat_learned_clauses = 0;
  uint64_t sat_restarts = 0;
  uint64_t sat_solve_calls = 0;
  // Always 0 since inprocessing was removed; perfbench/ still reads it.
  uint64_t sat_inprocess_runs = 0;
  // Always 0 since inprocessing was removed; perfbench/ still reads it.
  uint64_t sat_eliminated_vars = 0;
  /// For the heuristic algorithms: whether the result is provably
  /// minimum (Alg. 1 with an exhausted budget reports false).
  bool optimal = true;

  /// Accumulates `other` into this: times and counters add, `optimal`
  /// ANDs. Used by aggregating consumers (CQA folds the repair-space
  /// construction and every entailment solve into one report).
  void Add(const RepairStats& other);
  /// Folds one engine's counters into the sat_* fields.
  void AddSolver(const SolverStats& solver);
};

/// The outcome of running one semantics: the set S of deleted (non-delta)
/// tuples such that (D \ S) ∪ ∆(S) is stable, plus statistics.
struct RepairResult {
  SemanticsKind semantics = SemanticsKind::kEnd;
  std::vector<TupleId> deleted;  // sorted by TupleId
  RepairStats stats;

  size_t size() const { return deleted.size(); }
  bool Contains(TupleId t) const;

  /// True if every tuple of this result is in `other` (set containment —
  /// the ⊆ relations of Table 3 / Proposition 3.20).
  bool SubsetOf(const RepairResult& other) const;
  /// Set equality.
  bool SameSet(const RepairResult& other) const;

  /// Per-relation deletion counts rendered as "Author:3 Writes:5".
  std::string BreakdownByRelation(const Database& db) const;
};

/// Canonicalizes (sorts) the deleted list; call after filling it.
void CanonicalizeResult(RepairResult* result);

}  // namespace deltarepair

#endif  // DELTAREPAIR_REPAIR_SEMANTICS_H_
