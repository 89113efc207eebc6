#include "repair/semantics.h"

#include <algorithm>
#include <map>

#include "common/string_util.h"
#include "sat/solver.h"

namespace deltarepair {

const char* SemanticsName(SemanticsKind k) {
  switch (k) {
    case SemanticsKind::kEnd:
      return "end";
    case SemanticsKind::kStage:
      return "stage";
    case SemanticsKind::kStep:
      return "step";
    case SemanticsKind::kIndependent:
      return "independent";
  }
  return "?";
}

void RepairStats::Add(const RepairStats& other) {
  eval_seconds += other.eval_seconds;
  process_prov_seconds += other.process_prov_seconds;
  solve_seconds += other.solve_seconds;
  traverse_seconds += other.traverse_seconds;
  total_seconds += other.total_seconds;
  assignments += other.assignments;
  iterations += other.iterations;
  cnf_vars += other.cnf_vars;
  cnf_clauses += other.cnf_clauses;
  cnf_dup_clauses += other.cnf_dup_clauses;
  cnf_subsumed_clauses += other.cnf_subsumed_clauses;
  graph_nodes += other.graph_nodes;
  graph_layers += other.graph_layers;
  sat_conflicts += other.sat_conflicts;
  sat_learned_clauses += other.sat_learned_clauses;
  sat_restarts += other.sat_restarts;
  sat_solve_calls += other.sat_solve_calls;
  optimal = optimal && other.optimal;
}

void RepairStats::AddSolver(const SolverStats& solver) {
  sat_conflicts += solver.conflicts;
  sat_learned_clauses += solver.learned_clauses;
  sat_restarts += solver.restarts;
  sat_solve_calls += solver.solve_calls;
}

bool RepairResult::Contains(TupleId t) const {
  return std::binary_search(deleted.begin(), deleted.end(), t);
}

bool RepairResult::SubsetOf(const RepairResult& other) const {
  return std::includes(other.deleted.begin(), other.deleted.end(),
                       deleted.begin(), deleted.end());
}

bool RepairResult::SameSet(const RepairResult& other) const {
  return deleted == other.deleted;
}

std::string RepairResult::BreakdownByRelation(const Database& db) const {
  std::map<uint32_t, size_t> counts;
  for (const TupleId& t : deleted) ++counts[t.relation];
  std::string out;
  for (const auto& [rel, n] : counts) {
    if (!out.empty()) out += " ";
    out += db.relation(rel).name();
    out += ":";
    out += std::to_string(n);
  }
  return out;
}

void CanonicalizeResult(RepairResult* result) {
  std::sort(result->deleted.begin(), result->deleted.end());
  result->deleted.erase(
      std::unique(result->deleted.begin(), result->deleted.end()),
      result->deleted.end());
}

}  // namespace deltarepair
