#include "obs/stats_bridge.h"

#include "cqa/cqa.h"
#include "obs/metrics.h"
#include "repair/semantics.h"

namespace deltarepair {

void AddRepairStatsToMetrics(const RepairStats& stats) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  static Counter* assignments = reg.GetCounter(
      "drepair_engine_assignments_total",
      "Ground assignments enumerated by the grounder");
  static Counter* rounds = reg.GetCounter(
      "drepair_engine_fixpoint_rounds_total",
      "Semi-naive fixpoint rounds / provenance stages");
  static Counter* cnf_clauses =
      reg.GetCounter("drepair_engine_cnf_clauses_total",
                     "Stability CNF clauses constructed");
  static Counter* conflicts = reg.GetCounter(
      "drepair_sat_conflicts_total", "CDCL conflicts across all solves");
  static Counter* learned =
      reg.GetCounter("drepair_sat_learned_clauses_total",
                     "CDCL learned clauses across all solves");
  static Counter* restarts = reg.GetCounter("drepair_sat_restarts_total",
                                            "CDCL restarts across all solves");
  static Counter* solves = reg.GetCounter("drepair_sat_solve_calls_total",
                                          "Incremental SAT solve calls");
  static Histogram* eval = reg.GetHistogram(
      "drepair_repair_phase_seconds", "Repair phase wall time by phase",
      "phase", "eval");
  static Histogram* prov = reg.GetHistogram(
      "drepair_repair_phase_seconds", "Repair phase wall time by phase",
      "phase", "process_prov");
  static Histogram* solve = reg.GetHistogram(
      "drepair_repair_phase_seconds", "Repair phase wall time by phase",
      "phase", "solve");
  static Histogram* traverse = reg.GetHistogram(
      "drepair_repair_phase_seconds", "Repair phase wall time by phase",
      "phase", "traverse");

  assignments->Inc(stats.assignments);
  rounds->Inc(stats.iterations);
  cnf_clauses->Inc(stats.cnf_clauses);
  conflicts->Inc(stats.sat_conflicts);
  learned->Inc(stats.sat_learned_clauses);
  restarts->Inc(stats.sat_restarts);
  solves->Inc(stats.sat_solve_calls);
  if (stats.eval_seconds > 0) eval->Observe(stats.eval_seconds);
  if (stats.process_prov_seconds > 0) {
    prov->Observe(stats.process_prov_seconds);
  }
  if (stats.solve_seconds > 0) solve->Observe(stats.solve_seconds);
  if (stats.traverse_seconds > 0) traverse->Observe(stats.traverse_seconds);
}

void AddCqaStatsToMetrics(const CqaStats& stats) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  static Counter* answers = reg.GetCounter("drepair_cqa_answers_total",
                                           "CQA answers evaluated");
  static Counter* certain = reg.GetCounter("drepair_cqa_certain_total",
                                           "Answers proven certain");
  static Counter* possible = reg.GetCounter("drepair_cqa_possible_total",
                                            "Answers proven possible");
  static Counter* undecided = reg.GetCounter(
      "drepair_cqa_undecided_total", "Answers left undecided in budget");
  static Counter* monomials = reg.GetCounter(
      "drepair_cqa_monomials_total", "Why-provenance monomials grounded");
  static Counter* sliced =
      reg.GetCounter("drepair_cqa_sliced_solve_calls_total",
                     "Entailment solves answered on a cone slice");
  static Counter* fallbacks =
      reg.GetCounter("drepair_cqa_slice_fallbacks_total",
                     "Counterexamples rerun on the full CNF");

  answers->Inc(stats.answers);
  certain->Inc(stats.certain_answers);
  possible->Inc(stats.possible_answers);
  undecided->Inc(stats.undecided_answers);
  monomials->Inc(stats.monomials);
  sliced->Inc(stats.slice.sliced_solve_calls);
  fallbacks->Inc(stats.slice.slice_fallbacks);
  AddRepairStatsToMetrics(stats.repair);
}

}  // namespace deltarepair
