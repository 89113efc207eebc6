#include "service/report.h"

#include <cstdio>
#include <map>

namespace {
std::string TraceIdHex(uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}
}  // namespace

namespace deltarepair {

void WriteOutcomeJson(JsonWriter& json, const Database& db,
                      const RepairOutcome& outcome, bool applied,
                      uint64_t trace_id) {
  const RepairResult& result = outcome.result;
  const RepairStats& stats = result.stats;
  json.BeginObject();
  json.Field("semantics", SemanticsName(result.semantics));
  if (trace_id != 0) json.Field("trace_id", TraceIdHex(trace_id));
  json.Field("termination", TerminationReasonName(outcome.termination));
  json.Field("deleted", static_cast<uint64_t>(result.size()));
  std::map<std::string, uint64_t> by_relation;
  for (const TupleId& t : result.deleted) {
    ++by_relation[db.relation(t.relation).name()];
  }
  json.Key("deleted_by_relation").BeginObject();
  for (const auto& [rel, n] : by_relation) json.Field(rel, n);
  json.EndObject();
  if (outcome.verified.has_value()) {
    json.Field("verified_stabilizing", *outcome.verified);
  }
  json.Field("applied", applied);
  json.Key("stats").BeginObject();
  json.Field("eval_seconds", stats.eval_seconds);
  json.Field("process_prov_seconds", stats.process_prov_seconds);
  json.Field("solve_seconds", stats.solve_seconds);
  json.Field("traverse_seconds", stats.traverse_seconds);
  json.Field("total_seconds", stats.total_seconds);
  json.Field("assignments", stats.assignments);
  json.Field("iterations", stats.iterations);
  json.Field("cnf_vars", stats.cnf_vars);
  json.Field("cnf_clauses", stats.cnf_clauses);
  json.Field("cnf_dup_clauses", stats.cnf_dup_clauses);
  json.Field("cnf_subsumed_clauses", stats.cnf_subsumed_clauses);
  json.Field("sat_conflicts", stats.sat_conflicts);
  json.Field("sat_learned_clauses", stats.sat_learned_clauses);
  json.Field("sat_restarts", stats.sat_restarts);
  json.Field("sat_solve_calls", stats.sat_solve_calls);
  // Always 0 since inprocessing was removed; perfbench/ still reads it.
  json.Field("sat_inprocess_runs", stats.sat_inprocess_runs);
  // Always 0 since inprocessing was removed; perfbench/ still reads it.
  json.Field("sat_eliminated_vars", stats.sat_eliminated_vars);
  json.Field("graph_nodes", stats.graph_nodes);
  json.Field("graph_layers", stats.graph_layers);
  json.Field("optimal", stats.optimal);
  json.EndObject();
  json.EndObject();
}

const char* CqaVerdictLabel(const CqaAnswer& answer) {
  if (answer.certain_decided && answer.certain) return "certain";
  if (answer.possible_decided && !answer.possible) return "impossible";
  if (answer.possible_decided && answer.possible) return "possible";
  return "undecided";
}

void WriteValueJson(JsonWriter& json, const Value& value) {
  switch (value.type()) {
    case ValueType::kNull:
      json.Null();
      break;
    case ValueType::kInt:
      json.Int(value.AsInt());
      break;
    case ValueType::kString:
      json.String(value.AsString());
      break;
  }
}

void WriteCqaResultJson(JsonWriter& json, const Database& db,
                        const CqaResult& result, uint64_t trace_id) {
  const CqaStats& stats = result.stats;
  json.BeginObject();
  json.Field("semantics", result.semantics);
  if (trace_id != 0) json.Field("trace_id", TraceIdHex(trace_id));
  json.Field("termination", TerminationReasonName(result.termination));
  json.Field("query_head", result.query_head);
  json.Key("answers").BeginArray();
  for (const CqaAnswer& answer : result.answers) {
    json.BeginObject();
    json.Key("values").BeginArray();
    for (const Value& v : answer.values) WriteValueJson(json, v);
    json.EndArray();
    json.Field("certain", answer.certain);
    json.Field("possible", answer.possible);
    json.Field("certain_decided", answer.certain_decided);
    json.Field("possible_decided", answer.possible_decided);
    json.Field("decided", answer.decided);
    json.Field("derivations", answer.derivations);
    if (!answer.counterexample.empty()) {
      json.Key("counterexample").BeginArray();
      for (const TupleId& t : answer.counterexample) {
        json.String(db.TupleToStr(t));
      }
      json.EndArray();
      json.Field("counterexample_minimal", answer.counterexample_minimal);
    }
    json.EndObject();
  }
  json.EndArray();
  json.Key("stats").BeginObject();
  json.Field("ground_seconds", stats.ground_seconds);
  json.Field("space_seconds", stats.space_seconds);
  json.Field("entail_seconds", stats.entail_seconds);
  json.Field("total_seconds", stats.total_seconds);
  json.Field("answers", stats.answers);
  json.Field("monomials", stats.monomials);
  json.Field("certain_answers", stats.certain_answers);
  json.Field("possible_answers", stats.possible_answers);
  json.Field("undecided_answers", stats.undecided_answers);
  json.Field("space_repairs", stats.space_repairs);
  json.Field("repair_size", static_cast<uint64_t>(stats.repair_size));
  json.Field("space_exact", stats.space_exact);
  json.Field("assignments", stats.repair.assignments);
  json.Field("cnf_vars", stats.repair.cnf_vars);
  json.Field("cnf_clauses", stats.repair.cnf_clauses);
  json.Field("sat_conflicts", stats.repair.sat_conflicts);
  json.Field("sat_learned_clauses", stats.repair.sat_learned_clauses);
  json.Field("sat_restarts", stats.repair.sat_restarts);
  json.Field("sat_solve_calls", stats.repair.sat_solve_calls);
  // Always 0 since inprocessing was removed; perfbench/ still reads it.
  json.Field("sat_inprocess_runs", stats.repair.sat_inprocess_runs);
  // Always 0 since inprocessing was removed; perfbench/ still reads it.
  json.Field("sat_eliminated_vars", stats.repair.sat_eliminated_vars);
  json.Field("cone_seconds", stats.slice.cone_seconds);
  json.Field("slice_seconds", stats.slice.slice_seconds);
  json.Field("cone_vars", stats.slice.cone_vars);
  json.Field("cone_clauses", stats.slice.cone_clauses);
  json.Field("sliced_solve_calls", stats.slice.sliced_solve_calls);
  json.Field("slice_fallbacks", stats.slice.slice_fallbacks);
  json.EndObject();
  json.EndObject();
}

}  // namespace deltarepair
