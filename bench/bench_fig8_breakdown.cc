// Reproduces Figure 8: runtime breakdown of Algorithm 1 (independent:
// Eval / Process Prov / Solve) and Algorithm 2 (step: Eval / Process Prov
// / Traverse), averaged over MAS programs 1-15 and 16-20, as in the
// paper's four pie charts.
//
// DR_BENCH_JSON rows: one per chart (alg1_programs_1_15, ...) with the
// summed eval/process_prov/finish seconds, plus one per program and
// algorithm (alg1/p<n>, alg2/p<n>) with that run's three phases. Each
// row also carries `work`, the ground assignments Eval enumerated: it is
// deterministic, so bench_compare gates it even where the phases are
// too short to time at smoke scale.
#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "repair/repair_engine.h"
#include "workload/programs.h"

namespace deltarepair {
namespace {

struct Phases {
  double eval = 0, process = 0, finish = 0;
  uint64_t assignments = 0;

  void Accumulate(const RepairStats& stats, bool alg1) {
    assignments += stats.assignments;
    eval += stats.eval_seconds;
    process += stats.process_prov_seconds;
    finish += alg1 ? stats.solve_seconds : stats.traverse_seconds;
  }

  /// Adds this split as a JSON row; `finish` is Solve for Algorithm 1
  /// and Traverse for Algorithm 2.
  void Report(BenchReporter* json, std::string name, bool alg1) const {
    json->AddRow(std::move(name))
        .Metric("eval_seconds", eval)
        .Metric("process_prov_seconds", process)
        .Metric(alg1 ? "solve_seconds" : "traverse_seconds", finish)
        .Metric("total_seconds", eval + process + finish)
        .Metric("work", static_cast<int64_t>(assignments));
  }

  std::vector<std::string> Percentages() const {
    double total = eval + process + finish;
    if (total <= 0) total = 1;
    return {StrFormat("%.1f%%", 100 * eval / total),
            StrFormat("%.1f%%", 100 * process / total),
            StrFormat("%.1f%%", 100 * finish / total)};
  }
};

int Main() {
  BenchReporter json("bench_fig8_breakdown");
  MasData mas = BenchMas();
  Phases alg1_a, alg1_b, alg2_a, alg2_b;  // a: programs 1-15; b: 16-20
  for (int num : AllMasPrograms()) {
    Database db = mas.db;
    StatusOr<RepairEngine> engine =
        RepairEngine::Create(&db, MasProgram(num, mas.hubs));
    if (!engine.ok()) continue;
    std::vector<RepairOutcome> outcomes = engine->RunBatch(
        {RepairRequest{"independent"}, RepairRequest{"step"}});
    const RepairResult& ind = outcomes[0].result;
    const RepairResult& step = outcomes[1].result;
    Phases one_ind, one_step;
    one_ind.Accumulate(ind.stats, true);
    one_step.Accumulate(step.stats, false);
    one_ind.Report(&json, StrFormat("alg1/p%d", num), true);
    one_step.Report(&json, StrFormat("alg2/p%d", num), false);
    if (num <= 15) {
      alg1_a.Accumulate(ind.stats, true);
      alg2_a.Accumulate(step.stats, false);
    } else {
      alg1_b.Accumulate(ind.stats, true);
      alg2_b.Accumulate(step.stats, false);
    }
  }
  PrintHeader("Figure 8: runtime breakdown of Algorithms 1 and 2");
  TablePrinter table(
      {"Chart", "Eval", "Process Prov", "Solve/Traverse"});
  auto add = [&](const char* name, const Phases& p) {
    auto pct = p.Percentages();
    table.AddRow({name, pct[0], pct[1], pct[2]});
  };
  add("(a) Alg 1, programs 1-15", alg1_a);
  add("(b) Alg 2, programs 1-15", alg2_a);
  add("(c) Alg 1, programs 16-20", alg1_b);
  add("(d) Alg 2, programs 16-20", alg2_b);
  table.Print();
  alg1_a.Report(&json, "alg1_programs_1_15", true);
  alg2_a.Report(&json, "alg2_programs_1_15", false);
  alg1_b.Report(&json, "alg1_programs_16_20", true);
  alg2_b.Report(&json, "alg2_programs_16_20", false);
  std::printf(
      "\npaper shape: Eval dominates everywhere; Solve grows for 16-20 in "
      "(c); Traverse dominates 16-20 in (d).\n");
  return 0;
}

}  // namespace
}  // namespace deltarepair

int main() { return deltarepair::Main(); }
