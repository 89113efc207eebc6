// Reproduces Figure 7: execution time of the four semantics' algorithms
// on MAS programs 1-20 (the paper plots log-scale seconds; we print
// milliseconds). Expected shape: end/stage cheapest; Algorithms 1 and 2
// pay for provenance construction and solving/traversal.
#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "repair/repair_engine.h"
#include "workload/programs.h"

namespace deltarepair {
namespace {

int Main() {
  MasData mas = BenchMas();
  PrintHeader("Figure 7: execution time, MAS programs 1-20");
  BenchReporter reporter("bench_fig7_mas_runtime");
  TablePrinter table({"Program", "End", "Stage", "Step(Alg2)", "Ind(Alg1)",
                      "|End| result"});
  double sum_end = 0, sum_stage = 0, sum_step = 0, sum_ind = 0;
  for (int num : AllMasPrograms()) {
    Database db = mas.db;
    StatusOr<RepairEngine> engine =
        RepairEngine::Create(&db, MasProgram(num, mas.hubs));
    if (!engine.ok()) continue;
    std::vector<RepairOutcome> outcomes = engine->RunBatch(
        {RepairRequest{"end"}, RepairRequest{"stage"}, RepairRequest{"step"},
         RepairRequest{"independent"}});
    const RepairResult& end = outcomes[0].result;
    const RepairResult& stage = outcomes[1].result;
    const RepairResult& step = outcomes[2].result;
    const RepairResult& ind = outcomes[3].result;
    sum_end += end.stats.total_seconds;
    sum_stage += stage.stats.total_seconds;
    sum_step += step.stats.total_seconds;
    sum_ind += ind.stats.total_seconds;
    reporter.AddRow("program_" + std::to_string(num))
        .Metric("end_seconds", end.stats.total_seconds)
        .Metric("stage_seconds", stage.stats.total_seconds)
        .Metric("step_seconds", step.stats.total_seconds)
        .Metric("independent_seconds", ind.stats.total_seconds)
        .Metric("end_deleted", static_cast<int64_t>(end.size()))
        // Join work: ground assignments over the four runs. Deterministic
        // for the seeded data, so bench_compare gates it as a counter.
        .Metric("work", static_cast<int64_t>(
                            end.stats.assignments + stage.stats.assignments +
                            step.stats.assignments + ind.stats.assignments));
    table.AddRow({std::to_string(num), Ms(end.stats.total_seconds),
                  Ms(stage.stats.total_seconds), Ms(step.stats.total_seconds),
                  Ms(ind.stats.total_seconds), std::to_string(end.size())});
  }
  table.Print();
  std::printf("\naverage: end=%s stage=%s step=%s independent=%s\n",
              Ms(sum_end / 20).c_str(), Ms(sum_stage / 20).c_str(),
              Ms(sum_step / 20).c_str(), Ms(sum_ind / 20).c_str());
  return 0;
}

}  // namespace
}  // namespace deltarepair

int main() { return deltarepair::Main(); }
