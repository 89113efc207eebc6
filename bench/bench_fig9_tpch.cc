// Reproduces Figure 9: (a) result sizes and (b) runtimes of the four
// semantics on the TPC-H programs T1-T6 of Table 2. With DR_BENCH_JSON
// set, each program and semantics is one row `T<n>/<semantics>` with its
// wall time (`seconds`), its ground assignments (`work`, deterministic for
// the seeded data) and its result size (`deleted`). T5's deletion CNF is
// half duplicate clauses, so it is the row that exercises normalization.
#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "repair/repair_engine.h"
#include "workload/programs.h"

namespace deltarepair {
namespace {

int Main() {
  TpchData tpch = BenchTpch();
  std::printf("TPC-H instance: %s tuples (DR_SCALE=%.2f)\n",
              WithThousands(static_cast<int64_t>(tpch.db.TotalLive())).c_str(),
              BenchScale());

  PrintHeader("Figure 9a: result sizes, TPC-H programs");
  TablePrinter sizes({"Program", "End", "Stage", "Step", "Independent"});
  PrintHeader("Figure 9b: runtimes (collected in the same pass)");
  TablePrinter times({"Program", "End", "Stage", "Step(Alg2)", "Ind(Alg1)"});
  BenchReporter reporter("bench_fig9_tpch");
  const char* const kSemantics[] = {"end", "stage", "step", "independent"};
  for (int num : AllTpchPrograms()) {
    Database db = tpch.db;
    StatusOr<RepairEngine> engine =
        RepairEngine::Create(&db, TpchProgram(num, tpch.consts));
    if (!engine.ok()) continue;
    std::vector<RepairOutcome> outcomes = engine->RunBatch(
        {RepairRequest{kSemantics[0]}, RepairRequest{kSemantics[1]},
         RepairRequest{kSemantics[2]}, RepairRequest{kSemantics[3]}});
    for (size_t i = 0; i < outcomes.size(); ++i) {
      const RepairResult& r = outcomes[i].result;
      reporter.AddRow("T" + std::to_string(num) + "/" + kSemantics[i])
          .Metric("seconds", r.stats.total_seconds)
          .Metric("work", static_cast<int64_t>(r.stats.assignments))
          .Metric("deleted", static_cast<int64_t>(r.size()));
    }
    const RepairResult& end = outcomes[0].result;
    const RepairResult& stage = outcomes[1].result;
    const RepairResult& step = outcomes[2].result;
    const RepairResult& ind = outcomes[3].result;
    std::string name = "T-" + std::to_string(num);
    sizes.AddRow({name, std::to_string(end.size()),
                  std::to_string(stage.size()), std::to_string(step.size()),
                  std::to_string(ind.size())});
    times.AddRow({name, Ms(end.stats.total_seconds),
                  Ms(stage.stats.total_seconds),
                  Ms(step.stats.total_seconds),
                  Ms(ind.stats.total_seconds)});
  }
  std::printf("\n-- Figure 9a --\n");
  sizes.Print();
  std::printf("\n-- Figure 9b --\n");
  times.Print();
  return 0;
}

}  // namespace
}  // namespace deltarepair

int main() { return deltarepair::Main(); }
