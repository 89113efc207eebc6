// Reproduces Figure 10: runtime of the four semantics and the
// HoloClean-style baseline, (a) for an increasing number of errors with
// 5000 rows, and (b) for an increasing number of rows with 700 errors.
// With DR_BENCH_JSON=path set, each Ind(Alg1) point is also written as a
// row: seconds, the Min-Ones solver counters and the deletion size |S|.
#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "holoclean/holoclean.h"
#include "repair/repair_engine.h"
#include "workload/error_injector.h"
#include "workload/programs.h"

namespace deltarepair {
namespace {

void RunSweep(const std::string& title, const std::string& row_prefix,
              const std::vector<std::pair<size_t, size_t>>& rows_errors,
              BenchReporter* reporter) {
  PrintHeader(title);
  TablePrinter table({"Rows", "Errors", "End", "Stage", "Step(Alg2)",
                      "Ind(Alg1)", "HoloClean"});
  std::vector<DenialConstraint> dcs = AuthorDenialConstraints();
  Program dc_program = DcsToProgram(dcs, DcTranslation::kRulePerAtom);
  for (auto [rows, errors] : rows_errors) {
    ErrorInjectorConfig config;
    config.num_rows = rows;
    config.num_errors = errors;
    InjectedTable injected = MakeInjectedAuthorTable(config);
    Database db = injected.MakeDb();
    StatusOr<RepairEngine> engine = RepairEngine::Create(&db, dc_program);
    if (!engine.ok()) return;
    std::vector<RepairOutcome> outcomes = engine->RunBatch(
        {RepairRequest{"end"}, RepairRequest{"stage"}, RepairRequest{"step"},
         RepairRequest{"independent"}});
    const RepairResult& end = outcomes[0].result;
    const RepairResult& stage = outcomes[1].result;
    const RepairResult& step = outcomes[2].result;
    const RepairResult& ind = outcomes[3].result;
    HoloCleanReport hc = RunHoloClean(&db, "Author", dcs);
    table.AddRow({std::to_string(rows), std::to_string(errors),
                  Ms(end.stats.total_seconds), Ms(stage.stats.total_seconds),
                  Ms(step.stats.total_seconds), Ms(ind.stats.total_seconds),
                  Ms(hc.total_seconds)});
    reporter->AddRow(StrFormat("%s/ind_rows%zu_errors%zu", row_prefix.c_str(),
                               rows, errors))
        .Metric("seconds", ind.stats.total_seconds)
        .Metric("conflicts", static_cast<int64_t>(ind.stats.sat_conflicts))
        .Metric("sat_solve_calls",
                static_cast<int64_t>(ind.stats.sat_solve_calls))
        .Metric("deleted", static_cast<int64_t>(ind.size()));
  }
  table.Print();
}

int Main() {
  BenchReporter reporter("bench_fig10_holoclean_runtime");
  const double scale = BenchScale();
  const size_t base_rows = static_cast<size_t>(5000 * scale);
  std::vector<std::pair<size_t, size_t>> error_sweep;
  for (size_t errors : {100, 200, 300, 500, 700, 1000}) {
    error_sweep.push_back({base_rows, ScaledErrors(errors, base_rows)});
  }
  RunSweep("Figure 10a: runtime vs #errors (rows fixed)", "fig10a",
           error_sweep, &reporter);

  std::vector<std::pair<size_t, size_t>> row_sweep;
  for (size_t rows : {2000, 5000, 10000, 20000}) {
    size_t scaled_rows = static_cast<size_t>(static_cast<double>(rows) * scale);
    row_sweep.push_back({scaled_rows, ScaledErrors(700, scaled_rows)});
  }
  RunSweep("Figure 10b: runtime vs #rows (errors fixed at 700)", "fig10b",
           row_sweep, &reporter);
  std::printf(
      "\npaper shape: end/stage fastest throughout; Algorithms 1-2 and "
      "HoloClean scale with table size and error count.\n");
  return 0;
}

}  // namespace
}  // namespace deltarepair

int main() { return deltarepair::Main(); }
