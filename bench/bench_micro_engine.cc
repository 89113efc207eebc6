// Microbenchmarks (google-benchmark) of the engine substrates plus the
// ablations called out in DESIGN.md: join grounding, hypothetical
// grounding, the semi-naive fixpoint in both modes, provenance-graph
// construction, Algorithm 2's traversal, and Min-Ones scaling on
// vertex-cover instances.
#include <benchmark/benchmark.h>

#include <type_traits>
#include <utility>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "obs/trace.h"
#include "provenance/bool_formula.h"
#include "provenance/prov_graph.h"
#include "repair/semantics_registry.h"
#include "sat/min_ones.h"
#include "workload/mas_generator.h"
#include "workload/programs.h"

namespace deltarepair {
namespace {

/// Raw registry-runner invocation (no engine facade): what these
/// microbenches measure is the runner itself.
RepairResult RunKind(SemanticsKind kind, Database* db,
                     const Program& program,
                     ProvenanceGraph* prov = nullptr) {
  RepairOptions options;
  options.record_provenance = prov;
  ExecContext ctx(options);
  return SemanticsRegistry::Global().GetKind(kind).Run(db, program, options,
                                                       &ctx);
}

MasData& SharedMas() {
  static MasData data = [] {
    MasConfig config;
    config.num_orgs = 30;
    config.num_authors = 450;
    config.num_pubs = 900;
    return GenerateMas(config);
  }();
  return data;
}

void BM_GrounderJoinChain(benchmark::State& state) {
  MasData& mas = SharedMas();
  Program program = MasProgram(static_cast<int>(state.range(0)), mas.hubs);
  Database db = mas.db;
  if (!ResolveProgram(&program, db).ok()) return;
  for (auto _ : state) {
    Grounder grounder(&db);
    size_t n = 0;
    grounder.EnumerateRule(program.rules()[0], 0, BaseMatch::kLive,
                           DeltaMatch::kCurrent,
                           [&](const GroundAssignment&) {
                             ++n;
                             return true;
                           });
    benchmark::DoNotOptimize(n);
  }
}
// Programs 11-15: the single rule with 1..5 joined atoms (Figure 6b).
BENCHMARK(BM_GrounderJoinChain)->DenseRange(11, 15);

// The same join chains late in a deletion cascade: program 10's cascade
// is applied first, so most Writes/Cite slots are dead. The planner's
// live-count join ordering (vs. counting dead row slots) is what keeps
// these selective.
void BM_GrounderJoinChainLateCascade(benchmark::State& state) {
  MasData& mas = SharedMas();
  Program cascade = MasProgram(10, mas.hubs);
  Program program = MasProgram(static_cast<int>(state.range(0)), mas.hubs);
  Database db = mas.db;
  if (!ResolveProgram(&cascade, db).ok()) return;
  if (!ResolveProgram(&program, db).ok()) return;
  RunKind(SemanticsKind::kStage, &db, cascade);  // deletions stay applied
  for (auto _ : state) {
    Grounder grounder(&db);
    size_t n = 0;
    grounder.EnumerateRule(program.rules()[0], 0, BaseMatch::kLive,
                           DeltaMatch::kCurrent,
                           [&](const GroundAssignment&) {
                             ++n;
                             return true;
                           });
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_GrounderJoinChainLateCascade)->DenseRange(11, 15);

void BM_HypotheticalGrounding(benchmark::State& state) {
  MasData& mas = SharedMas();
  Program program = MasProgram(10, mas.hubs);
  Database db = mas.db;
  if (!ResolveProgram(&program, db).ok()) return;
  for (auto _ : state) {
    Grounder grounder(&db);
    DeletionCnfBuilder builder;
    for (size_t i = 0; i < program.rules().size(); ++i) {
      grounder.EnumerateRule(program.rules()[i], static_cast<int>(i),
                             BaseMatch::kLive, DeltaMatch::kHypothetical,
                             [&](const GroundAssignment& ga) {
                               builder.AddAssignment(ga);
                               return true;
                             });
    }
    benchmark::DoNotOptimize(builder.cnf().num_clauses());
  }
}
BENCHMARK(BM_HypotheticalGrounding);

// Ablation: the shared fixpoint in end mode (frozen bases) vs stage mode
// (shrinking bases) on the program-10 cascade.
void BM_FixpointEndMode(benchmark::State& state) {
  MasData& mas = SharedMas();
  Program program = MasProgram(10, mas.hubs);
  Database db = mas.db;
  if (!ResolveProgram(&program, db).ok()) return;
  for (auto _ : state) {
    Database::State snap = db.SaveState();
    RepairResult r = RunKind(SemanticsKind::kEnd, &db, program);
    benchmark::DoNotOptimize(r.size());
    db.RestoreState(snap);
  }
}
BENCHMARK(BM_FixpointEndMode);

void BM_FixpointStageMode(benchmark::State& state) {
  MasData& mas = SharedMas();
  Program program = MasProgram(10, mas.hubs);
  Database db = mas.db;
  if (!ResolveProgram(&program, db).ok()) return;
  for (auto _ : state) {
    Database::State snap = db.SaveState();
    RepairResult r = RunKind(SemanticsKind::kStage, &db, program);
    benchmark::DoNotOptimize(r.size());
    db.RestoreState(snap);
  }
}
BENCHMARK(BM_FixpointStageMode);

void BM_ProvenanceGraphBuild(benchmark::State& state) {
  MasData& mas = SharedMas();
  Program program = MasProgram(20, mas.hubs);
  Database db = mas.db;
  if (!ResolveProgram(&program, db).ok()) return;
  for (auto _ : state) {
    Database::State snap = db.SaveState();
    ProvenanceGraph graph;
    RunKind(SemanticsKind::kEnd, &db, program, &graph);
    // The use lists are built at the first query; include that build.
    if (graph.num_delta_nodes() > 0) {
      benchmark::DoNotOptimize(graph.Benefit(uint32_t{0}));
    }
    benchmark::DoNotOptimize(graph.num_assignments());
    db.RestoreState(snap);
  }
}
BENCHMARK(BM_ProvenanceGraphBuild);

void BM_StepAlgorithm2(benchmark::State& state) {
  MasData& mas = SharedMas();
  Program program = MasProgram(static_cast<int>(state.range(0)), mas.hubs);
  Database db = mas.db;
  if (!ResolveProgram(&program, db).ok()) return;
  for (auto _ : state) {
    Database::State snap = db.SaveState();
    RepairResult r = RunKind(SemanticsKind::kStep, &db, program);
    benchmark::DoNotOptimize(r.size());
    db.RestoreState(snap);
  }
}
BENCHMARK(BM_StepAlgorithm2)->Arg(3)->Arg(8)->Arg(20);

void BM_IndependentAlgorithm1(benchmark::State& state) {
  MasData& mas = SharedMas();
  Program program = MasProgram(static_cast<int>(state.range(0)), mas.hubs);
  Database db = mas.db;
  if (!ResolveProgram(&program, db).ok()) return;
  for (auto _ : state) {
    Database::State snap = db.SaveState();
    RepairResult r = RunKind(SemanticsKind::kIndependent, &db, program);
    benchmark::DoNotOptimize(r.size());
    db.RestoreState(snap);
  }
}
BENCHMARK(BM_IndependentAlgorithm1)->Arg(2)->Arg(14)->Arg(20);

// Min-Ones scaling on vertex-cover-shaped formulas: star-of-cliques with
// n hubs (optimum = n).
void BM_MinOnesVertexCover(benchmark::State& state) {
  const uint32_t hubs = static_cast<uint32_t>(state.range(0));
  Cnf cnf;
  uint32_t var = 0;
  for (uint32_t h = 0; h < hubs; ++h) {
    uint32_t center = var++;
    for (int leaf = 0; leaf < 8; ++leaf) {
      uint32_t l = var++;
      cnf.AddClause({PosLit(center), PosLit(l)});
    }
  }
  for (auto _ : state) {
    MinOnesResult r = MinOnesSat(cnf);
    benchmark::DoNotOptimize(r.num_true);
  }
}
BENCHMARK(BM_MinOnesVertexCover)->Arg(8)->Arg(32)->Arg(128);

// Observability guard: models the cost the permanent span
// instrumentation adds to the grounder+fixpoint loop while tracing is
// DISABLED (the default, and the state the 2% budget applies to).
// "Disabled vs compiled-out" cannot be A/B-ed inside one binary, so the
// row reports a computed upper bound instead:
//
//   overhead_permille = 1000 * (1 + span_ns * spans / workload_ns)
//
// where span_ns is the measured cost of one disabled Span (the relaxed
// load + branch), spans counts the records one traced workload run
// produces (every disabled-span site the run passes), and workload_ns
// is the run's wall time with tracing off. The ideal instrumentation
// scores exactly 1000; bench_compare gates the row against a baseline
// of 1000 with a 2% band, so the gate trips when the modeled overhead
// exceeds 2% — machine-stable, unlike differencing two noisy wall
// clocks. (-DDR_DISABLE_TRACING remains the true compile-out for
// deployments that want even that bound gone.)
void BM_TracingOverheadDisabled(benchmark::State& state) {
  MasData& mas = SharedMas();
  Program program = MasProgram(10, mas.hubs);
  Database db = mas.db;
  if (!ResolveProgram(&program, db).ok()) return;

  // One traced run counts the span records the workload emits.
  Trace::SetRingCapacity(1 << 16);
  Trace::Enable(true);
  Trace::Clear();
  {
    Database::State snap = db.SaveState();
    RepairResult r = RunKind(SemanticsKind::kEnd, &db, program);
    benchmark::DoNotOptimize(r.size());
    db.RestoreState(snap);
  }
  const double spans = static_cast<double>(Trace::Collect().size());
  Trace::Enable(false);
  Trace::Clear();

  // Unit cost of a disabled span: the permanent price of one call site.
  constexpr int kProbes = 1 << 20;
  WallTimer probe_timer;
  for (int i = 0; i < kProbes; ++i) {
    Span span("bench.noop");
    benchmark::DoNotOptimize(&span);
  }
  const double span_ns = probe_timer.ElapsedSeconds() * 1e9 / kProbes;

  WallTimer workload_timer;
  uint64_t iters = 0;
  for (auto _ : state) {
    Database::State snap = db.SaveState();
    RepairResult r = RunKind(SemanticsKind::kEnd, &db, program);
    benchmark::DoNotOptimize(r.size());
    db.RestoreState(snap);
    ++iters;
  }
  const double workload_ns =
      workload_timer.ElapsedSeconds() * 1e9 / static_cast<double>(iters);
  state.counters["overhead_permille"] =
      1000.0 * (1.0 + span_ns * spans / workload_ns);
}
BENCHMARK(BM_TracingOverheadDisabled);

void BM_StabilityCheck(benchmark::State& state) {
  MasData& mas = SharedMas();
  Program program = MasProgram(9, mas.hubs);
  Database db = mas.db;
  if (!ResolveProgram(&program, db).ok()) return;
  for (auto _ : state) {
    Grounder grounder(&db);
    bool unstable = grounder.AnyAssignment(program, BaseMatch::kLive,
                                           DeltaMatch::kCurrent);
    benchmark::DoNotOptimize(unstable);
  }
}
BENCHMARK(BM_StabilityCheck);

// google-benchmark 1.8 replaced Run::error_occurred with Run::skipped;
// detect whichever member this library version has.
template <typename R, typename = void>
struct RunHasSkipped : std::false_type {};
template <typename R>
struct RunHasSkipped<R, std::void_t<decltype(std::declval<const R&>().skipped)>>
    : std::true_type {};

template <typename R>
bool RunWasSkipped(const R& run) {
  if constexpr (RunHasSkipped<R>::value) {
    return static_cast<bool>(run.skipped);
  } else {
    return run.error_occurred;
  }
}

// Forwards to the normal console output while recording every run into a
// BenchReporter, so DR_BENCH_JSON=path captures machine-readable results.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonTeeReporter(BenchReporter* json) : json_(json) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (RunWasSkipped(run)) continue;
      BenchReporter::Row& row =
          json_->AddRow(run.benchmark_name())
              .Metric("real_time_ns", run.GetAdjustedRealTime())
              .Metric("cpu_time_ns", run.GetAdjustedCPUTime())
              .Metric("iterations", static_cast<int64_t>(run.iterations));
      for (const auto& [name, counter] : run.counters) {
        row.Metric(name, static_cast<double>(counter.value));
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  BenchReporter* json_;
};

}  // namespace
}  // namespace deltarepair

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  deltarepair::BenchReporter json("bench_micro_engine");
  deltarepair::JsonTeeReporter reporter(&json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  json.Flush();
  return 0;
}
