// Shared pieces of perfbench: run arguments, the result
// record printed as the last stdout line, timing and percentile helpers,
// process memory probes, a small JSON reader for served responses, and
// the span-tree aggregation that turns a traced op into per-module self
// times.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "cqa/cqa.h"
#include "obs/trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Corrupts one deletion set and one verdict before checking, so the
  /// run must report failures (proves the checks are live).
  bool negative_control = false;
  /// Working directory for generated inputs and the store; removed at exit.
  std::string work_dir;
};

/// What one workload run reports. `metrics` keeps insertion order.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics;

  void Add(const std::string& name, double value, const std::string& unit);
  /// Records one failed check with a reason on stderr.
  void Fail(const std::string& why);
  std::string ToJsonLine() const;
};

double NowSec();
double Median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> v, double p);

/// VmHWM of this process in MB.
double PeakRssMb();
/// Returns freed heap to the OS, then resets VmHWM to the current RSS.
void ResetPeakRss();

std::string ReadFile(const std::string& path);
void WriteFile(const std::string& path, const std::string& text);
uint64_t FileSize(const std::string& path);

/// Derives an independent RNG stream seed from (base, seed).
uint64_t MixSeed(uint64_t base, uint64_t seed);

/// Solve time at which a request counts as failed: half of the Min-Ones
/// default wall-clock cut-off, so outputs never depend on machine speed.
constexpr double kSolveLimitSeconds = 2.5;

/// The four semantics, in the order passes, checks and metrics use.
constexpr const char* kSemantics[] = {"end", "stage", "step", "independent"};

/// Checks one program's results under the four semantics (kSemantics
/// order), all computed on `db`'s current state: each is a stabilizing
/// set (Def. 3.14), and Prop. 3.20 holds: Stage ⊆ End, Step ⊆ End,
/// |Ind| ≤ |Stage| and |Ind| ≤ |Step|. Failures, labelled with `what`,
/// are recorded in `res`.
void CheckSemantics(deltarepair::Database* db,
                    const deltarepair::Program& program,
                    const deltarepair::RepairResult* const results[4],
                    const std::string& what, RunResult* res);

/// Sums of the *Stats fields the per-layer metrics read, over one batch
/// pass of every kind or over a served window.
struct LayerSums {
  double ground_s = 0, assignments = 0, query_ground_s = 0;
  double encode_s = 0, cnf_clauses = 0, cone_s = 0, cone_clauses = 0;
  double minones_s = 0, minones_max_s = 0, solve_calls = 0, conflicts = 0;
  double nonoptimal = 0, inprocess_runs = 0, eliminated_vars = 0;
  double traverse_s = 0, fixpoint_rounds = 0, unattributed_s = 0;
  double space_s = 0, entail_s = 0, answers = 0, sliced = 0;
  double fallbacks = 0, undecided = 0, response_kb = 0;

  /// `unattributed_s`: the request's time outside its phase fields.
  void AddRepair(const deltarepair::RepairStats& s, bool independent,
                 double unattributed_s);
  void AddCqa(const deltarepair::CqaStats& s);
};

/// The stats-derived per-layer metrics. Sums are multiplied by `per` (1
/// for a batch pass, 1/ops for a served op); the maximum solve time and
/// the counts of non-optimal and undecided results are not.
void AddLayerMetrics(const LayerSums& s, double per, RunResult* res);

// ---------------------------------------------------------------------
// Minimal JSON reader (objects, arrays, strings, numbers, bools, null).
// ---------------------------------------------------------------------
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> fields;

  const Json* Get(std::string_view key) const;
  double Num(std::string_view key) const;
  bool Bool(std::string_view key) const;
  std::string Str(std::string_view key) const;
};
bool ParseJson(std::string_view text, Json* out);

// ---------------------------------------------------------------------
// Span aggregation.
// ---------------------------------------------------------------------

/// Modules a span's self time is charged to. kUnattributed collects the
/// benchmark's own spans around library calls: time inside an op that no
/// library span covers.
enum Module {
  kRelation,
  kDatalog,
  kProvenance,
  kSat,
  kRepair,
  kCqa,
  kService,
  kUnattributed,
  kNumModules
};
const char* ModuleName(int m);
Module ModuleOf(const char* span_name);

/// Per-module self time plus the span counts the drop check needs.
struct SpanTotals {
  double self_s[kNumModules] = {};
  uint64_t spans = 0;
  uint64_t sat_solve = 0;
  uint64_t judge_answer = 0;
  /// Named totals (duration, not self time) of selected spans.
  std::map<std::string, double> dur_s;
  /// Self time of selected spans.
  std::map<std::string, double> self_by_name;

  void Add(const SpanTotals& o);
  double TotalSelf() const;
};

inline uint64_t AbsDiff(uint64_t a, uint64_t b) { return a > b ? a - b : b - a; }

/// Self time of a span = its duration minus the part its children on the
/// same thread cover. Spans nest by interval on each thread.
SpanTotals AggregateSpans(const std::vector<deltarepair::TraceEvent>& events);

/// Ring capacity large enough for the biggest single op (a ~27k-answer
/// cold CQA records one cqa.judge_answer span per answer plus solver
/// spans) and for a whole traced serve window; set before any thread
/// records.
constexpr size_t kRingSlots = size_t{1} << 19;

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
