// The benchmark's workloads (see BENCHMARK.json for why each exists).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "perfbench/bench.h"

namespace perfbench {

/// Kinds of a cold pass: the four semantics (kSemantics order), then the
/// cold CQA requests.
constexpr int kNumKinds = 5;
constexpr int kCqaKind = 4;

/// The CQA queries both workloads ask on MAS program 20: Publication–Cite
/// (thousands of answers), and the same join pinned to the hub
/// publication (1 answer).
std::vector<std::string> MasQueries(int64_t hub_pub_pid);

/// What the cold CLI-path measurement of one loaded instance yields.
struct ColdPass {
  /// Wall time of each pass, per kind.
  std::vector<double> pass_s[kNumKinds];
  /// Latencies of each cold CQA request, by request.
  std::vector<std::vector<double>> cqa_ms;
  /// Stats of the first pass of every kind.
  LayerSums sums;
  /// Write*Json time within the first pass of every kind.
  double report_s = 0;
  uint64_t verdicts = 0, undecided = 0;
  uint64_t ind_deleted = 0, step_deleted = 0;
};

/// One cold request's measured outcome and what the checks need of it.
struct ColdOp {
  double wall_s = 0;
  double report_s = 0;
  size_t response_bytes = 0;
  deltarepair::RepairOutcome repair;
  deltarepair::CqaResult cqa;
};

/// The cold CLI-path measurement of one loaded instance: every engine's
/// program under the four semantics through Execute + WriteOutcomeJson,
/// and every query under end and independent on engine `cqa_engine`
/// through AnswerQuery + WriteCqaResultJson.
class ColdRun {
 public:
  /// `total_seconds` is the time all Measure calls get together.
  ColdRun(const Args& args, deltarepair::Database* db,
          std::vector<deltarepair::RepairEngine>* engines,
          const std::vector<std::string>& queries, size_t cqa_engine,
          double total_seconds);

  /// Runs cycles for `seconds` (at least one). Each cycle runs every
  /// kind, and a kind repeats its pass within the cycle until 1/20 of
  /// `total_seconds` is used (at least once), so every kind samples the
  /// whole measuring time. Per-op checks run between requests, outside
  /// the timed ones.
  void Measure(double seconds, RunResult* res);
  /// Checks the first pass's outputs together (stabilizing sets, Prop.
  /// 3.20, verdicts) and returns the measurement.
  ColdPass Finish(RunResult* res);
  /// After Finish: one traced pass of every kind, each op under its own
  /// trace id, with the per-layer metrics; `untraced_s` is the untraced
  /// time of a pass.
  void Traced(double untraced_s, RunResult* res);
  size_t OpsIn(int kind) const;

 private:
  ColdOp RunOne(int kind, size_t i);
  void Record(int kind, const ColdOp& op);

  const Args& args_;
  deltarepair::Database* db_;
  std::vector<deltarepair::RepairEngine>* engines_;
  const std::vector<std::string>& queries_;
  size_t cqa_engine_;
  double kind_seconds_;
  std::vector<size_t> order_[kNumKinds];
  std::vector<ColdOp> first_[kNumKinds];
  ColdPass out_;
};

/// end_s ... cqa_cold_s (pass medians) and the repair sizes of `cold`.
void AddColdMetrics(const ColdPass& cold, RunResult* res);

RunResult RunBatch(const Args& args);
RunResult RunServe(const Args& args);

/// Per-layer metrics only the served workload exercises, as zeros.
void AddServeOnlyZeros(RunResult* res);

/// Self-time shares by module, span accounting and tracing overhead of a
/// traced run. `traced_s`/`untraced_s` time the same work with tracing on
/// and off; unattributed shares are per op type.
void AddTraceMetrics(const SpanTotals& totals, double traced_s,
                     uint64_t dropped, double untraced_s,
                     double unattributed_repair, double unattributed_cqa,
                     double unattributed_update, RunResult* res);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
