// perfbench: the repository benchmark. Runs one workload and
// prints, as the last stdout line, one JSON object with the keys
// correct, attempted, failed and metrics (end-to-end metrics untraced,
// per-layer metrics with --trace 1).
//
//   perfbench --workload <batch_mas|serve_mixed> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir>
//             [--negative-control]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "perfbench/bench.h"
#include "perfbench/workloads.h"

namespace perfbench {

void AddServeOnlyZeros(RunResult* res) {
  static const char* const kZeros[][2] = {
      {"service.snapshot_load_s", "s"},
      {"service.warm_build_s", "s"},
      {"service.update_p50_ms", "ms"},
      {"service.update_p95_ms", "ms"},
      {"service.wal_append_ms", "ms"},
      {"service.wal_bytes_per_update", "bytes"},
      {"service.update_lock_wait_ms", "ms"},
      {"service.queue_wait_ms", "ms"},
      {"service.rejected", "count"},
      {"service.request_errors", "count"},
      {"service.wire_ms", "ms"},
      {"service.warm_cqa_self_ms", "ms"},
      {"service.warm_sync_ms", "ms"},
      {"service.verdict_cache_hit_frac", "ratio"},
      {"service.components_reused_frac", "ratio"},
      {"service.cold_fallbacks", "count"},
      {"service.scrub_runs", "count"},
  };
  for (const auto& z : kZeros) res->Add(z[0], 0, z[1]);
}

void AddTraceMetrics(const SpanTotals& totals, double traced_s,
                     uint64_t dropped, double untraced_s,
                     double unattributed_repair, double unattributed_cqa,
                     double unattributed_update, RunResult* res) {
  const double total = totals.TotalSelf();
  for (int m = 0; m < kNumModules; ++m) {
    res->Add(std::string("self.") + ModuleName(m) + "_frac",
             total > 0 ? totals.self_s[m] / total : 0, "ratio");
  }
  res->Add("self.total_s", total, "s");
  res->Add("unattributed_frac.repair", unattributed_repair, "ratio");
  res->Add("unattributed_frac.cqa", unattributed_cqa, "ratio");
  res->Add("unattributed_frac.update", unattributed_update, "ratio");
  res->Add("obs.spans", static_cast<double>(totals.spans), "count");
  res->Add("obs.dropped_spans", static_cast<double>(dropped), "count");
  res->Add("obs.trace_overhead_frac",
           untraced_s > 0 ? traced_s / untraced_s - 1 : 0, "ratio");
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <batch_mas|serve_mixed> "
               "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir> "
               "[--negative-control]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--negative-control") {
      args.negative_control = true;
      continue;
    }
    if (v == nullptr) return Usage();
    ++i;
    if (arg == "--workload") {
      args.workload = v;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      args.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--work-dir") {
      args.work_dir = v;
    } else {
      return Usage();
    }
  }
  if (args.work_dir.empty() || !(args.seconds > 0)) return Usage();
  if (args.trace) deltarepair::Trace::SetRingCapacity(kRingSlots);

  std::error_code ec;
  std::filesystem::remove_all(args.work_dir, ec);
  std::filesystem::create_directories(args.work_dir, ec);
  RunResult res;
  if (args.workload == "batch_mas") {
    res = RunBatch(args);
  } else if (args.workload == "serve_mixed") {
    res = RunServe(args);
  } else {
    std::filesystem::remove_all(args.work_dir, ec);
    return Usage();
  }
  std::filesystem::remove_all(args.work_dir, ec);
  if (res.attempted == 0) res.attempted = 1;
  if (res.failed > res.attempted) res.failed = res.attempted;
  std::printf("%s\n", res.ToJsonLine().c_str());
  return 0;
}
