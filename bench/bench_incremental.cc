// Incremental serving benchmark: steady-state latency of the warm
// delta-aware engine (service/incremental_engine.h) vs cold per-request
// snapshot + re-ground + re-encode + re-solve, under a sustained stream
// of small updates interleaved with repair and CQA requests over MAS
// program 15 (the paper's widest join: a 5-way rule whose only deletable
// relation is Cite, so the CNF decomposes into per-tuple components).
// Every step realizes an update, so every warm request runs at a new
// database version:
//  * independent repair is the warm sync, which also maintains end's
//    fixpoint, plus the cold Algorithm 1 pipeline on the warm view;
//  * end replays its cached fixpoint, maintained by delete-rederive;
//  * CQA builds one stability model per version, from the independent
//    repair's solve, and judges every answer against it.
// The acceptance bar asks >= 3x for the independent repair at
// DR_SCALE=1.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "cqa/cqa.h"
#include "repair/repair_engine.h"
#include "service/incremental_engine.h"
#include "workload/programs.h"

namespace deltarepair {
namespace {

// Steady state begins once the update stream has cycled its whole
// working set; everything before that is warmup.
constexpr int kWarmupSteps = 10;
constexpr int kSteps = 16;

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs.empty() ? 0 : xs[xs.size() / 2];
}

struct Lane {
  std::vector<double> warm, cold;
};

int Main() {
  MasData mas = BenchMas();
  Program program = MasProgram(15, mas.hubs);
  PrintHeader("Incremental serving: warm delta-aware vs cold re-ground");
  std::printf("MAS instance: %zu relations, %zu tuples, program 15\n",
              mas.db.num_relations(), mas.db.TotalLive());
  BenchReporter reporter("bench_incremental");

  IncrementalEngineOptions warm_options;
  StatusOr<std::unique_ptr<IncrementalEngine>> warm_or =
      IncrementalEngine::Create(&mas.db, program, warm_options);
  if (!warm_or.ok()) {
    std::fprintf(stderr, "warm engine: %s\n",
                 warm_or.status().ToString().c_str());
    return 1;
  }
  IncrementalEngine* warm = warm_or->get();
  StatusOr<RepairEngine> cold_or = RepairEngine::Create(&mas.db, program);
  if (!cold_or.ok()) {
    std::fprintf(stderr, "cold engine: %s\n",
                 cold_or.status().ToString().c_str());
    return 1;
  }
  RepairEngine cold = std::move(cold_or).value();

  // The update stream cycles delete/reinsert over a small working set
  // of Cite tuples — the rows program 15's rule fires on — half of them
  // citations of the hub publication (inside the CQA answer's
  // provenance cone), half elsewhere. The instance stays in steady
  // state: every step realizes a non-empty delta, and the stream
  // revisits earlier instance states.
  uint32_t cite =
      static_cast<uint32_t>(mas.db.RelationIndex(kMasCite));
  std::vector<Tuple> cycle, hub_cites, other_cites;
  for (const TupleId& id : mas.db.base_view().LiveTupleIds()) {
    if (id.relation != cite) continue;
    const Tuple& t = mas.db.tuple(id);
    if (t[1] == Value(mas.hubs.hub_pub_pid)) {
      if (hub_cites.size() < 2) hub_cites.push_back(t);
    } else if (other_cites.size() < 2) {
      other_cites.push_back(t);
    }
  }
  cycle.insert(cycle.end(), hub_cites.begin(), hub_cites.end());
  cycle.insert(cycle.end(), other_cites.begin(), other_cites.end());
  if (cycle.size() < 2) {
    std::fprintf(stderr, "not enough Cite tuples to cycle\n");
    return 1;
  }

  RepairRequest repair_ind, repair_end;
  repair_ind.semantics = "independent";
  repair_end.semantics = "end";
  // One answer (the hub publication) with one monomial per citation of
  // it — a provenance cone the cycled hub citations intersect.
  CqaRequest cqa("independent",
                 StrFormat("Q(t) :- Publication(p, t), Cite(c, p), "
                           "p = %lld.",
                           static_cast<long long>(mas.hubs.hub_pub_pid)));

  // Two passes over the same update stream, warm first, then cold.
  // Interleaving the competitors would let each cold request (a full
  // re-ground, tens of MB of short-lived state) evict the caches the
  // next warm measurement depends on; separate passes time each engine
  // under its own steady state. The stream is state-periodic — step s
  // leaves the instance at baseline minus at most one cycle tuple, a
  // function of s alone — and every delete is paired with a reinsert,
  // so the cold pass replays the exact instance states of the warm pass
  // and the per-step outcomes must match: the bench doubles as an
  // end-to-end differential check.
  const int total_steps = kWarmupSteps + kSteps;
  auto apply_step = [&](int step) -> bool {
    const Tuple& t = cycle[static_cast<size_t>(step / 2) % cycle.size()];
    Delta delta = mas.db.ApplyUpdate(cite, /*is_insert=*/step % 2 != 0,
                                     {t});
    if (delta.empty()) {
      std::fprintf(stderr, "update step %d realized nothing\n", step);
      return false;
    }
    return true;
  };

  struct StepOutcome {
    RepairOutcome ind, end;
    CqaResult cqa;
  };
  std::vector<StepOutcome> warm_outcomes(total_steps);

  Lane ind_lane, end_lane, cqa_lane;
  for (int step = 0; step < total_steps; ++step) {
    if (!apply_step(step)) return 1;
    WallTimer wt;
    warm_outcomes[step].ind = warm->ExecuteRepair(repair_ind);
    double warm_ind = wt.ElapsedSeconds();
    wt = WallTimer();
    warm_outcomes[step].end = warm->ExecuteRepair(repair_end);
    double warm_end = wt.ElapsedSeconds();
    wt = WallTimer();
    warm_outcomes[step].cqa = warm->ExecuteCqa(cqa);
    double warm_cqa = wt.ElapsedSeconds();
    if (step >= kWarmupSteps) {
      ind_lane.warm.push_back(warm_ind);
      end_lane.warm.push_back(warm_end);
      cqa_lane.warm.push_back(warm_cqa);
    }
  }

  for (int step = 0; step < total_steps; ++step) {
    if (!apply_step(step)) return 1;
    WallTimer wt;
    RepairOutcome ci = cold.ExecuteOnSnapshot(repair_ind);
    double cold_ind = wt.ElapsedSeconds();
    wt = WallTimer();
    RepairOutcome ce = cold.ExecuteOnSnapshot(repair_end);
    double cold_end = wt.ElapsedSeconds();
    wt = WallTimer();
    CqaResult cq = AnswerQueryOnSnapshot(&cold, cqa);
    double cold_cqa = wt.ElapsedSeconds();

    const StepOutcome& w = warm_outcomes[step];
    if (!w.ind.ok() || !ci.ok() ||
        w.ind.result.size() != ci.result.size() ||
        !w.end.ok() || !ce.ok() || !w.end.result.SameSet(ce.result) ||
        !w.cqa.ok() || !cq.ok() ||
        w.cqa.CertainAnswers() != cq.CertainAnswers() ||
        w.cqa.PossibleAnswers() != cq.PossibleAnswers()) {
      std::fprintf(stderr, "warm/cold divergence at step %d\n", step);
      return 1;
    }

    if (step >= kWarmupSteps) {
      ind_lane.cold.push_back(cold_ind);
      end_lane.cold.push_back(cold_end);
      cqa_lane.cold.push_back(cold_cqa);
    }
  }

  TablePrinter table({"request", "warm", "cold", "speedup"});
  auto report = [&](const std::string& name, const Lane& lane) {
    double warm_s = Median(lane.warm);
    double cold_s = Median(lane.cold);
    // Per-step ratios: both sides of a ratio measured the same cycle
    // position (identical instance state), so the median ratio is
    // steadier than a ratio of medians.
    std::vector<double> ratios;
    for (size_t i = 0; i < lane.warm.size(); ++i) {
      if (lane.warm[i] > 0) ratios.push_back(lane.cold[i] / lane.warm[i]);
    }
    double speedup = Median(ratios);
    table.AddRow({name, Ms(warm_s), Ms(cold_s),
                  StrFormat("%.1fx", speedup)});
    reporter.AddRow(name)
        .Metric("warm_seconds", warm_s)
        .Metric("cold_seconds", cold_s)
        .Metric("speedup", speedup);
    return speedup;
  };
  double ind_speedup = report("repair_independent", ind_lane);
  report("repair_end", end_lane);
  report("cqa_independent", cqa_lane);
  table.Print();

  IncrementalEngine::Stats stats = warm->stats();
  std::printf("warm engine: %llu syncs (%llu incremental, %llu cold"
              " rebuilds)\n",
              static_cast<unsigned long long>(stats.syncs),
              static_cast<unsigned long long>(stats.incremental_syncs),
              static_cast<unsigned long long>(stats.cold_rebuilds));
  reporter.AddRow("warm_engine_counters")
      .Metric("incremental_syncs",
              static_cast<int64_t>(stats.incremental_syncs))
      .Metric("cold_rebuilds", static_cast<int64_t>(stats.cold_rebuilds));

  if (BenchScale() >= 1.0 && ind_speedup < 3.0) {
    std::fprintf(stderr,
                 "steady-state independent repair speedup %.1fx is below "
                 "the 3x acceptance bar at DR_SCALE>=1\n",
                 ind_speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace deltarepair

int main() { return deltarepair::Main(); }
