// batch_mas: cold batch repair through the CLI path. CSV import +
// ParseProgram + RepairEngine::Create on MAS ×25, then programs 5, 8, 14,
// 15 and 20 under every semantics through Execute + WriteOutcomeJson, and
// cold CQA on program 20 through AnswerQuery + WriteCqaResultJson. The
// same measurement (ColdRun) gives serve_mixed its per-semantics metrics.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>

#include "common/json_writer.h"
#include "common/random.h"
#include "cqa/cqa.h"
#include "datalog/parser.h"
#include "perfbench/bench.h"
#include "perfbench/workloads.h"
#include "relation/csv.h"
#include "service/report.h"
#include "workload/programs.h"

namespace perfbench {

std::vector<std::string> MasQueries(int64_t hub_pub_pid) {
  return {"Q(p, t) :- Publication(p, t), Cite(c, p).",
          "Q(p, t) :- Publication(p, t), Cite(c, p), p = " +
              std::to_string(hub_pub_pid) + "."};
}

namespace {

namespace fs = std::filesystem;
using namespace deltarepair;

/// MAS ×25 (249,633 tuples): the largest scale at which every Min-Ones
/// call stays well under kSolveLimitSeconds. The instance seed is fixed,
/// so repair sizes repeat exactly across runs.
constexpr double kScale = 25;
constexpr uint64_t kBaseSeed = 42;
constexpr int kPrograms[] = {5, 8, 14, 15, 20};
constexpr size_t kCqaProgram = 4;  // program 20
constexpr int kStepKind = 2;
constexpr int kIndependentKind = 3;
constexpr int kSetupReps = 5;
/// A kind's minimum time per cycle is the measuring time / kCycleSlots:
/// cheap passes repeat within a cycle, expensive ones run once.
constexpr double kCycleSlots = 20;

struct Inputs {
  std::string data_dir;
  std::vector<std::string> program_files;
  std::vector<std::string> queries;
  uint64_t live_tuples = 0;
};

/// Generates the instance, writes it and the program texts to `dir`, and
/// drops the generator state before returning.
Inputs Generate(const std::string& dir) {
  Inputs in;
  in.data_dir = dir + "/data";
  MasConfig config;
  config.seed = kBaseSeed;
  MasData mas = GenerateMas(config.Scaled(kScale));
  in.queries = MasQueries(mas.hubs.hub_pub_pid);
  in.live_tuples = mas.db.TotalLive();
  fs::create_directories(in.data_dir);
  for (uint32_t r = 0; r < mas.db.num_relations(); ++r) {
    WriteFile(in.data_dir + "/" + mas.db.relation(r).name() + ".csv",
              RelationToCsv(mas.db, r));
  }
  for (int num : kPrograms) {
    std::string path = dir + "/program" + std::to_string(num) + ".dl";
    WriteFile(path, MasProgram(num, mas.hubs).ToString());
    in.program_files.push_back(path);
  }
  return in;
}

/// The CLI's ready state: one database, one engine per program.
struct Loaded {
  std::unique_ptr<Database> db;
  std::vector<RepairEngine> engines;
  double import_s = 0;
  double total_s = 0;
};

bool Load(const Inputs& in, Loaded* out) {
  const double t0 = NowSec();
  out->db = std::make_unique<Database>();
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(in.data_dir)) {
    if (entry.path().extension() == ".csv") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  {
    Span span("bench.import");
    for (const std::string& path : files) {
      if (!LoadCsvFile(out->db.get(), path).ok()) return false;
    }
  }
  out->import_s = NowSec() - t0;
  for (const std::string& path : in.program_files) {
    StatusOr<Program> program = [&] {
      Span span("bench.parse");
      return ParseProgram(ReadFile(path));
    }();
    if (!program.ok()) return false;
    StatusOr<RepairEngine> engine =
        RepairEngine::Create(out->db.get(), std::move(program).value());
    if (!engine.ok()) return false;
    out->engines.push_back(std::move(engine).value());
  }
  out->total_s = NowSec() - t0;
  return true;
}

bool VerdictsConsistent(const CqaResult& r) {
  for (const CqaAnswer& a : r.answers) {
    if (a.certain && !a.possible) return false;
  }
  return r.stats.answers == r.answers.size();
}

/// Checks that need only the op itself; counts one attempt.
void CheckOp(int kind, const ColdOp& op, RunResult* res) {
  ++res->attempted;
  if (kind != kCqaKind) {
    const RepairOutcome& o = op.repair;
    if (!o.ok()) return res->Fail("repair status " + o.status.ToString());
    if (o.termination != TerminationReason::kComplete) {
      return res->Fail(std::string("repair termination ") +
                       TerminationReasonName(o.termination));
    }
    if (o.result.stats.solve_seconds >= kSolveLimitSeconds) {
      return res->Fail("repair solve_seconds at the Min-Ones limit");
    }
    return;
  }
  const CqaResult& r = op.cqa;
  if (!r.ok()) return res->Fail("cqa status " + r.status.ToString());
  if (r.termination != TerminationReason::kComplete) {
    return res->Fail(std::string("cqa termination ") +
                     TerminationReasonName(r.termination));
  }
  if (r.stats.repair.solve_seconds >= kSolveLimitSeconds) {
    return res->Fail("cqa solve_seconds at the Min-Ones limit");
  }
  if (!VerdictsConsistent(r)) {
    return res->Fail("cqa verdicts: certain not within possible");
  }
  if (r.stats.undecided_answers > 0) {
    return res->Fail("cqa left answers undecided");
  }
}

bool SameOutput(int kind, const ColdOp& a, const ColdOp& b) {
  if (kind != kCqaKind) {
    return a.repair.result.deleted == b.repair.result.deleted;
  }
  if (a.cqa.answers.size() != b.cqa.answers.size()) return false;
  for (size_t i = 0; i < a.cqa.answers.size(); ++i) {
    const CqaAnswer& x = a.cqa.answers[i];
    const CqaAnswer& y = b.cqa.answers[i];
    if (x.values != y.values || x.certain != y.certain ||
        x.possible != y.possible) {
      return false;
    }
  }
  return true;
}

}  // namespace

ColdRun::ColdRun(const Args& args, Database* db,
                 std::vector<RepairEngine>* engines,
                 const std::vector<std::string>& queries, size_t cqa_engine,
                 double total_seconds)
    : args_(args),
      db_(db),
      engines_(engines),
      queries_(queries),
      cqa_engine_(cqa_engine),
      kind_seconds_(total_seconds / kCycleSlots) {
  out_.cqa_ms.resize(OpsIn(kCqaKind));
  // --seed orders the requests within a pass; the instance is fixed.
  for (int kind = 0; kind < kNumKinds; ++kind) {
    first_[kind].assign(OpsIn(kind), ColdOp());
    order_[kind].resize(OpsIn(kind));
    for (size_t i = 0; i < order_[kind].size(); ++i) order_[kind][i] = i;
    Rng rng(MixSeed(args_.seed, static_cast<uint64_t>(kind) + 1));
    for (size_t i = order_[kind].size(); i > 1; --i) {
      std::swap(order_[kind][i - 1], order_[kind][rng.NextBounded(i)]);
    }
  }
}

size_t ColdRun::OpsIn(int kind) const {
  return kind == kCqaKind ? queries_.size() * 2 : engines_->size();
}

void ColdRun::Measure(double seconds, RunResult* res) {
  const double start = NowSec();
  do {
    for (int kind = 0; kind < kNumKinds; ++kind) {
      const double kind_start = NowSec();
      do {
        double pass = 0;
        for (size_t i : order_[kind]) {
          ColdOp op = RunOne(kind, i);
          pass += op.wall_s;
          if (kind == kCqaKind) {
            out_.cqa_ms[i].push_back(op.wall_s * 1e3);
            for (const CqaAnswer& a : op.cqa.answers) {
              out_.verdicts += 2;
              out_.undecided += !a.certain_decided + !a.possible_decided;
            }
          }
          CheckOp(kind, op, res);
          if (out_.pass_s[kind].empty()) {
            Record(kind, op);
            first_[kind][i] = std::move(op);
          } else if (!SameOutput(kind, first_[kind][i], op)) {
            res->Fail("request output changed between passes");
          }
        }
        out_.pass_s[kind].push_back(pass);
      } while (NowSec() - kind_start < kind_seconds_);
    }
  } while (NowSec() - start < seconds);
}

ColdPass ColdRun::Finish(RunResult* res) {
  if (args_.negative_control) {
    // One emptied deletion set, one impossible verdict.
    first_[kIndependentKind][0].repair.result.deleted.clear();
    for (ColdOp& op : first_[kCqaKind]) {
      if (!op.cqa.answers.empty()) {
        op.cqa.answers[0].certain = true;
        op.cqa.answers[0].possible = false;
        break;
      }
    }
  }
  for (const ColdOp& op : first_[kCqaKind]) {
    if (!VerdictsConsistent(op.cqa)) {
      res->Fail("cqa verdicts: certain not within possible");
    }
  }
  for (size_t p = 0; p < engines_->size(); ++p) {
    const RepairResult* r[4];
    for (int k = 0; k < 4; ++k) r[k] = &first_[k][p].repair.result;
    CheckSemantics(db_, (*engines_)[p].program(), r,
                   "program " + std::to_string(p), res);
    out_.ind_deleted += r[kIndependentKind]->size();
    out_.step_deleted += r[kStepKind]->size();
  }
  return out_;
}

void ColdRun::Traced(double untraced_s, RunResult* res) {
  // Spans are collected and cleared after every op.
  Trace::Clear();
  Trace::Enable(true);
  SpanTotals totals;
  double traced_s = 0;
  uint64_t dropped = 0;
  double unattributed[2] = {0, 0}, op_s[2] = {0, 0};
  uint64_t id = 0;
  for (int kind = 0; kind < kNumKinds; ++kind) {
    for (size_t i = 0; i < OpsIn(kind); ++i) {
      ColdOp op;
      {
        TraceIdScope scope(++id);
        op = RunOne(kind, i);
      }
      traced_s += op.wall_s;
      SpanTotals t = AggregateSpans(Trace::CollectTrace(id));
      Trace::Clear();
      const bool is_cqa = kind == kCqaKind;
      const uint64_t want_solve = is_cqa
                                      ? op.cqa.stats.repair.sat_solve_calls
                                      : op.repair.result.stats.sat_solve_calls;
      const uint64_t want_judge = is_cqa ? op.cqa.answers.size() : 0;
      dropped += AbsDiff(t.sat_solve, want_solve) +
                 AbsDiff(t.judge_answer, want_judge);
      unattributed[is_cqa] += t.self_s[kUnattributed];
      op_s[is_cqa] += op.wall_s;
      totals.Add(t);
    }
  }
  Trace::Enable(false);
  if (dropped != 0) res->Fail("traced run lost spans");

  res->Add("relation.live_tuples", static_cast<double>(db_->TotalLive()),
           "tuples");
  AddLayerMetrics(out_.sums, 1.0, res);
  res->Add("service.report_s", out_.report_s, "s");
  AddServeOnlyZeros(res);
  AddTraceMetrics(totals, traced_s, dropped, untraced_s,
                  unattributed[0] / std::max(op_s[0], 1e-12),
                  unattributed[1] / std::max(op_s[1], 1e-12), 0.0, res);
}

ColdOp ColdRun::RunOne(int kind, size_t i) {
  ColdOp op;
  const double t0 = NowSec();
  JsonWriter json;
  Span op_span("bench.op");
  if (kind != kCqaKind) {
    RepairEngine& engine = (*engines_)[i];
    {
      Span span("bench.execute");
      op.repair = engine.Execute(RepairRequest{kSemantics[kind]});
    }
    const double r0 = NowSec();
    {
      Span span("bench.report");
      WriteOutcomeJson(json, *db_, op.repair, false);
    }
    op.report_s = NowSec() - r0;
  } else {
    RepairEngine& engine = (*engines_)[cqa_engine_];
    const char* semantics = i % 2 == 0 ? "end" : "independent";
    {
      Span span("bench.execute");
      op.cqa = AnswerQuery(&engine, CqaRequest(semantics, queries_[i / 2]));
    }
    const double r0 = NowSec();
    {
      Span span("bench.report");
      WriteCqaResultJson(json, *db_, op.cqa);
    }
    op.report_s = NowSec() - r0;
  }
  op.wall_s = NowSec() - t0;
  op.response_bytes = json.str().size();
  return op;
}

void ColdRun::Record(int kind, const ColdOp& op) {
  out_.report_s += op.report_s;
  out_.sums.response_kb += static_cast<double>(op.response_bytes) / 1024;
  if (kind == kCqaKind) {
    out_.sums.AddCqa(op.cqa.stats);
    return;
  }
  const RepairStats& st = op.repair.result.stats;
  out_.sums.AddRepair(st, kind == kIndependentKind,
                      op.wall_s - op.report_s -
                          (st.eval_seconds + st.process_prov_seconds +
                           st.solve_seconds + st.traverse_seconds));
}

void AddColdMetrics(const ColdPass& cold, RunResult* res) {
  for (int k = 0; k < 4; ++k) {
    res->Add(std::string(kSemantics[k]) + "_s", Median(cold.pass_s[k]), "s");
  }
  res->Add("cqa_cold_s", Median(cold.pass_s[kCqaKind]), "s");
  res->Add("ind_deleted", static_cast<double>(cold.ind_deleted), "tuples");
  res->Add("step_deleted", static_cast<double>(cold.step_deleted), "tuples");
}

RunResult RunBatch(const Args& args) {
  Inputs in = Generate(args.work_dir);
  ::sync();  // write-back of the inputs must not overlap the timing
  ResetPeakRss();

  // Set-up is repeated and its median reported; the last load is kept.
  RunResult res;
  std::vector<double> setup_s, import_s;
  Loaded loaded;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    loaded = Loaded();
    if (!Load(in, &loaded)) {
      res.attempted = 1;
      res.Fail("set-up failed");
      return res;
    }
    setup_s.push_back(loaded.total_s);
    import_s.push_back(loaded.import_s);
  }
  if (loaded.db->TotalLive() != in.live_tuples) {
    res.attempted = 1;
    res.Fail("imported tuple count differs from the generated instance");
    return res;
  }

  ColdRun run(args, loaded.db.get(), &loaded.engines, in.queries,
              kCqaProgram, args.seconds);
  run.Measure(args.seconds, &res);
  const ColdPass cold = run.Finish(&res);
  const double peak_rss = PeakRssMb();
  double full_pass = 0;
  size_t full_ops = 0;
  for (int kind = 0; kind < kNumKinds; ++kind) {
    full_pass += Median(cold.pass_s[kind]);
    full_ops += run.OpsIn(kind);
  }

  if (args.trace) {
    res.Add("relation.csv_import_s", Median(import_s), "s");
    run.Traced(full_pass, &res);
    return res;
  }
  res.Add("setup_s", Median(setup_s), "s");
  res.Add("peak_rss_mb", peak_rss, "MB");
  res.Add("ok_frac", 1.0 - static_cast<double>(res.failed) /
                               static_cast<double>(res.attempted),
          "ratio");
  res.Add("decided_frac",
          1.0 - static_cast<double>(cold.undecided) /
                    static_cast<double>(std::max<uint64_t>(1, cold.verdicts)),
          "ratio");
  AddColdMetrics(cold, &res);
  res.Add("ops_per_s", static_cast<double>(full_ops) / full_pass, "ops/s");
  // Percentiles over the four CQA requests, each at its median latency:
  // pooled samples of requests this different in size put p50 on the
  // boundary between two of them.
  std::vector<double> cqa_ms;
  for (const std::vector<double>& v : cold.cqa_ms) cqa_ms.push_back(Median(v));
  res.Add("cqa_p50_ms", Percentile(cqa_ms, 50), "ms");
  res.Add("cqa_p95_ms", Percentile(cqa_ms, 95), "ms");
  return res;
}

}  // namespace perfbench
