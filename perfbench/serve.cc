// serve_mixed: an in-process RepairServer over a PersistentStore, driven
// over loopback by two closed-loop clients with seeded op streams (70%
// CQA, 20% updates, 10% repair). After the clients stop, served answers
// are compared with a cold engine on a mirror that applied the same
// updates. The initial instance is also measured cold through the CLI
// path (ColdRun), for the per-semantics metrics.
#include <unistd.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "common/json_writer.h"
#include "common/random.h"
#include "cqa/cqa.h"
#include "datalog/parser.h"
#include "perfbench/bench.h"
#include "perfbench/workloads.h"
#include "relation/csv.h"
#include "repair/stability.h"
#include "service/client.h"
#include "service/report.h"
#include "service/request_codec.h"
#include "service/server.h"
#include "service/store.h"
#include "workload/programs.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace deltarepair;

constexpr double kScale = 10;
constexpr uint64_t kBaseSeed = 42;
constexpr int kProgram = 20;
constexpr int kClients = 2;
constexpr int kWorkers = 2;
constexpr int kSetupReps = 5;
/// Live rows a client keeps inserted; each later insert is paired with
/// deleting the oldest, so the row deleted was inserted 2*kWindow-1
/// updates earlier.
constexpr size_t kWindow = 8;
/// Ops per client in the traced window: small enough that every span of
/// the window fits the rings, so one collection at the end loses none.
constexpr int kTracedOpsPerClient = 24;
/// Semantics of the served hub query. Under "independent" this 1-answer
/// query takes the warm long-lived-solver path (fewer answers than
/// SliceOptions::warm_min_answers), which aborts with std::bad_alloc on
/// this instance; until that is fixed the hub query is served under end.
constexpr const char* kHubSemantics = "end";
/// Time spent in the cold CLI-path pass, and the number of slices it and
/// the untraced served window are cut into.
constexpr double kColdPassSeconds = 10.0;
constexpr int kSlices = 5;

enum OpType { kCqaBig, kCqaHub, kUpdate, kRepairEnd, kRepairInd };
enum OpClass { kClassRepair, kClassCqa, kClassUpdate };
OpClass ClassOf(OpType t) {
  if (t == kCqaBig || t == kCqaHub) return kClassCqa;
  if (t == kUpdate) return kClassUpdate;
  return kClassRepair;
}

struct Inputs {
  std::string store_dir, pristine_dir;
  std::string program_text;
  std::vector<std::string> queries;  // MasQueries: big, then hub
  std::vector<int64_t> pubs;
  std::unordered_set<uint64_t> cites;  // existing (citing, cited) pairs
  uint32_t cite_rel = 0;
};

uint64_t Pack(int64_t a, int64_t b) {
  return (static_cast<uint64_t>(a) << 32) ^ static_cast<uint32_t>(b);
}

bool Generate(const std::string& dir, Inputs* in) {
  MasConfig config;
  config.seed = kBaseSeed;
  MasData mas = GenerateMas(config.Scaled(kScale));
  in->program_text = MasProgram(kProgram, mas.hubs).ToString();
  in->queries = MasQueries(mas.hubs.hub_pub_pid);
  const Database& db = mas.db;
  const int pub = db.RelationIndex(kMasPublication);
  const int cite = db.RelationIndex(kMasCite);
  if (pub < 0 || cite < 0) return false;
  in->cite_rel = static_cast<uint32_t>(cite);
  for (const TupleId& t : db.LiveTupleIds()) {
    if (t.relation == static_cast<uint32_t>(pub)) {
      in->pubs.push_back(db.tuple(t)[0].AsInt());
    } else if (t.relation == static_cast<uint32_t>(cite)) {
      in->cites.insert(Pack(db.tuple(t)[0].AsInt(), db.tuple(t)[1].AsInt()));
    }
  }
  in->store_dir = dir + "/store";
  in->pristine_dir = dir + "/pristine";
  fs::create_directories(in->store_dir);
  fs::create_directories(in->pristine_dir);
  if (!PersistentStore::Create(in->store_dir, std::move(mas.db)).ok()) {
    return false;
  }
  for (const std::string& path :
       {PersistentStore::SnapshotPath(in->store_dir),
        PersistentStore::WalPath(in->store_dir)}) {
    fs::copy_file(path, in->pristine_dir + "/" +
                            fs::path(path).filename().string());
  }
  return true;
}

/// One completed client op, with what its response reported.
struct Sample {
  OpType type;
  double rtt_s = 0;
  uint64_t trace_id = 0;
  uint64_t solve_calls = 0;  // sat_solve_calls in the response stats
  uint64_t answers = 0;
};

/// One closed-loop client: its op stream, samples, and the updates it
/// made (replayed on the mirror).
struct Client {
  int index = 0;
  Rng rng{1};
  std::vector<Sample> samples;
  std::vector<std::pair<bool, Tuple>> updates;  // (is_insert, row)
  std::deque<Tuple> live_rows;
  std::unordered_set<uint64_t> used;
  std::vector<OpType> cycle;
  uint64_t failed = 0;
  uint64_t verdicts = 0, undecided_verdicts = 0;
};

uint64_t Count(const Json& st, std::string_view key) {
  return static_cast<uint64_t>(st.Num(key));
}

/// A served report's stats block as the RepairStats fields LayerSums reads.
RepairStats RepairStatsOf(const Json& st) {
  RepairStats s;
  s.eval_seconds = st.Num("eval_seconds");
  s.process_prov_seconds = st.Num("process_prov_seconds");
  s.solve_seconds = st.Num("solve_seconds");
  s.traverse_seconds = st.Num("traverse_seconds");
  s.total_seconds = st.Num("total_seconds");
  s.assignments = Count(st, "assignments");
  s.iterations = Count(st, "iterations");
  s.cnf_clauses = Count(st, "cnf_clauses");
  s.sat_conflicts = Count(st, "sat_conflicts");
  s.sat_solve_calls = Count(st, "sat_solve_calls");
  s.sat_inprocess_runs = Count(st, "sat_inprocess_runs");
  s.sat_eliminated_vars = Count(st, "sat_eliminated_vars");
  s.optimal = st.Bool("optimal");
  return s;
}

/// A served CQA report's stats block as the CqaStats fields LayerSums
/// reads (the report carries no solve time).
CqaStats CqaStatsOf(const Json& st) {
  CqaStats s;
  s.ground_seconds = st.Num("ground_seconds");
  s.space_seconds = st.Num("space_seconds");
  s.entail_seconds = st.Num("entail_seconds");
  s.answers = Count(st, "answers");
  s.undecided_answers = Count(st, "undecided_answers");
  s.slice.cone_seconds = st.Num("cone_seconds");
  s.slice.slice_seconds = st.Num("slice_seconds");
  s.slice.cone_clauses = Count(st, "cone_clauses");
  s.slice.sliced_solve_calls = Count(st, "sliced_solve_calls");
  s.slice.slice_fallbacks = Count(st, "slice_fallbacks");
  s.repair.sat_conflicts = Count(st, "sat_conflicts");
  s.repair.sat_solve_calls = Count(st, "sat_solve_calls");
  s.repair.sat_inprocess_runs = Count(st, "sat_inprocess_runs");
  s.repair.sat_eliminated_vars = Count(st, "sat_eliminated_vars");
  return s;
}

/// Checks one served CQA report; returns the failure, or "" when it holds.
std::string CheckCqa(const Json& j, CqaStats* stats, Client* c,
                     Sample* sample) {
  const Json* answers = j.Get("answers");
  const Json* st = j.Get("stats");
  if (answers == nullptr || answers->type != Json::Type::kArray ||
      st == nullptr) {
    return "malformed cqa response";
  }
  *stats = CqaStatsOf(*st);
  sample->solve_calls = stats->repair.sat_solve_calls;
  sample->answers = answers->items.size();
  std::string why;
  for (const Json& a : answers->items) {
    c->verdicts += 2;
    c->undecided_verdicts +=
        !a.Bool("certain_decided") + !a.Bool("possible_decided");
    if (a.Bool("certain") && !a.Bool("possible")) {
      why = "cqa verdicts: certain not within possible";
    }
  }
  if (j.Str("termination") != "complete") {
    why = "cqa termination " + j.Str("termination");
  } else if (stats->undecided_answers > 0) {
    why = "cqa left answers undecided";
  } else if (stats->answers != sample->answers) {
    why = "cqa answer count disagrees with its stats";
  }
  return why;
}

/// Checks one served repair report; returns the failure, or "".
std::string CheckRepair(const Json& j, RepairStats* stats, Sample* sample) {
  const Json* st = j.Get("stats");
  if (st == nullptr) return "malformed repair response";
  *stats = RepairStatsOf(*st);
  sample->solve_calls = stats->sat_solve_calls;
  if (j.Str("termination") != "complete") {
    return "repair termination " + j.Str("termination");
  }
  if (stats->solve_seconds >= kSolveLimitSeconds) {
    return "repair solve_seconds at the Min-Ones limit";
  }
  return "";
}

class ServeRun {
 public:
  ServeRun(const Inputs& in, int port) : in_(in), port_(port) {}

  /// Closed loop: each client sends its next op when the previous one
  /// returns, until `deadline`, or for `ops` ops when `ops` > 0. A
  /// nonzero `trace_base` gives every op a trace id.
  void Drive(std::vector<Client>* clients, double deadline, int ops,
             uint64_t trace_base) {
    std::vector<std::thread> threads;
    for (Client& c : *clients) {
      threads.emplace_back([this, &c, deadline, ops, trace_base] {
        for (int n = 1; ops > 0 ? n <= ops : NowSec() < deadline; ++n) {
          const uint64_t id =
              trace_base == 0
                  ? 0
                  : trace_base + (static_cast<uint64_t>(c.index) << 24) +
                        static_cast<uint64_t>(n);
          RunOp(&c, NextType(&c), id);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  LayerSums sums() {
    std::lock_guard<std::mutex> lock(sums_mu_);
    return sums_;
  }

 private:
  /// Ops come in shuffled cycles of 20 with a fixed composition, so
  /// every window runs the same mix: 70% CQA (9 big, 5 hub, so the CQA
  /// median falls inside the big query's latencies), 20% updates, 5%
  /// end repair, 5% independent repair.
  static OpType NextType(Client* c) {
    if (c->cycle.empty()) {
      for (int i = 0; i < 9; ++i) c->cycle.push_back(kCqaBig);
      for (int i = 0; i < 5; ++i) c->cycle.push_back(kCqaHub);
      for (int i = 0; i < 4; ++i) c->cycle.push_back(kUpdate);
      c->cycle.push_back(kRepairEnd);
      c->cycle.push_back(kRepairInd);
      for (size_t i = c->cycle.size(); i > 1; --i) {
        std::swap(c->cycle[i - 1], c->cycle[c->rng.NextBounded(i)]);
      }
    }
    const OpType t = c->cycle.back();
    c->cycle.pop_back();
    return t;
  }

  /// A fresh Cite row between existing publications. Client c owns the
  /// rows whose citing publication id has parity c, so the clients'
  /// rows are disjoint and the end state does not depend on interleaving.
  Tuple FreshCite(Client* c) {
    for (;;) {
      const int64_t a = in_.pubs[c->rng.NextBounded(in_.pubs.size())];
      const int64_t b = in_.pubs[c->rng.NextBounded(in_.pubs.size())];
      if ((a & 1) != c->index || a == b) continue;
      const uint64_t key = Pack(a, b);
      if (in_.cites.count(key) != 0 || !c->used.insert(key).second) continue;
      return Tuple{Value(a), Value(b)};
    }
  }

  void RunOp(Client* c, OpType type, uint64_t trace_id) {
    std::string payload;
    FrameType frame = FrameType::kCqaRequest;
    UpdateRequest update;
    if (ClassOf(type) == kClassCqa) {
      CqaRequest request(type == kCqaBig ? "independent" : kHubSemantics,
                         in_.queries[type == kCqaBig ? 0 : 1]);
      request.trace_id = trace_id;
      payload = EncodeCqaRequest(request);
    } else if (type == kUpdate) {
      frame = FrameType::kUpdateRequest;
      update.relation = kMasCite;
      if (c->live_rows.size() >= kWindow && c->updates.size() % 2 == 1) {
        update.op = WalOp::kDelete;
        update.tuples = {c->live_rows.front()};
      } else {
        update.op = WalOp::kInsert;
        update.tuples = {FreshCite(c)};
      }
      payload = EncodeUpdateRequest(update);
    } else {
      RepairRequest request(type == kRepairEnd ? "end" : "independent");
      request.trace_id = trace_id;
      frame = FrameType::kRepairRequest;
      payload = EncodeRepairRequest(request);
    }

    const double t0 = NowSec();
    StatusOr<std::string> reply = [&] {
      TraceIdScope scope(trace_id);
      Span span("bench.op");
      return CallServerJson(port_, frame, payload);
    }();
    Sample sample{type, NowSec() - t0, trace_id};

    std::string why;
    Json j;
    RepairStats repair;
    CqaStats cqa;
    if (!reply.ok()) {
      why = "request failed: " + reply.status().ToString();
    } else if (!ParseJson(reply.value(), &j)) {
      why = "unparsable response";
    } else if (type == kUpdate) {
      if (!j.Bool("ok")) why = "update not acknowledged";
    } else if (ClassOf(type) == kClassCqa) {
      why = CheckCqa(j, &cqa, c, &sample);
    } else {
      why = CheckRepair(j, &repair, &sample);
    }
    if (reply.ok()) {
      std::lock_guard<std::mutex> lock(sums_mu_);
      sums_.response_kb += static_cast<double>(reply.value().size()) / 1024;
      if (ClassOf(type) == kClassCqa) sums_.AddCqa(cqa);
      if (ClassOf(type) == kClassRepair) {
        sums_.AddRepair(repair, type == kRepairInd,
                        repair.total_seconds -
                            (repair.eval_seconds +
                             repair.process_prov_seconds +
                             repair.solve_seconds + repair.traverse_seconds));
      }
    }
    if (type == kUpdate && reply.ok()) {
      c->updates.emplace_back(update.op == WalOp::kInsert, update.tuples[0]);
      if (update.op == WalOp::kInsert) {
        c->live_rows.push_back(update.tuples[0]);
      } else {
        c->live_rows.pop_front();
      }
    }
    c->samples.push_back(sample);
    if (!why.empty()) {
      ++c->failed;
      std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
    }
  }

  const Inputs& in_;
  int port_;
  std::mutex sums_mu_;
  LayerSums sums_;  // over every served op's report
};

std::string StatsFree(const std::string& json) {
  return json.substr(0, json.find("\"stats\":"));
}

/// The final check's requests: every semantics, and the big query under
/// end and independent, the hub query under kHubSemantics.
struct FinalRequest {
  bool cqa;
  const char* semantics;
  const std::string* query;
};

std::vector<FinalRequest> FinalRequests(const Inputs& in) {
  std::vector<FinalRequest> out;
  for (const char* s : kSemantics) out.push_back({false, s, nullptr});
  out.push_back({true, "end", &in.queries[0]});
  out.push_back({true, "independent", &in.queries[0]});
  out.push_back({true, kHubSemantics, &in.queries[1]});
  return out;
}

/// A final-check repair request. The engine that serves it also checks its
/// deletion set with IsStabilizingSet and reports verified_stabilizing.
RepairRequest FinalRepair(const char* semantics) {
  RepairRequest request(semantics);
  request.options.verify_after_run = true;
  return request;
}

/// Cold answer for one final-check request on `engine`'s current state.
std::string ColdJson(RepairEngine* engine, const FinalRequest& r,
                     RepairOutcome* outcome) {
  JsonWriter json;
  if (r.cqa) {
    WriteCqaResultJson(
        json, *engine->db(),
        AnswerQueryOnSnapshot(engine, CqaRequest(r.semantics, *r.query)));
  } else {
    *outcome = engine->Execute(FinalRepair(r.semantics));
    WriteOutcomeJson(json, *engine->db(), *outcome, false);
  }
  return json.str();
}

/// Every live row of `db` as "relation,csv row", sorted, so two instances
/// with the same content compare equal whatever their tuple ids.
std::vector<std::string> SortedRows(const Database& db) {
  std::vector<std::string> rows;
  for (uint32_t r = 0; r < db.num_relations(); ++r) {
    std::istringstream csv(RelationToCsv(db, r));
    std::string line;
    while (std::getline(csv, line)) {
      rows.push_back(db.relation(r).name() + "," + line);
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

double Frac(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

RunResult RunServe(const Args& args) {
  RunResult res;
  Inputs in;
  if (!Generate(args.work_dir, &in)) {
    res.attempted = 1;
    res.Fail("instance generation failed");
    return res;
  }
  ::sync();  // write-back of the store must not overlap the timing
  // The cold pass's instance: the initial store through the CLI path. It
  // stays loaded through the run, so peak_rss_mb includes it.
  auto cold_store = PersistentStore::Open(in.pristine_dir);
  StatusOr<Program> cold_program = ParseProgram(in.program_text);
  std::vector<RepairEngine> cold_engines;
  if (cold_store.ok() && cold_program.ok()) {
    StatusOr<RepairEngine> engine = RepairEngine::Create(
        &cold_store.value()->db(), std::move(cold_program).value());
    if (engine.ok()) cold_engines.push_back(std::move(engine).value());
  }
  if (cold_engines.empty()) {
    res.attempted = 1;
    res.Fail("cold instance failed to load");
    return res;
  }
  ColdRun cold_run(args, &cold_store.value()->db(), &cold_engines,
                   in.queries, 0, kColdPassSeconds);
  ResetPeakRss();

  // Set-up: Open (snapshot load + WAL replay) + Start (eager warm
  // build), repeated; the last server is kept.
  std::vector<double> setup_s, open_s, start_s;
  std::unique_ptr<RepairServer> server;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    const double t0 = NowSec();
    auto store = PersistentStore::Open(in.store_dir);
    const double t1 = NowSec();
    StatusOr<Program> program = ParseProgram(in.program_text);
    if (!store.ok() || !program.ok()) {
      res.attempted = 1;
      res.Fail("store or program failed to load");
      return res;
    }
    ServerOptions options;
    options.workers = kWorkers;
    auto started = RepairServer::Start(std::move(store).value(),
                                       std::move(program).value(), options);
    const double t2 = NowSec();
    if (!started.ok()) {
      res.attempted = 1;
      res.Fail("server failed to start: " + started.status().ToString());
      return res;
    }
    server = std::move(started).value();
    setup_s.push_back(t2 - t0);
    open_s.push_back(t1 - t0);
    start_s.push_back(t2 - t1);
  }

  ServeRun run(in, server->port());
  std::vector<Client> clients(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients[i].index = i;
    clients[i].rng = Rng(MixSeed(args.seed + 1, static_cast<uint64_t>(i) + 1));
  }
  const std::string wal_path = PersistentStore::WalPath(in.store_dir);
  const uint64_t wal_before = FileSize(wal_path);

  // Untraced window: the end-to-end numbers. Host speed drifts over tens
  // of seconds, so the window and the cold pass alternate in kSlices
  // slices and both sample the whole run.
  double window_s = 0;
  for (int slice = 0; slice < kSlices; ++slice) {
    cold_run.Measure(kColdPassSeconds / kSlices, &res);
    const double w0 = NowSec();
    run.Drive(&clients, w0 + args.seconds / kSlices, 0, 0);
    window_s += NowSec() - w0;
  }
  const double peak_rss = PeakRssMb();
  const ColdPass cold = cold_run.Finish(&res);
  const uint64_t wal_growth = FileSize(wal_path) - wal_before;

  std::vector<double> cqa_ms, update_ms;
  std::vector<double> rtt_by_class[3];
  const LayerSums sums = run.sums();
  uint64_t verdicts = 0, undecided_verdicts = 0;
  std::vector<size_t> window_ops(kClients);
  std::vector<uint64_t> window_failed(kClients);
  uint64_t window_total = 0;
  for (int i = 0; i < kClients; ++i) {
    const Client& c = clients[i];
    window_ops[i] = c.samples.size();
    window_total += c.samples.size();
    window_failed[i] = c.failed;
    for (const Sample& s : c.samples) {
      rtt_by_class[ClassOf(s.type)].push_back(s.rtt_s);
      if (ClassOf(s.type) == kClassCqa) cqa_ms.push_back(s.rtt_s * 1e3);
      if (s.type == kUpdate) update_ms.push_back(s.rtt_s * 1e3);
    }
    res.attempted += c.samples.size();
    res.failed += c.failed;
    verdicts += c.verdicts;
    undecided_verdicts += c.undecided_verdicts;
  }

  // Traced window: a fixed op count per client; spans are collected once
  // at its end, which the ring capacity allows for this many ops.
  SpanTotals totals;
  double traced_s = 0, untraced_s = 0;
  double op_s[3] = {0, 0, 0}, unattributed[3] = {0, 0, 0};
  double wire_s = 0, warm_cqa_self_s = 0, warm_sync_s = 0;
  double wal_append_s = 0, lock_wait_s = 0;
  uint64_t dropped = 0, traced_ops = 0, traced_updates = 0;
  if (args.trace) {
    double mean_rtt[3];
    for (int k = 0; k < 3; ++k) {
      double sum = 0;
      for (double v : rtt_by_class[k]) sum += v;
      mean_rtt[k] = Frac(sum, static_cast<double>(rtt_by_class[k].size()));
    }
    Trace::Clear();
    Trace::Enable(true);
    run.Drive(&clients, 0, kTracedOpsPerClient, uint64_t{1} << 40);
    Trace::Enable(false);
    std::map<uint64_t, std::vector<TraceEvent>> by_id;
    for (const TraceEvent& ev : Trace::Collect()) {
      by_id[ev.trace_id].push_back(ev);
    }
    Trace::Clear();
    // Update frames carry no trace id: their server-side spans are the
    // ones recorded outside any trace scope.
    SpanTotals update_side = AggregateSpans(by_id[0]);
    totals.Add(update_side);
    for (int i = 0; i < kClients; ++i) {
      const Client& c = clients[i];
      for (size_t s = window_ops[i]; s < c.samples.size(); ++s) {
        const Sample& sample = c.samples[s];
        const int k = ClassOf(sample.type);
        SpanTotals t = AggregateSpans(by_id[sample.trace_id]);
        // The client span covers the whole round trip; what the server
        // spans cover is theirs, the rest is wire and framing.
        const double served =
            k == kClassUpdate ? 0.0
                              : t.dur_s["server.request"] +
                                    t.dur_s["server.queue_wait"];
        t.self_s[kUnattributed] =
            std::max(0.0, t.self_s[kUnattributed] - served);
        if (k == kClassUpdate) {
          t.self_s[kUnattributed] = 0;  // settled from update_side below
          ++traced_updates;
        } else {
          wire_s += t.self_s[kUnattributed];
          unattributed[k] += t.self_s[kUnattributed];
          const uint64_t want_judge = k == kClassCqa ? sample.answers : 0;
          dropped += AbsDiff(t.sat_solve, sample.solve_calls) +
                     AbsDiff(t.judge_answer, want_judge);
        }
        warm_cqa_self_s += t.self_by_name["warm.cqa"];
        warm_sync_s += t.self_by_name["warm.sync"];
        totals.Add(t);
        traced_s += sample.rtt_s;
        untraced_s += mean_rtt[k];
        op_s[k] += sample.rtt_s;
        ++traced_ops;
      }
    }
    unattributed[kClassUpdate] = std::max(
        0.0, op_s[kClassUpdate] - update_side.dur_s["server.request"] -
                 update_side.dur_s["server.queue_wait"]);
    totals.self_s[kUnattributed] += unattributed[kClassUpdate];
    wire_s += unattributed[kClassUpdate];
    wal_append_s = update_side.dur_s["wal.append"];
    lock_wait_s = update_side.self_by_name["server.execute"];
    if (dropped != 0) res.Fail("traced run lost spans");
    for (int i = 0; i < kClients; ++i) {
      res.attempted += clients[i].samples.size() - window_ops[i];
      res.failed += clients[i].failed - window_failed[i];
    }
  }

  // Final check: after the clients stop, served answers must equal a cold
  // engine on a mirror that applied the same updates. Served repair
  // reports carry sizes and per-relation counts but no tuples, so each
  // served set is also verified stabilizing by the server, and deleted
  // tuples are compared through one applied end repair at the end.
  const std::vector<FinalRequest> finals = FinalRequests(in);
  std::vector<std::string> served;
  for (const FinalRequest& r : finals) {
    ++res.attempted;
    StatusOr<std::string> reply =
        r.cqa ? CallServerJson(
                    server->port(), FrameType::kCqaRequest,
                    EncodeCqaRequest(CqaRequest(r.semantics, *r.query)))
              : CallServerJson(server->port(), FrameType::kRepairRequest,
                               EncodeRepairRequest(FinalRepair(r.semantics)));
    served.push_back(reply.ok() ? reply.value() : std::string());
    if (!reply.ok()) res.Fail("final served request failed");
  }
  RepairRequest apply("end");
  apply.apply = true;
  ++res.attempted;
  StatusOr<std::string> applied = CallServerJson(
      server->port(), FrameType::kRepairRequest, EncodeRepairRequest(apply));
  Json applied_json;
  if (!applied.ok() || !ParseJson(applied.value(), &applied_json) ||
      !applied_json.Bool("applied")) {
    res.Fail("served applied end repair failed");
  }
  const RepairServer::Stats server_stats = server->stats();
  const IncrementalEngine::Stats warm = server->incremental_stats();
  server->Drain();

  // The mirror: the initial store with every client's updates replayed.
  auto mirror = PersistentStore::Open(in.pristine_dir);
  StatusOr<Program> program = ParseProgram(in.program_text);
  if (!mirror.ok() || !program.ok()) {
    res.Fail("mirror failed to load");
    return res;
  }
  Database* db = &mirror.value()->db();
  StatusOr<RepairEngine> engine =
      RepairEngine::Create(db, std::move(program).value());
  if (!engine.ok()) {
    res.Fail("mirror engine failed");
    return res;
  }

  for (const Client& c : clients) {
    for (const auto& [is_insert, row] : c.updates) {
      db->ApplyUpdate(in.cite_rel, is_insert, {row});
    }
  }
  const uint64_t live_tuples = db->TotalLive();
  if (args.negative_control) {
    // Turn one served verdict impossible: the comparison must catch it.
    for (std::string& reply : served) {
      const size_t at = reply.find("\"possible\":true");
      if (at != std::string::npos) {
        reply.replace(at, 15, "\"possible\":false");
        break;
      }
    }
  }
  RepairOutcome outcomes[4];
  for (size_t f = 0; f < finals.size(); ++f) {
    RepairOutcome outcome;
    const std::string want = ColdJson(&engine.value(), finals[f], &outcome);
    if (StatsFree(want) != StatsFree(served[f])) {
      res.Fail(std::string("served ") + (finals[f].cqa ? "cqa " : "repair ") +
               finals[f].semantics + " differs from the cold mirror");
    }
    if (finals[f].cqa) continue;
    Json j;
    if (!ParseJson(served[f], &j) || !j.Bool("verified_stabilizing")) {
      res.Fail(std::string("served ") + finals[f].semantics +
               " repair is not verified stabilizing");
    }
    outcomes[f] = std::move(outcome);
  }
  const RepairResult* results[4];
  for (int k = 0; k < 4; ++k) results[k] = &outcomes[k].result;
  CheckSemantics(db, engine->program(), results, "the mirror", &res);

  // After the applied end repair, the served instance must hold exactly
  // the mirror's rows minus the mirror's end set, and be stable.
  const RepairOutcome mirror_end = engine->Execute(apply);
  Database& served_db = server->store().db();
  if (args.negative_control && !mirror_end.result.deleted.empty()) {
    // Put back one tuple the served repair deleted: both checks must
    // catch it.
    const TupleId t = mirror_end.result.deleted.front();
    served_db.ApplyUpdate(t.relation, true, {db->tuple(t)});
  }
  if (SortedRows(served_db) != SortedRows(*db)) {
    res.Fail("served instance after the applied end repair differs from "
             "the mirror's");
  }
  // Both instances come from one snapshot, so the mirror's resolved
  // program fits the served one.
  if (!IsStable(&served_db, engine->program())) {
    res.Fail("served instance is not stable after the applied end repair");
  }
  server.reset();

  if (!args.trace) {
    res.Add("setup_s", Median(setup_s), "s");
    res.Add("peak_rss_mb", peak_rss, "MB");
    res.Add("ok_frac",
            1.0 - Frac(static_cast<double>(res.failed),
                       static_cast<double>(res.attempted)),
            "ratio");
    res.Add("decided_frac",
            1.0 - Frac(static_cast<double>(undecided_verdicts),
                       static_cast<double>(verdicts)),
            "ratio");
    AddColdMetrics(cold, &res);
    res.Add("ops_per_s", static_cast<double>(window_total) / window_s,
            "ops/s");
    res.Add("cqa_p50_ms", Percentile(cqa_ms, 50), "ms");
    res.Add("cqa_p95_ms", Percentile(cqa_ms, 95), "ms");
    return res;
  }

  // Per-layer: response-stats sums are reported per served op.
  const double n = static_cast<double>(std::max<uint64_t>(1, window_total));
  res.Add("relation.csv_import_s", 0, "s");
  res.Add("relation.live_tuples", static_cast<double>(live_tuples),
          "tuples");
  AddLayerMetrics(sums, 1.0 / n, &res);
  res.Add("service.report_s",
          totals.dur_s["server.encode"] /
              std::max<double>(1, static_cast<double>(traced_ops)),
          "s");
  res.Add("service.snapshot_load_s", Median(open_s), "s");
  res.Add("service.warm_build_s", Median(start_s), "s");
  const double updates = static_cast<double>(update_ms.size());
  const double traced_upd = static_cast<double>(std::max<uint64_t>(1, traced_updates));
  res.Add("service.update_p50_ms", Percentile(update_ms, 50), "ms");
  res.Add("service.update_p95_ms", Percentile(update_ms, 95), "ms");
  res.Add("service.wal_append_ms", wal_append_s * 1e3 / traced_upd, "ms");
  res.Add("service.wal_bytes_per_update",
          Frac(static_cast<double>(wal_growth), updates), "bytes");
  res.Add("service.update_lock_wait_ms", lock_wait_s * 1e3 / traced_upd, "ms");
  res.Add("service.queue_wait_ms",
          Frac(server_stats.queue_wait_seconds * 1e3,
               static_cast<double>(server_stats.served)),
          "ms");
  res.Add("service.rejected", static_cast<double>(server_stats.rejected_overload),
          "count");
  res.Add("service.request_errors",
          static_cast<double>(server_stats.request_errors), "count");
  res.Add("service.wire_ms",
          wire_s * 1e3 / std::max<double>(1, static_cast<double>(traced_ops)),
          "ms");
  const double traced_cqa =
      std::max(1.0, static_cast<double>(traced_ops - traced_updates));
  res.Add("service.warm_cqa_self_ms", warm_cqa_self_s * 1e3 / traced_cqa, "ms");
  res.Add("service.warm_sync_ms", warm_sync_s * 1e3 / traced_cqa, "ms");
  res.Add("service.verdict_cache_hit_frac",
          Frac(static_cast<double>(warm.verdict_cache_hits),
               static_cast<double>(warm.verdict_cache_hits +
                                   warm.verdict_cache_misses)),
          "ratio");
  res.Add("service.components_reused_frac",
          Frac(static_cast<double>(warm.minones_components_reused),
               static_cast<double>(warm.minones_components_reused +
                                   warm.minones_components_solved)),
          "ratio");
  res.Add("service.cold_fallbacks",
          static_cast<double>(warm.cold_rebuilds + warm.cold_cqa +
                              warm.cold_repairs),
          "count");
  res.Add("service.scrub_runs", static_cast<double>(warm.scrub_runs), "count");
  AddTraceMetrics(totals, traced_s, dropped, untraced_s,
                  Frac(unattributed[kClassRepair], op_s[kClassRepair]),
                  Frac(unattributed[kClassCqa], op_s[kClassCqa]),
                  Frac(unattributed[kClassUpdate], op_s[kClassUpdate]), &res);
  return res;
}

}  // namespace perfbench
