// Unit tests for the observability layer: tracing spans + ring buffers,
// trace ids and sampling, Chrome JSON export, the metrics registry with
// Prometheus exposition, the flight recorder, and log-level parsing.
//
// Tracing state is process-global; every test that records spans brackets
// itself with Trace::Enable/Clear so the tests stay order-independent.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "datalog/grounder.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "repair/repair_engine.h"
#include "sat/min_ones.h"
#include "service/incremental_engine.h"
#include "tests/test_util.h"
#include "workload/programs.h"

namespace deltarepair {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Trace::SetSamplePeriod(1);
    Trace::Enable(true);
    Trace::Clear();
  }
  void TearDown() override {
    Trace::Enable(false);
    Trace::Clear();
    Trace::SetSamplePeriod(1);
  }
};

std::vector<TraceEvent> EventsNamed(const std::vector<TraceEvent>& events,
                                    const std::string& name) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : events) {
    if (e.name != nullptr && name == e.name) out.push_back(e);
  }
  return out;
}

TEST_F(TraceTest, DisabledRecordsNothing) {
  Trace::Enable(false);
  {
    Span span("off.span");
    span.SetArg("k", 1);
    EXPECT_FALSE(span.active());
  }
  EXPECT_TRUE(Trace::Collect().empty());
}

TEST_F(TraceTest, RecordsNameArgsAndDuration) {
  {
    Span span("test.work");
    span.SetArg("items", 7);
    span.SetArg("bytes", 512);
  }
  std::vector<TraceEvent> events = EventsNamed(Trace::Collect(),
                                               "test.work");
  ASSERT_EQ(events.size(), 1u);
  const TraceEvent& e = events[0];
  EXPECT_STREQ(e.arg_keys[0], "items");
  EXPECT_EQ(e.arg_vals[0], 7u);
  EXPECT_STREQ(e.arg_keys[1], "bytes");
  EXPECT_EQ(e.arg_vals[1], 512u);
  EXPECT_EQ(e.trace_id, 0u);
  EXPECT_EQ(e.depth, 0u);
}

TEST_F(TraceTest, CarriesUpToEightArgsAndUpdatesRepeatedKeys) {
  static const char* const kKeys[] = {"a0", "a1", "a2", "a3",
                                      "a4", "a5", "a6", "a7"};
  {
    Span span("test.args");
    for (int i = 0; i < kMaxSpanArgs; ++i) span.SetArg(kKeys[i], i);
    span.SetArg("a3", 33);  // an existing key is updated in place
  }
  std::vector<TraceEvent> events = EventsNamed(Trace::Collect(),
                                               "test.args");
  ASSERT_EQ(events.size(), 1u);
  for (int i = 0; i < kMaxSpanArgs; ++i) {
    EXPECT_STREQ(events[0].arg_keys[i], kKeys[i]);
    EXPECT_EQ(events[0].arg_vals[i], i == 3 ? 33u : uint64_t(i));
  }
}

TEST_F(TraceTest, MinOnesSpanExplainsThePreprocessing) {
  // Two (a ∨ b) pairs, decided by dominance, and one triangle, which no
  // rule reduces and which is left for search.
  Cnf cnf;
  cnf.AddClause({PosLit(0), PosLit(1)});
  cnf.AddClause({PosLit(2), PosLit(3)});
  cnf.AddClause({PosLit(4), PosLit(5)});
  cnf.AddClause({PosLit(5), PosLit(6)});
  cnf.AddClause({PosLit(4), PosLit(6)});
  MinOnesResult r = MinOnesSat(cnf);
  ASSERT_TRUE(r.optimal);
  EXPECT_EQ(r.fixed_by_dominance, 2u);
  EXPECT_EQ(r.fixed_by_propagation, 2u);
  EXPECT_EQ(r.residual_vars, 3u);
  EXPECT_EQ(r.num_components, 1u);
  std::vector<TraceEvent> events = EventsNamed(Trace::Collect(),
                                               "sat.min_ones");
  ASSERT_EQ(events.size(), 1u);
  std::map<std::string, uint64_t> args;
  for (int i = 0; i < kMaxSpanArgs; ++i) {
    if (events[0].arg_keys[i] != nullptr) {
      args[events[0].arg_keys[i]] = events[0].arg_vals[i];
    }
  }
  EXPECT_EQ(args["vars"], 7u);
  EXPECT_EQ(args["clauses"], 5u);
  EXPECT_EQ(args["fixed_propagation"], r.fixed_by_propagation);
  EXPECT_EQ(args["fixed_dominance"], r.fixed_by_dominance);
  EXPECT_EQ(args["rounds"], r.preprocess_rounds);
  EXPECT_GE(r.preprocess_rounds, 1u);
  EXPECT_EQ(args["residual_vars"], 3u);
  EXPECT_EQ(args["components"], 1u);
  EXPECT_EQ(args["normalized"], 1u);  // a hand-built CNF is normalized here
}

std::map<std::string, uint64_t> ArgsOf(const TraceEvent& e) {
  std::map<std::string, uint64_t> args;
  for (int i = 0; i < kMaxSpanArgs; ++i) {
    if (e.arg_keys[i] != nullptr) args[e.arg_keys[i]] = e.arg_vals[i];
  }
  return args;
}

TEST_F(TraceTest, ProcessProvSpanCountsTheNormalizationOnce) {
  // The first two rules both emit the unit clause (v_A1), and that unit
  // subsumes the third rule's clause (v_B1 ∨ v_A1): one clause is left.
  Database db;
  uint32_t a = db.AddRelation(MakeIntSchema("A", {"x"}));
  uint32_t b = db.AddRelation(MakeIntSchema("B", {"x"}));
  db.Insert(a, {Value(int64_t{1})});
  db.Insert(b, {Value(int64_t{1})});
  Program program = MustParseProgram(
      "~A(x) :- A(x).\n"
      "~A(x) :- A(x), A(x).\n"
      "~B(x) :- B(x), A(x).\n");
  StatusOr<RepairEngine> engine = RepairEngine::Create(&db, std::move(program));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  RepairOutcome out = engine->Execute(RepairRequest{"independent"});
  ASSERT_TRUE(out.status.ok());
  EXPECT_EQ(out.result.stats.cnf_dup_clauses, 1u);
  EXPECT_EQ(out.result.stats.cnf_subsumed_clauses, 1u);
  std::vector<TraceEvent> events = Trace::Collect();
  std::vector<TraceEvent> prov = EventsNamed(events, "repair.process_prov");
  ASSERT_EQ(prov.size(), 1u);
  std::map<std::string, uint64_t> args = ArgsOf(prov[0]);
  EXPECT_EQ(args["clauses"], out.result.stats.cnf_clauses);
  EXPECT_EQ(args["clauses"], 1u);
  EXPECT_EQ(args["dup_clauses"], 1u);
  EXPECT_EQ(args["subsumed_clauses"], 1u);
  // Min-Ones receives the builder's normalized CNF and does not
  // normalize it again.
  std::vector<TraceEvent> solve = EventsNamed(events, "sat.min_ones");
  ASSERT_EQ(solve.size(), 1u);
  EXPECT_EQ(ArgsOf(solve[0])["normalized"], 0u);
  EXPECT_EQ(ArgsOf(solve[0])["clauses"], 1u);
}

TEST_F(TraceTest, EvalAndWarmEncodeSpansShowTheReachablePart) {
  // The running example grounds 8 reachable assignments in 5 rounds:
  // the delta-free rule (Grant 2), then the authors it triggers, their
  // papers and authorships, the citation, and a last round in which no
  // rule has a delta atom over what was reached.
  RunningExample ex = MakeRunningExample();
  StatusOr<RepairEngine> cold = RepairEngine::Create(&ex.db, ex.program);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  RepairOutcome out = cold->Execute(RepairRequest{"independent"});
  ASSERT_TRUE(out.ok());
  std::vector<TraceEvent> events = Trace::Collect();
  std::vector<TraceEvent> eval = EventsNamed(events, "repair.eval");
  ASSERT_EQ(eval.size(), 1u);
  std::map<std::string, uint64_t> args = ArgsOf(eval[0]);
  EXPECT_EQ(args["assignments"], 8u);
  EXPECT_EQ(args["assignments"], out.result.stats.assignments);
  EXPECT_EQ(args["rounds"], 5u);
  // The joins stay children of the Eval span, so datalog self time
  // still counts them.
  std::vector<TraceEvent> joins = EventsNamed(events, "ground.enumerate_rule");
  ASSERT_FALSE(joins.empty());
  for (const TraceEvent& e : joins) {
    EXPECT_EQ(e.depth, eval[0].depth + 1);
    EXPECT_GE(e.start_ns, eval[0].start_ns);
    EXPECT_LE(e.start_ns + e.dur_ns, eval[0].start_ns + eval[0].dur_ns);
  }

  // The warm engine runs the same pipeline on its view: the same
  // reachable Eval, then Process Prov encodes the same 6 clauses.
  StatusOr<std::unique_ptr<IncrementalEngine>> warm =
      IncrementalEngine::Create(&ex.db, ex.program);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  Trace::Clear();
  RepairOutcome w = (*warm)->ExecuteRepair(RepairRequest{"independent"});
  ASSERT_TRUE(w.ok());
  events = Trace::Collect();
  eval = EventsNamed(events, "repair.eval");
  ASSERT_EQ(eval.size(), 1u);
  args = ArgsOf(eval[0]);
  EXPECT_EQ(args["assignments"], 8u);
  EXPECT_EQ(args["rounds"], 5u);
  std::vector<TraceEvent> prov = EventsNamed(events, "repair.process_prov");
  ASSERT_EQ(prov.size(), 1u);
  args = ArgsOf(prov[0]);
  EXPECT_EQ(args["clauses"], 6u);
  EXPECT_EQ(args["clauses"], out.result.stats.cnf_clauses);
}

TEST_F(TraceTest, WarmEngineRunsAlgorithmOneOncePerVersion) {
  // The warm engine keeps each result for the database version it was
  // computed at. Create grounds nothing; the first independent request
  // at a version runs Algorithm 1 on the warm view once; later
  // independent repairs and CQA at that version reuse it; a realized
  // update starts over, even one the reachable program does not see.
  RunningExample ex = MakeRunningExample();
  StatusOr<std::unique_ptr<IncrementalEngine>> warm =
      IncrementalEngine::Create(&ex.db, ex.program);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(
      EventsNamed(Trace::Collect(), "ground.enumerate_rule").empty());

  // Runs `request`, then checks how many Eval and Process Prov spans it
  // left, and (when it ran them) their sizes on the running example.
  auto expect_runs = [&](auto request, size_t runs, const char* what) {
    Trace::Clear();
    request();
    std::vector<TraceEvent> events = Trace::Collect();
    std::vector<TraceEvent> eval = EventsNamed(events, "repair.eval");
    std::vector<TraceEvent> prov = EventsNamed(events, "repair.process_prov");
    ASSERT_EQ(eval.size(), runs) << what;
    ASSERT_EQ(prov.size(), runs) << what;
    if (runs == 0) return;
    EXPECT_EQ(ArgsOf(eval[0])["assignments"], 8u) << what;
    EXPECT_EQ(ArgsOf(prov[0])["clauses"], 6u) << what;
  };
  auto repair = [&] {
    RepairOutcome out = (*warm)->ExecuteRepair(RepairRequest{"independent"});
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.result.size(), 3u);
  };
  auto cqa = [&] {
    CqaResult result =
        (*warm)->ExecuteCqa(CqaRequest("independent", "Q(n) :- Author(a, n)."));
    ASSERT_TRUE(result.ok()) << result.status.ToString();
    EXPECT_EQ(result.answers.size(), 3u);
  };

  expect_runs(repair, 1, "first repair at the initial version");
  expect_runs(repair, 0, "second repair at the same version");
  expect_runs(cqa, 0, "CQA at the same version");

  // The NSF grant is unreachable (no rule without a delta atom reaches
  // it), so the reachable program is the same, but the version moved.
  Delta delta = ex.db.ApplyUpdate(ex.g1.relation, /*is_insert=*/false,
                                  {ex.db.tuple(ex.g1)});
  ASSERT_EQ(delta.size(), 1u);
  expect_runs(cqa, 1, "CQA after a realized update");
  expect_runs(repair, 0, "repair at the updated version");
  EXPECT_EQ((*warm)->stats().warm_cqa, 2u);
  EXPECT_EQ((*warm)->stats().cold_repairs, 0u);
}

TEST_F(TraceTest, EnumerateRuleSpanCountsJoinWork) {
  // R has 3 rows and S 5, so the plan scans R and probes S on y once per
  // R row: y=10 chains 2 rows, y=20 one, y=30 none.
  Database db;
  uint32_t r = db.AddRelation(MakeIntSchema("R", {"x", "y"}));
  uint32_t s = db.AddRelation(MakeIntSchema("S", {"y", "z"}));
  for (int64_t i = 1; i <= 3; ++i) db.Insert(r, {Value(i), Value(10 * i)});
  for (int64_t y : {10, 10, 20, 40, 50}) {
    db.Insert(s, {Value(y), Value(static_cast<int64_t>(
                                 db.relation(s).num_rows()))});
  }
  Program program = MustParseProgram("~R(x, y) :- R(x, y), S(y, z).\n");
  ASSERT_TRUE(ResolveProgram(&program, db).ok());
  Grounder grounder(&db);
  size_t emitted = 0;
  grounder.EnumerateRule(program.rules()[0], 0, BaseMatch::kLive,
                         DeltaMatch::kCurrent, [&](const GroundAssignment&) {
                           ++emitted;
                           return true;
                         });
  EXPECT_EQ(emitted, 3u);
  std::vector<TraceEvent> events = EventsNamed(Trace::Collect(),
                                               "ground.enumerate_rule");
  ASSERT_EQ(events.size(), 1u);
  std::map<std::string, uint64_t> args;
  for (int i = 0; i < kMaxSpanArgs; ++i) {
    if (events[0].arg_keys[i] != nullptr) {
      args[events[0].arg_keys[i]] = events[0].arg_vals[i];
    }
  }
  EXPECT_EQ(args["assignments"], 3u);
  EXPECT_EQ(args["probes"], 3u);
  EXPECT_EQ(args["rows_visited"], 6u);  // 3 scanned + 2 + 1 + 0 probed
}

TEST_F(TraceTest, EnumerateRuleProbesVarEqualsConstant) {
  // `x = 2` makes R's x column a probe key at the step that binds x, so
  // the join visits only the three rows with x = 2 instead of scanning
  // all six.
  Database db;
  uint32_t r = db.AddRelation(MakeIntSchema("R", {"x", "y"}));
  int64_t y = 0;
  for (int64_t x : {1, 2, 3, 2, 1, 2}) db.Insert(r, {Value(x), Value(++y)});
  Program program = MustParseProgram("~R(x, y) :- R(x, y), x = 2.\n");
  ASSERT_TRUE(ResolveProgram(&program, db).ok());
  Grounder grounder(&db);
  std::vector<uint32_t> rows;
  grounder.EnumerateRule(program.rules()[0], 0, BaseMatch::kLive,
                         DeltaMatch::kCurrent,
                         [&](const GroundAssignment& ga) {
                           rows.push_back(ga.head.row);
                           return true;
                         });
  EXPECT_EQ(rows, (std::vector<uint32_t>{1, 3, 5}));  // ascending, as a scan
  std::vector<TraceEvent> events = EventsNamed(Trace::Collect(),
                                               "ground.enumerate_rule");
  ASSERT_EQ(events.size(), 1u);
  std::map<std::string, uint64_t> args;
  for (int i = 0; i < kMaxSpanArgs; ++i) {
    if (events[0].arg_keys[i] != nullptr) {
      args[events[0].arg_keys[i]] = events[0].arg_vals[i];
    }
  }
  EXPECT_EQ(args["assignments"], 3u);
  EXPECT_EQ(args["probes"], 1u);
  EXPECT_EQ(args["rows_visited"], 3u);
}

TEST_F(TraceTest, NestedSpansTrackDepthAndOrdering) {
  {
    Span outer("test.outer");
    {
      Span inner("test.inner");
    }
  }
  std::vector<TraceEvent> events = Trace::Collect();
  std::vector<TraceEvent> outer = EventsNamed(events, "test.outer");
  std::vector<TraceEvent> inner = EventsNamed(events, "test.inner");
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(inner.size(), 1u);
  EXPECT_EQ(outer[0].depth, 0u);
  EXPECT_EQ(inner[0].depth, 1u);
  // Inner is fully contained in outer.
  EXPECT_GE(inner[0].start_ns, outer[0].start_ns);
  EXPECT_LE(inner[0].start_ns + inner[0].dur_ns,
            outer[0].start_ns + outer[0].dur_ns);
}

TEST_F(TraceTest, TraceIdScopeTagsAndFilters) {
  const uint64_t id_a = Trace::NewTraceId();
  const uint64_t id_b = Trace::NewTraceId();
  EXPECT_NE(id_a, 0u);
  EXPECT_NE(id_a, id_b);
  {
    TraceIdScope scope(id_a);
    EXPECT_EQ(Trace::CurrentTraceId(), id_a);
    Span span("test.a");
    {
      TraceIdScope nested(id_b);
      EXPECT_EQ(Trace::CurrentTraceId(), id_b);
      Span span_b("test.b");
    }
    EXPECT_EQ(Trace::CurrentTraceId(), id_a);
  }
  EXPECT_EQ(Trace::CurrentTraceId(), 0u);
  std::vector<TraceEvent> only_a = Trace::CollectTrace(id_a);
  ASSERT_EQ(only_a.size(), 1u);
  EXPECT_STREQ(only_a[0].name, "test.a");
  std::vector<TraceEvent> only_b = Trace::CollectTrace(id_b);
  ASSERT_EQ(only_b.size(), 1u);
  EXPECT_STREQ(only_b[0].name, "test.b");
}

TEST_F(TraceTest, SamplingSuppressesUnsampledIds) {
  Trace::SetSamplePeriod(2);
  {
    TraceIdScope scope(4);  // 4 % 2 == 0: sampled
    Span span("test.sampled");
  }
  {
    TraceIdScope scope(5);  // 5 % 2 != 0: suppressed
    Span span("test.unsampled");
  }
  std::vector<TraceEvent> events = Trace::Collect();
  EXPECT_EQ(EventsNamed(events, "test.sampled").size(), 1u);
  EXPECT_TRUE(EventsNamed(events, "test.unsampled").empty());
}

TEST_F(TraceTest, EmitInjectsCrossThreadSpan) {
  const uint64_t start = Trace::NowNs();
  const uint64_t end = start + 1000000;
  Trace::Emit("test.emitted", start, end, 42);
  std::vector<TraceEvent> events = Trace::CollectTrace(42);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "test.emitted");
  EXPECT_EQ(events[0].dur_ns, 1000000u);
}

TEST_F(TraceTest, RingWrapsKeepingNewestSpans) {
  Trace::SetRingCapacity(64);
  // A fresh thread gets a fresh (small) ring; 200 spans overflow it.
  std::thread t([] {
    for (int i = 0; i < 200; ++i) {
      Span span("test.wrap");
      span.SetArg("i", static_cast<uint64_t>(i));
    }
  });
  t.join();
  Trace::SetRingCapacity(4096);
  std::vector<TraceEvent> events = EventsNamed(Trace::Collect(),
                                               "test.wrap");
  ASSERT_FALSE(events.empty());
  EXPECT_LE(events.size(), 64u);
  // The survivors are the newest records, ending at i=199.
  EXPECT_EQ(events.back().arg_vals[0], 199u);
  EXPECT_EQ(events.front().arg_vals[0], 200u - events.size());
}

TEST_F(TraceTest, CollectCountsOverwrittenSpans) {
  Trace::SetRingCapacity(8);
  // A fresh thread gets a fresh 8-slot ring; 20 spans overwrite 12.
  std::thread t([] {
    for (int i = 0; i < 20; ++i) Span span("test.lost");
  });
  t.join();
  Trace::SetRingCapacity(4096);
  TraceLoss loss;
  std::vector<TraceEvent> events = Trace::Collect(&loss);
  EXPECT_EQ(EventsNamed(events, "test.lost").size(), 8u);
  EXPECT_EQ(loss.overwritten, 12u);
  EXPECT_EQ(loss.torn, 0u);
  EXPECT_NE(Trace::ChromeJson(events, loss)
                .find("\"otherData\":{\"overwritten_spans\":12,"
                      "\"torn_spans\":0}"),
            std::string::npos);
}

TEST_F(TraceTest, CrossThreadSpansCarryDistinctTidsAndInheritedId) {
  const uint64_t id = Trace::NewTraceId();
  TraceIdScope scope(id);
  {
    Span root("test.root");
    const uint64_t parent_id = Trace::CurrentTraceId();
    std::thread worker([parent_id] {
      TraceIdScope worker_scope(parent_id);
      Span span("test.worker");
    });
    worker.join();
  }
  std::vector<TraceEvent> events = Trace::CollectTrace(id);
  std::vector<TraceEvent> root = EventsNamed(events, "test.root");
  std::vector<TraceEvent> worker = EventsNamed(events, "test.worker");
  ASSERT_EQ(root.size(), 1u);
  ASSERT_EQ(worker.size(), 1u);
  EXPECT_NE(root[0].tid, worker[0].tid);
}

TEST_F(TraceTest, ChromeJsonShape) {
  {
    TraceIdScope scope(0xabcd);
    Span span("test.json");
    span.SetArg("n", 3);
  }
  std::string json = Trace::ChromeJson(Trace::Collect());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.json\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("000000000000abcd"), std::string::npos);
  EXPECT_NE(json.find("\"n\":3"), std::string::npos);
}

TEST_F(TraceTest, ConcurrentRecordAndCollectStress) {
  // Writers hammer their rings while a reader repeatedly snapshots;
  // under TSan this exercises the per-slot seqlock protocol.
  constexpr int kWriters = 4;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&stop, w] {
      TraceIdScope scope(static_cast<uint64_t>(w) + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        Span span("test.stress");
        span.SetArg("w", static_cast<uint64_t>(w));
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    std::vector<TraceEvent> events = Trace::Collect();
    for (const TraceEvent& e : events) {
      ASSERT_NE(e.name, nullptr);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : writers) t.join();
}

TEST(MetricsTest, CounterGaugeHistogramBasics) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("t_total", "help");
  c->Inc();
  c->Inc(4);
  EXPECT_EQ(c->value(), 5u);
  // Same name returns the same series.
  EXPECT_EQ(registry.GetCounter("t_total", "help"), c);

  Gauge* g = registry.GetGauge("t_gauge", "help");
  g->Set(2.5);
  g->Add(-1.0);
  EXPECT_DOUBLE_EQ(g->value(), 1.5);

  Histogram* h = registry.GetHistogram("t_seconds", "help");
  h->Observe(0.5e-6);  // below the first bound
  h->Observe(3e-6);    // in a low bucket
  h->Observe(1e9);     // beyond every bound: +Inf only
  EXPECT_EQ(h->count(), 3u);
  EXPECT_NEAR(h->sum(), 1e9 + 3.5e-6, 1.0);
  EXPECT_EQ(h->CumulativeCount(0), 1u);
  EXPECT_EQ(h->CumulativeCount(Histogram::kNumBuckets - 1), 2u);
  EXPECT_GT(Histogram::UpperBound(1), Histogram::UpperBound(0));
}

TEST(MetricsTest, LabeledFamilies) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("req_total", "reqs", "type", "repair");
  Counter* b = registry.GetCounter("req_total", "reqs", "type", "cqa");
  EXPECT_NE(a, b);
  EXPECT_EQ(registry.GetCounter("req_total", "reqs", "type", "repair"), a);
  a->Inc(2);
  b->Inc(3);
  std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("req_total{type=\"repair\"} 2"), std::string::npos);
  EXPECT_NE(text.find("req_total{type=\"cqa\"} 3"), std::string::npos);
}

TEST(MetricsTest, PrometheusTextGolden) {
  MetricsRegistry registry;
  registry.GetCounter("aa_total", "first counter")->Inc(7);
  registry.GetGauge("bb_gauge", "a gauge")->Set(1.5);
  std::string text = registry.PrometheusText();
  // Families render sorted by name, each with HELP/TYPE headers.
  const std::string expected =
      "# HELP aa_total first counter\n"
      "# TYPE aa_total counter\n"
      "aa_total 7\n"
      "# HELP bb_gauge a gauge\n"
      "# TYPE bb_gauge gauge\n"
      "bb_gauge 1.5\n";
  EXPECT_EQ(text, expected);
}

TEST(MetricsTest, PrometheusHistogramExposition) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("lat_seconds", "latency");
  h->Observe(2e-6);
  h->Observe(0.010);
  std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("# TYPE lat_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_count 2"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_sum"), std::string::npos);
  // Cumulative buckets never decrease along the bound sequence.
  uint64_t prev = 0;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    uint64_t c = h->CumulativeCount(i);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(MetricsTest, ConcurrentRecordingStress) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("stress_total", "x");
  Histogram* h = registry.GetHistogram("stress_seconds", "x");
  Gauge* g = registry.GetGauge("stress_gauge", "x");
  constexpr int kThreads = 8;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        c->Inc();
        h->Observe(1e-5);
        g->Add(1.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c->value(), static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(h->count(), static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_DOUBLE_EQ(g->value(), static_cast<double>(kThreads) * kIters);
}

TEST(FlightRecorderTest, RecordsOnlySlowTracedRequests) {
  Trace::SetSamplePeriod(1);
  Trace::Enable(true);
  Trace::Clear();
  const uint64_t id = Trace::NewTraceId();
  {
    TraceIdScope scope(id);
    Span span("flight.work");
  }
  FlightRecorder recorder(4, 0.010);
  EXPECT_FALSE(recorder.MaybeRecord(id, "repair", 0.001));  // fast
  EXPECT_FALSE(recorder.MaybeRecord(0, "repair", 1.0));     // no id
  EXPECT_TRUE(recorder.MaybeRecord(id, "repair", 0.020));
  ASSERT_EQ(recorder.size(), 1u);
  std::vector<FlightRecord> records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].trace_id, id);
  EXPECT_EQ(records[0].kind, "repair");
  ASSERT_EQ(records[0].spans.size(), 1u);
  EXPECT_STREQ(records[0].spans[0].name, "flight.work");
  Trace::Enable(false);
  Trace::Clear();
}

TEST(FlightRecorderTest, CapacityEvictsOldest) {
  FlightRecorder recorder(2, 0.001);
  EXPECT_TRUE(recorder.MaybeRecord(11, "a", 1.0));
  EXPECT_TRUE(recorder.MaybeRecord(12, "b", 1.0));
  EXPECT_TRUE(recorder.MaybeRecord(13, "c", 1.0));
  std::vector<FlightRecord> records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].trace_id, 12u);
  EXPECT_EQ(records[1].trace_id, 13u);
}

TEST(FlightRecorderTest, DisabledByThresholdOrCapacity) {
  FlightRecorder off(4, 0);
  EXPECT_FALSE(off.MaybeRecord(1, "a", 100.0));
  FlightRecorder zero_cap(0, 0.001);
  EXPECT_FALSE(zero_cap.MaybeRecord(1, "a", 100.0));
}

TEST(LogTest, ParseLevel) {
  LogLevel level;
  EXPECT_TRUE(Log::ParseLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(Log::ParseLevel("info", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
  EXPECT_TRUE(Log::ParseLevel("warn", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_TRUE(Log::ParseLevel("error", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_TRUE(Log::ParseLevel("off", &level));
  EXPECT_EQ(level, LogLevel::kOff);
  EXPECT_FALSE(Log::ParseLevel("verbose", &level));
  EXPECT_FALSE(Log::ParseLevel("", &level));
  EXPECT_STREQ(Log::LevelName(LogLevel::kWarn), "WARN");
}

}  // namespace
}  // namespace deltarepair
