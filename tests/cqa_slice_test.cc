// Slicing-soundness differential suite: the cone-of-influence CQA path
// (query-scoped CNF slicing + parallel per-answer entailment) must agree
// with brute-force enumeration (cqa/brute_force.h) on every semantics,
// on the paper's running example and on randomized instances — cold,
// threaded, and warm (IncrementalEngine over an update stream). The
// sequential cold run is checked against the oracle, and the threaded
// and warm runs against the sequential cold run. Counterexamples need
// not be identical tuple-for-tuple (minimum repairs are not unique) but
// must each be stabilizing and actually kill their answer; one marked
// minimal must be as small as the smallest killer the oracle finds.
//
// DR_FUZZ_ITERS multiplies the randomized coverage (nightly deep-fuzz
// job); the default counts keep an ASan/TSan CI run fast.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "cqa/brute_force.h"
#include "cqa/cqa.h"
#include "cqa/entailment.h"
#include "obs/trace.h"
#include "repair/exact.h"
#include "repair/stability.h"
#include "service/incremental_engine.h"
#include "tests/test_util.h"
#include "workload/programs.h"

namespace deltarepair {
namespace {

/// Scales a base iteration count by the DR_FUZZ_ITERS multiplier.
int ScaledIters(int base) {
  const char* env = std::getenv("DR_FUZZ_ITERS");
  if (env == nullptr) return base;
  int mult = std::atoi(env);
  return mult > 1 ? base * mult : base;
}

std::vector<std::string> AllSemanticsNames() {
  return {"end", "stage", "step", "independent"};
}

Query MustParseQuery(const std::string& text) {
  StatusOr<Query> q = ParseQuery(text);
  if (!q.ok()) {
    std::fprintf(stderr, "query parse failure: %s\n",
                 q.status().ToString().c_str());
    std::abort();
  }
  return std::move(q).value();
}

/// True when `answer` is absent from Q(D \ set).
bool Kills(Database* db, const Query& query, const Tuple& answer,
           const std::vector<TupleId>& set) {
  InstanceView view = db->SnapshotView();
  for (const TupleId& t : set) view.MarkDeleted(t);
  std::vector<Tuple> surviving = EvalQuery(&view, query);
  return std::count(surviving.begin(), surviving.end(), answer) == 0;
}

/// A counterexample refutes its answer: it is stabilizing and the
/// answer is absent from Q(D \ cex).
void ExpectRefutes(Database* db, const Program& program,
                   const std::string& query_text, const CqaAnswer& answer,
                   const std::string& context) {
  ASSERT_FALSE(answer.counterexample.empty()) << context;
  EXPECT_TRUE(IsStabilizingSet(db, program, answer.counterexample))
      << context << "\ncex: " << RenderSet(*db, answer.counterexample);
  Query q = MustParseQuery(query_text);
  ASSERT_TRUE(ResolveQuery(&q, *db).ok()) << context;
  EXPECT_TRUE(Kills(db, q, answer.values, answer.counterexample))
      << TupleToString(answer.values) << " survives "
      << RenderSet(*db, answer.counterexample) << "\n"
      << context;
}

/// Asserts two runs of the same request agree answer-for-answer:
/// identical tuples in identical order, identical verdict bits, and
/// counterexamples that each refute their answer (equal sizes when both
/// claim minimality).
void ExpectSameAnswers(Database* db, const Program& program,
                       const std::string& query_text, const CqaResult& got,
                       const CqaResult& want, const std::string& context) {
  ASSERT_TRUE(got.ok()) << got.status.ToString() << "\n" << context;
  ASSERT_TRUE(want.ok()) << want.status.ToString() << "\n" << context;
  EXPECT_EQ(got.termination, want.termination) << context;
  ASSERT_EQ(got.answers.size(), want.answers.size()) << context;
  for (size_t i = 0; i < got.answers.size(); ++i) {
    const CqaAnswer& g = got.answers[i];
    const CqaAnswer& w = want.answers[i];
    std::string at = StrFormat("answer #%zu %s\n%s", i,
                               TupleToString(g.values).c_str(),
                               context.c_str());
    EXPECT_EQ(g.values, w.values) << at;
    EXPECT_EQ(g.certain, w.certain) << at;
    EXPECT_EQ(g.possible, w.possible) << at;
    EXPECT_EQ(g.certain_decided, w.certain_decided) << at;
    EXPECT_EQ(g.possible_decided, w.possible_decided) << at;
    EXPECT_EQ(g.decided, w.decided) << at;
    EXPECT_EQ(g.derivations, w.derivations) << at;
    // Counterexamples are witnesses, not canonical objects: check each
    // on its own terms instead of tuple-for-tuple.
    EXPECT_EQ(g.counterexample.empty(), w.counterexample.empty()) << at;
    if (!g.counterexample.empty()) {
      ExpectRefutes(db, program, query_text, g, "got: " + at);
      ExpectRefutes(db, program, query_text, w, "want: " + at);
      if (g.counterexample_minimal && w.counterexample_minimal) {
        EXPECT_EQ(g.counterexample.size(), w.counterexample.size()) << at;
      }
    }
  }
  EXPECT_EQ(got.CertainAnswers(), want.CertainAnswers()) << context;
  EXPECT_EQ(got.PossibleAnswers(), want.PossibleAnswers()) << context;
}

/// The size a minimal counterexample must have: the smallest member of
/// the brute-force repair space that kills the answer. An independent
/// counterexample is the smallest *stabilizing* killer, so when no
/// minimum repair kills the answer the subset enumeration continues
/// past the optimum. nullopt when nothing kills it.
std::optional<size_t> SmallestKiller(
    Database* db, const Program& program, const Query& query,
    const Tuple& answer, SemanticsKind kind,
    const std::vector<std::vector<TupleId>>& space) {
  std::optional<size_t> best;
  for (const std::vector<TupleId>& repair : space) {
    if ((!best.has_value() || repair.size() < *best) &&
        Kills(db, query, answer, repair)) {
      best = repair.size();
    }
  }
  if (best.has_value() || kind != SemanticsKind::kIndependent) return best;
  std::vector<TupleId> universe = db->LiveTupleIds();
  for (size_t k = space.front().size() + 1; k <= universe.size(); ++k) {
    uint64_t budget = UINT64_MAX;
    const bool found = ForEachSubset(
        universe.size(), k, &budget, [&](const std::vector<size_t>& idx) {
          std::vector<TupleId> set;
          for (size_t i : idx) set.push_back(universe[i]);
          return IsStabilizingSet(db, program, set) &&
                 Kills(db, query, answer, set);
        });
    if (found) return k;
  }
  return std::nullopt;
}

/// Asserts a run against brute-force enumeration: every verdict decided,
/// the certain and possible sets equal the oracle's, and every
/// counterexample refutes its answer — at the oracle's smallest killer
/// size when it claims minimality.
void ExpectMatchesBruteForce(Database* db, const Program& program,
                             const std::string& query_text,
                             const CqaResult& result,
                             const std::string& context) {
  ASSERT_TRUE(result.ok()) << result.status.ToString() << "\n" << context;
  EXPECT_TRUE(result.stats.space_exact) << context;
  EXPECT_EQ(result.stats.undecided_answers, 0u) << context;
  Query query = MustParseQuery(query_text);
  ASSERT_TRUE(ResolveQuery(&query, *db).ok()) << context;
  std::optional<BruteForceCqaResult> brute =
      BruteForceCqa(db, program, query, result.kind);
  ASSERT_TRUE(brute.has_value()) << context;
  EXPECT_EQ(result.CertainAnswers(), brute->certain) << context;
  EXPECT_EQ(result.PossibleAnswers(), brute->possible) << context;
  std::optional<std::vector<std::vector<TupleId>>> space =
      EnumerateRepairSpace(db, program, result.kind);
  ASSERT_TRUE(space.has_value()) << context;
  for (const CqaAnswer& a : result.answers) {
    if (a.counterexample.empty()) continue;
    std::string at = StrFormat("answer %s\n%s",
                               TupleToString(a.values).c_str(),
                               context.c_str());
    ExpectRefutes(db, program, query_text, a, at);
    if (!a.counterexample_minimal) continue;
    std::optional<size_t> smallest =
        SmallestKiller(db, program, query, a.values, result.kind, *space);
    ASSERT_TRUE(smallest.has_value()) << at;
    EXPECT_EQ(a.counterexample.size(), *smallest) << at;
  }
}

/// Runs one (semantics, query) request sequentially and with a 4-worker
/// entailment pool: the sequential run must match the brute-force
/// oracle, and the threaded run the sequential one.
void ExpectSlicingSound(Database* db, RepairEngine* engine,
                        const std::string& semantics,
                        const std::string& query_text,
                        const std::string& context) {
  CqaRequest sequential(semantics, query_text);
  sequential.annotate = true;
  CqaRequest threaded = sequential;
  threaded.options.threads = 4;

  CqaResult want = AnswerQuery(engine, sequential);
  CqaResult par = AnswerQuery(engine, threaded);
  ExpectMatchesBruteForce(db, engine->program(), query_text, want,
                          StrFormat("%s sequential-vs-brute-force\n%s",
                                    semantics.c_str(), context.c_str()));
  ExpectSameAnswers(db, engine->program(), query_text, par, want,
                    StrFormat("%s threaded-vs-sequential\n%s",
                              semantics.c_str(), context.c_str()));
}

// ---------------------------------------------------------------------------
// Cold differential: running example
// ---------------------------------------------------------------------------

struct CqaFixture {
  RunningExample ex;
  StatusOr<RepairEngine> engine;

  CqaFixture()
      : ex(MakeRunningExample()),
        engine(RepairEngine::Create(&ex.db, ex.program)) {}
};

TEST(CqaSliceTest, RunningExampleAllSemantics) {
  CqaFixture f;
  ASSERT_TRUE(f.engine.ok());
  const char* queries[] = {
      "Q(n) :- Author(a, n).",
      "Q(n) :- Author(a, n), Writes(a, p).",
      "Q(t) :- Pub(p, t).",
      "Q(a, p) :- Writes(a, p), Pub(p, t).",
      "Q(c) :- Cite(c, p), Pub(p, t).",
      "Q(n) :- Author(a, n), AuthGrant(a, g), Grant(g, gn).",
      "Q(n) :- Grant(g, n), g >= 2.\nQ(n) :- Author(a, n), a <= 2.",
  };
  for (const char* q : queries) {
    for (const std::string& s : AllSemanticsNames()) {
      ExpectSlicingSound(&f.ex.db, &f.engine.value(), s, q,
                         StrFormat("query: %s\n", q));
    }
  }
}

TEST(CqaSliceTest, WideHubConeDecidedOnItsSlice) {
  // A hub author writing 40 papers: one residual component of 41
  // variables whose minimum repair deletes only the author. Every answer
  // is certain and decided on its cone slice — the whole component —
  // cold and warm, with no rerun on the full CNF.
  constexpr int kHubPubs = 40;
  Database db;
  Program program = MakeHubAuthorInstance(&db, kHubPubs);
  StatusOr<RepairEngine> cold = RepairEngine::Create(&db, program);
  ASSERT_TRUE(cold.ok());
  StatusOr<std::unique_ptr<IncrementalEngine>> warm =
      IncrementalEngine::Create(&db, program);
  ASSERT_TRUE(warm.ok());
  const std::string query_text = "Q(p) :- W(x, p).";
  Query query = MustParseQuery(query_text);
  ASSERT_TRUE(ResolveQuery(&query, db).ok());
  std::optional<BruteForceCqaResult> brute = BruteForceCqa(
      &db, cold->program(), query, SemanticsKind::kIndependent);
  ASSERT_TRUE(brute.has_value());

  CqaRequest request("independent", query_text);
  const CqaResult cold_run = AnswerQuery(&*cold, request);
  const CqaResult warm_run = (*warm)->ExecuteCqa(request);
  for (const CqaResult* run : {&cold_run, &warm_run}) {
    const std::string path = run == &cold_run ? "cold" : "warm";
    ASSERT_TRUE(run->ok()) << path;
    EXPECT_EQ(run->CertainAnswers().size(), size_t{kHubPubs}) << path;
    EXPECT_EQ(run->stats.slice.slice_fallbacks, 0u) << path;
    EXPECT_GT(run->stats.slice.sliced_solve_calls, 0u) << path;
    EXPECT_EQ(run->CertainAnswers(), brute->certain) << path;
    EXPECT_EQ(run->PossibleAnswers(), brute->possible) << path;
  }
}

TEST(CqaSliceTest, CounterexampleFallbacksCarryTheirReason) {
  // With certain not asked, certain answers get counterexamples too, and
  // only the full CNF, extended from the answer's tuples, can compose
  // theirs. Each rerun counts as a slice fallback, and its span says why.
  // The third reason (no killer in the cone) cannot arise from delta
  // rules: every residual clause keeps the open positive literal of its
  // rule's self atom.
  struct Case {
    const char* name;
    std::function<Program(Database*)> make;
    const char* query;
    CexFallbackReason reason;
  };
  const Case cases[] = {
      // Every W answer survives every minimum repair ({A(1)}) but its
      // open variable lies in the star: the cone-local killer deletes
      // A(1) and W(1, p), over the cone's share of 1.
      {"over_share", [](Database* db) { return MakeHubAuthorInstance(db, 6); },
       "Q(p) :- W(x, p).", CexFallbackReason::kOverShare},
      // B only occurs negated, so both relations are forced kept and
      // every answer is alive in the empty minimum repair.
      {"alive",
       [](Database* db) {
         uint32_t a = db->AddRelation(MakeIntSchema("A", {"x"}));
         uint32_t b = db->AddRelation(MakeIntSchema("B", {"x"}));
         for (int64_t x : {1, 2}) {
           db->Insert(a, {Value(x)});
           db->Insert(b, {Value(x)});
         }
         return MustParseProgram("~A(x) :- A(x), ~B(x).\n");
       },
       "Q(x) :- A(x).", CexFallbackReason::kAlive},
      // No assignment binds C(1) (the second rule needs x = 99), so C(1)
      // has no variable, yet deleting it with any minimum repair kills
      // the answer: its counterexample extends the closure from C(1).
      {"untouched",
       [](Database* db) {
         uint32_t a = db->AddRelation(MakeIntSchema("A", {"x"}));
         uint32_t b = db->AddRelation(MakeIntSchema("B", {"x"}));
         uint32_t c = db->AddRelation(MakeIntSchema("C", {"x"}));
         for (int64_t x : {1, 2}) {
           db->Insert(a, {Value(x)});
           db->Insert(b, {Value(x)});
         }
         db->Insert(c, {Value(int64_t{1})});
         return MustParseProgram(
             "~A(x) :- A(x), ~B(x).\n"
             "~C(x) :- C(x), ~A(x), x = 99.\n");
       },
       "Q(x) :- C(x).", CexFallbackReason::kAlive},
  };
  for (const Case& c : cases) {
    Database db;
    Program program = c.make(&db);
    StatusOr<RepairEngine> engine = RepairEngine::Create(&db, program);
    ASSERT_TRUE(engine.ok()) << c.name;
    CqaRequest request("independent", c.query);
    request.certain = false;
    request.annotate = true;
    Trace::Enable(true);
    Trace::Clear();
    CqaResult result = AnswerQuery(&engine.value(), request);
    std::vector<TraceEvent> events = Trace::Collect();
    Trace::Enable(false);
    Trace::Clear();
    ASSERT_TRUE(result.ok()) << c.name;
    ASSERT_FALSE(result.answers.empty()) << c.name;
    EXPECT_EQ(result.stats.slice.slice_fallbacks, result.answers.size())
        << c.name;
    size_t reruns = 0;
    for (const TraceEvent& e : events) {
      if (std::string(e.name) != "cqa.cex_fallback") continue;
      ASSERT_STREQ(e.arg_keys[0], "reason") << c.name;
      EXPECT_EQ(e.arg_vals[0], static_cast<uint64_t>(c.reason)) << c.name;
      ++reruns;
    }
    EXPECT_EQ(reruns, result.answers.size()) << c.name;

    Query query = MustParseQuery(c.query);
    ASSERT_TRUE(ResolveQuery(&query, db).ok()) << c.name;
    std::optional<std::vector<std::vector<TupleId>>> space =
        EnumerateRepairSpace(&db, engine->program(),
                             SemanticsKind::kIndependent);
    ASSERT_TRUE(space.has_value()) << c.name;
    for (const CqaAnswer& a : result.answers) {
      const std::string at =
          std::string(c.name) + " " + TupleToString(a.values);
      EXPECT_TRUE(a.possible && a.possible_decided) << at;
      ExpectRefutes(&db, engine->program(), c.query, a, at);
      ASSERT_TRUE(a.counterexample_minimal) << at;
      std::optional<size_t> smallest =
          SmallestKiller(&db, engine->program(), query, a.values,
                         SemanticsKind::kIndependent, *space);
      ASSERT_TRUE(smallest.has_value()) << at;
      EXPECT_EQ(a.counterexample.size(), *smallest) << at;
    }
  }
}

// ---------------------------------------------------------------------------
// Cold differential: randomized instances
// ---------------------------------------------------------------------------

/// The cqa_test generator shape: three unary int relations, acyclic
/// cascade programs of four rule shapes.
struct RandomInstance {
  Database db;
  Program program;
  std::string description;
};

RandomInstance MakeRandomInstance(uint64_t seed) {
  Rng rng(seed);
  RandomInstance inst;
  const int num_rels = 3;
  const int domain = 4;
  for (int r = 0; r < num_rels; ++r) {
    uint32_t rel =
        inst.db.AddRelation(MakeIntSchema(StrFormat("R%d", r), {"x"}));
    int tuples = 2 + static_cast<int>(rng.NextBounded(3));
    for (int t = 0; t < tuples; ++t) {
      inst.db.Insert(rel,
                     {Value(static_cast<int64_t>(rng.NextBounded(domain)))});
    }
  }
  std::string text;
  int num_rules = 2 + static_cast<int>(rng.NextBounded(4));
  for (int i = 0; i < num_rules; ++i) {
    int head = static_cast<int>(rng.NextBounded(num_rels));
    switch (rng.NextBounded(4)) {
      case 0:
        text += StrFormat("~R%d(x) :- R%d(x), x <= %d.\n", head, head,
                          static_cast<int>(rng.NextBounded(domain)));
        break;
      case 1: {
        int other = static_cast<int>(rng.NextBounded(num_rels));
        const char* cmp = rng.NextBool(0.5) ? "=" : "!=";
        text += StrFormat("~R%d(x) :- R%d(x), R%d(y), x %s y.\n", head, head,
                          other, cmp);
        break;
      }
      case 2: {
        if (head == 0) head = 1;
        int dep =
            static_cast<int>(rng.NextBounded(static_cast<uint64_t>(head)));
        text += StrFormat("~R%d(x) :- R%d(x), ~R%d(x).\n", head, head, dep);
        break;
      }
      default: {
        if (head == 0) head = 2;
        int dep =
            static_cast<int>(rng.NextBounded(static_cast<uint64_t>(head)));
        text += StrFormat("~R%d(x) :- R%d(x), ~R%d(y).\n", head, head, dep);
        break;
      }
    }
  }
  inst.program = MustParseProgram(text);
  inst.description = text;
  return inst;
}

const char* RandomQueries(size_t i) {
  static const char* queries[] = {
      "Q(x) :- R0(x).",
      "Q(x) :- R1(x), R2(x).",
      "Q(x, y) :- R0(x), R1(y), x <= y.",
      "Q(x) :- R0(x).\nQ(x) :- R2(x), x >= 1.",
  };
  return queries[i % 4];
}

class CqaSliceRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(CqaSliceRandomTest, SlicedMatchesBruteForceOnAllSemantics) {
  // DR_FUZZ_ITERS deepens each seed's stream instead of adding
  // parameterized seeds (gtest instantiation counts are static).
  const int rounds = ScaledIters(1);
  for (int round = 0; round < rounds; ++round) {
    RandomInstance inst = MakeRandomInstance(
        static_cast<uint64_t>(GetParam()) * 733 +
        static_cast<uint64_t>(round) * 104729 + 13);
    StatusOr<RepairEngine> engine =
        RepairEngine::Create(&inst.db, inst.program);
    ASSERT_TRUE(engine.ok()) << inst.description;
    for (size_t qi = 0; qi < 4; ++qi) {
      const char* q = RandomQueries(qi);
      for (const std::string& s : AllSemanticsNames()) {
        ExpectSlicingSound(
            &inst.db, &engine.value(), s, q,
            StrFormat("seed %d round %d\nprogram:\n%squery: %s\n",
                      GetParam(), round, inst.description.c_str(), q));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CqaSliceRandomTest, ::testing::Range(0, 32));

// ---------------------------------------------------------------------------
// Warm differential: IncrementalEngine over an update stream
// ---------------------------------------------------------------------------

Tuple Row(int64_t v) { return Tuple{Value(v)}; }

/// One random realized update: insert a random tuple or delete a random
/// live one (retrying a few times for a non-empty delta).
void RandomUpdate(Database* db, Rng* rng) {
  for (int attempt = 0; attempt < 4; ++attempt) {
    uint32_t rel =
        static_cast<uint32_t>(rng->NextBounded(db->num_relations()));
    bool insert = rng->NextBool(0.5);
    Delta delta;
    if (insert) {
      delta = db->ApplyUpdate(
          rel, true, {Row(static_cast<int64_t>(rng->NextBounded(4)))});
    } else {
      std::vector<TupleId> live = db->base_view().LiveTupleIds();
      if (live.empty()) continue;
      TupleId victim = live[rng->NextBounded(live.size())];
      delta = db->ApplyUpdate(victim.relation, false, {db->tuple(victim)});
    }
    if (!delta.empty()) return;
  }
}

class CqaSliceWarmTest : public ::testing::TestWithParam<int> {};

TEST_P(CqaSliceWarmTest, WarmMatchesColdOverUpdates) {
  RandomInstance inst = MakeRandomInstance(
      static_cast<uint64_t>(GetParam()) * 977 + 29);
  StatusOr<std::unique_ptr<IncrementalEngine>> warm_or =
      IncrementalEngine::Create(&inst.db, inst.program);
  ASSERT_TRUE(warm_or.ok()) << inst.description;
  IncrementalEngine* warm = warm_or->get();
  StatusOr<RepairEngine> cold_or =
      RepairEngine::Create(&inst.db, inst.program);
  ASSERT_TRUE(cold_or.ok()) << inst.description;
  RepairEngine* cold = &cold_or.value();

  Rng rng(static_cast<uint64_t>(GetParam()) + 4242);
  const int steps = ScaledIters(12);
  for (int step = 0; step < steps; ++step) {
    RandomUpdate(&inst.db, &rng);
    std::string context =
        StrFormat("seed %d step %d (v%llu)\nprogram:\n%s", GetParam(), step,
                  static_cast<unsigned long long>(inst.db.version()),
                  inst.description.c_str());
    const char* q = RandomQueries(static_cast<size_t>(step));
    for (const std::string& s : AllSemanticsNames()) {
      // Warm path — including the warm judge's cone-grained verdict
      // cache across steps.
      CqaRequest request(s, q);
      request.annotate = true;
      CqaResult got = warm->ExecuteCqa(request);
      // Reference: the sequential cold run, itself checked against the
      // brute-force oracle. cold->program() is the *resolved* copy
      // (relation indices bound).
      CqaResult want = AnswerQueryOnSnapshot(cold, request);
      ExpectMatchesBruteForce(&inst.db, cold->program(), q, want,
                              StrFormat("%s cold-vs-brute-force\nquery: "
                                        "%s\n%s",
                                        s.c_str(), q, context.c_str()));
      ExpectSameAnswers(&inst.db, cold->program(), q, got, want,
                        StrFormat("%s warm-vs-cold\nquery: %s\n%s",
                                  s.c_str(), q, context.c_str()));
    }
    ASSERT_EQ(warm->warm_version(), inst.db.version()) << context;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CqaSliceWarmTest, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Parallel entailment stress (TSan target)
// ---------------------------------------------------------------------------

// Many answers through a 4-worker entailment pool, cold and warm,
// repeatedly — the data-race surface is the shared repair space
// (memoized slices, stats flushes), so the assertion is simply "agrees
// with sequential" while TSan watches.
TEST(CqaSliceStressTest, ParallelEntailmentWithSlicing) {
  CqaFixture f;
  ASSERT_TRUE(f.engine.ok());
  StatusOr<std::unique_ptr<IncrementalEngine>> warm_or =
      IncrementalEngine::Create(&f.ex.db, f.ex.program);
  ASSERT_TRUE(warm_or.ok());
  const char* query = "Q(a, p) :- Writes(a, p), Pub(p, t).";
  const int rounds = ScaledIters(4);
  for (int round = 0; round < rounds; ++round) {
    for (const std::string& s : AllSemanticsNames()) {
      CqaRequest request(s, query);
      request.annotate = true;
      request.options.threads = 4;
      CqaRequest sequential = request;
      sequential.options.threads = 1;

      CqaResult par = AnswerQuery(&f.engine.value(), request);
      CqaResult seq = AnswerQuery(&f.engine.value(), sequential);
      ExpectSameAnswers(&f.ex.db, f.engine->program(), query, par, seq,
                        StrFormat("cold round %d %s", round, s.c_str()));

      CqaResult warm_par = (*warm_or)->ExecuteCqa(request);
      ExpectSameAnswers(&f.ex.db, f.engine->program(), query, warm_par, seq,
                        StrFormat("warm round %d %s", round, s.c_str()));
    }
  }
}

}  // namespace
}  // namespace deltarepair
