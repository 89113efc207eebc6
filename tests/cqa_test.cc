// Consistent query answering: query parsing/grounding, per-semantics
// repair spaces, and the certain/possible evaluator — differentially
// tested against the brute-force repair enumerator on the paper's
// running example and randomized small instances, plus the budget /
// cancellation / batch contracts.
#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "common/string_util.h"
#include "cqa/brute_force.h"
#include "cqa/cqa.h"
#include "obs/trace.h"
#include "repair/stability.h"
#include "tests/test_util.h"
#include "workload/programs.h"

namespace deltarepair {
namespace {

Query MustParseQuery(const std::string& text) {
  StatusOr<Query> q = ParseQuery(text);
  if (!q.ok()) {
    std::fprintf(stderr, "query parse failure: %s\n",
                 q.status().ToString().c_str());
    std::abort();
  }
  return std::move(q).value();
}

std::vector<std::string> AllSemanticsNames() {
  return {"end", "stage", "step", "independent"};
}

std::string RenderTuples(const std::vector<Tuple>& tuples) {
  std::string out = "{";
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (i) out += ", ";
    out += TupleToString(tuples[i]);
  }
  return out + "}";
}

// ---------------------------------------------------------------------------
// Parsing and grounding
// ---------------------------------------------------------------------------

TEST(QueryParseTest, ParsesUnionOfConjunctiveQueries) {
  Query q = MustParseQuery(
      "Q(a, n) :- Author(a, n), Writes(a, p).\n"
      "Q(a, n) :- Author(a, n), AuthGrant(a, g).\n");
  EXPECT_EQ(q.head_name, "Q");
  EXPECT_EQ(q.arity, 2u);
  ASSERT_EQ(q.rules.size(), 2u);
  EXPECT_EQ(q.rules[0].self_atom, -1);
  EXPECT_EQ(q.rules[0].body.size(), 2u);
}

TEST(QueryParseTest, RejectsBadQueries) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("~Q(x) :- R(x).").ok());       // delta head
  EXPECT_FALSE(ParseQuery("Q(x) :- R(x), ~S(x).").ok()); // delta body atom
  EXPECT_FALSE(ParseQuery("Q(x, y) :- R(x).").ok());     // unsafe head var
  EXPECT_FALSE(ParseQuery("Q(x) :- R(x), y < 3.").ok()); // unbound cmp var
  EXPECT_FALSE(ParseQuery("Q(x) :- x < 3.").ok());       // no relational atom
  EXPECT_FALSE(
      ParseQuery("Q(x) :- R(x).\nP(x) :- R(x).").ok());  // two head names
  EXPECT_FALSE(
      ParseQuery("Q(x) :- R(x).\nQ(x, y) :- R(x), R(y).").ok());  // arity
}

TEST(QueryParseTest, ResolveChecksRelations) {
  RunningExample ex = MakeRunningExample();
  Query q = MustParseQuery("Q(a) :- Nope(a).");
  EXPECT_FALSE(ResolveQuery(&q, ex.db).ok());
  Query arity = MustParseQuery("Q(a) :- Author(a).");
  EXPECT_FALSE(ResolveQuery(&arity, ex.db).ok());
  Query good = MustParseQuery("Q(a) :- Author(a, n).");
  EXPECT_TRUE(ResolveQuery(&good, ex.db).ok());
}

TEST(QueryGroundTest, AnswersAndProvenanceOverRunningExample) {
  RunningExample ex = MakeRunningExample();
  Query q = MustParseQuery("Q(n) :- Author(a, n), Writes(a, p).");
  ASSERT_TRUE(ResolveQuery(&q, ex.db).ok());
  std::map<Tuple, AnswerProvenance> grounded =
      GroundQuery(&ex.db.base_view(), q, nullptr);
  // Marge (aid 4, w1) and Homer (aid 5, w2) have papers; Maggie has none.
  ASSERT_EQ(grounded.size(), 2u);
  EXPECT_EQ(grounded.begin()->first, Tuple{Value("Homer")});
  EXPECT_EQ(grounded.rbegin()->first, Tuple{Value("Marge")});
  for (const auto& [answer, prov] : grounded) {
    ASSERT_EQ(prov.monomials.size(), 1u);
    EXPECT_EQ(prov.monomials[0].size(), 2u);  // author + writes tuple
  }
  // Constants in the head and repeated variables work.
  Query constant = MustParseQuery("Q(7, a) :- AuthGrant(a, g), g >= 2.");
  ASSERT_TRUE(ResolveQuery(&constant, ex.db).ok());
  std::vector<Tuple> rows = EvalQuery(&ex.db.base_view(), constant);
  ASSERT_EQ(rows.size(), 2u);  // ag2 (aid 4), ag3 (aid 5)
  EXPECT_EQ(rows[0], (Tuple{Value(int64_t{7}), Value(int64_t{4})}));
}

TEST(QueryGroundTest, ConstantsAbsentFromTheDictionary) {
  // 'Lisa' and 'tag' are in no relation, so they have no cell code: they
  // match nothing under =, hold under !=, order against stored strings
  // by value, and a head constant still decodes, merged across rules.
  RunningExample ex = MakeRunningExample();
  const size_t dict_size = ex.db.dict().size();
  auto eval = [&](const char* text) {
    Query q = MustParseQuery(text);
    EXPECT_TRUE(ResolveQuery(&q, ex.db).ok()) << text;
    return EvalQuery(&ex.db.base_view(), q);
  };
  EXPECT_TRUE(eval("Q(a) :- Author(a, n), n = 'Lisa'.").empty());
  EXPECT_TRUE(eval("Q(a) :- Author(a, 'Lisa').").empty());
  EXPECT_EQ(eval("Q(a) :- Author(a, n), n != 'Lisa'.").size(), 3u);
  // Homer < Lisa < Maggie < Marge.
  EXPECT_EQ(eval("Q(n) :- Author(a, n), n > 'Lisa'."),
            (std::vector<Tuple>{{Value("Maggie")}, {Value("Marge")}}));
  EXPECT_EQ(eval("Q(n) :- Author(a, n), 'Lisa' > n."),
            (std::vector<Tuple>{{Value("Homer")}}));

  Query ucq = MustParseQuery(
      "Q(n, 'tag') :- Author(a, n), Writes(a, p).\n"
      "Q(n, 'tag') :- Author(a, n), AuthGrant(a, g).");
  ASSERT_TRUE(ResolveQuery(&ucq, ex.db).ok());
  std::map<Tuple, AnswerProvenance> grounded =
      GroundQuery(&ex.db.base_view(), ucq, nullptr);
  ASSERT_EQ(grounded.size(), 3u);
  EXPECT_EQ(grounded.begin()->first, (Tuple{Value("Homer"), Value("tag")}));
  // Homer is derived via Writes and via AuthGrant: one answer, two
  // monomials.
  EXPECT_EQ(grounded.begin()->second.monomials.size(), 2u);
  EXPECT_EQ(ex.db.dict().size(), dict_size);
}

// ---------------------------------------------------------------------------
// Evaluator semantics on the running example
// ---------------------------------------------------------------------------

struct CqaFixture {
  RunningExample ex;
  StatusOr<RepairEngine> engine;

  CqaFixture()
      : ex(MakeRunningExample()),
        engine(RepairEngine::Create(&ex.db, ex.program)) {}
};

TEST(CqaTest, RunningExampleCertainAnswersUnderEnd) {
  CqaFixture f;
  ASSERT_TRUE(f.engine.ok());
  CqaRequest request("end", "Q(n) :- Author(a, n).");
  CqaResult result = AnswerQuery(&f.engine.value(), request);
  ASSERT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_EQ(result.termination, TerminationReason::kComplete);
  EXPECT_TRUE(result.stats.space_exact);
  EXPECT_EQ(result.stats.space_repairs, 1u);
  // End semantics deletes the ERC-funded authors (Marge, Homer); Maggie
  // (NSF) survives in the one end repair: certain == possible.
  EXPECT_EQ(result.CertainAnswers(),
            std::vector<Tuple>{Tuple{Value("Maggie")}});
  EXPECT_EQ(result.PossibleAnswers(),
            std::vector<Tuple>{Tuple{Value("Maggie")}});
  // The full Q(D) is reported, with per-answer verdicts.
  EXPECT_EQ(result.answers.size(), 3u);
  for (const CqaAnswer& a : result.answers) {
    EXPECT_TRUE(a.decided);
    EXPECT_EQ(a.derivations, 1u);
  }
}

TEST(CqaTest, StateIsRestoredAndRerunsAreDeterministic) {
  CqaFixture f;
  ASSERT_TRUE(f.engine.ok());
  size_t live_before = f.ex.db.TotalLive();
  CqaRequest request("independent", "Q(n) :- Author(a, n).");
  CqaResult first = AnswerQuery(&f.engine.value(), request);
  EXPECT_EQ(f.ex.db.TotalLive(), live_before);
  EXPECT_EQ(f.ex.db.TotalDelta(), 0u);
  CqaResult second = AnswerQuery(&f.engine.value(), request);
  ASSERT_EQ(first.answers.size(), second.answers.size());
  for (size_t i = 0; i < first.answers.size(); ++i) {
    EXPECT_EQ(first.answers[i].values, second.answers[i].values);
    EXPECT_EQ(first.answers[i].certain, second.answers[i].certain);
    EXPECT_EQ(first.answers[i].possible, second.answers[i].possible);
  }
}

TEST(CqaTest, UnknownSemanticsAndBadQueryFailCleanly) {
  CqaFixture f;
  ASSERT_TRUE(f.engine.ok());
  CqaRequest bogus("bogus", "Q(n) :- Author(a, n).");
  CqaResult r1 = AnswerQuery(&f.engine.value(), bogus);
  EXPECT_FALSE(r1.ok());
  EXPECT_EQ(r1.termination, TerminationReason::kInvalidProgram);
  CqaRequest bad_query("end", "Q(n) :- ~Author(a, n).");
  CqaResult r2 = AnswerQuery(&f.engine.value(), bad_query);
  EXPECT_FALSE(r2.ok());
  CqaRequest bad_rel("end", "Q(n) :- Missing(a, n).");
  CqaResult r3 = AnswerQuery(&f.engine.value(), bad_rel);
  EXPECT_FALSE(r3.ok());
}

TEST(CqaTest, AliasResolvesThroughSemanticsRegistry) {
  CqaFixture f;
  ASSERT_TRUE(f.engine.ok());
  CqaRequest request("ind", "Q(n) :- Author(a, n).");
  CqaResult result = AnswerQuery(&f.engine.value(), request);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.semantics, "independent");
  EXPECT_EQ(result.kind, SemanticsKind::kIndependent);
}

TEST(CqaTest, VerdictFlagsSkipWork) {
  CqaFixture f;
  ASSERT_TRUE(f.engine.ok());
  CqaRequest request("independent", "Q(n) :- Author(a, n).");
  request.certain = false;
  CqaResult result = AnswerQuery(&f.engine.value(), request);
  ASSERT_TRUE(result.ok());
  for (const CqaAnswer& a : result.answers) {
    EXPECT_TRUE(a.decided);  // every *requested* verdict proven
    EXPECT_TRUE(a.possible_decided);
    EXPECT_FALSE(a.certain);  // skipped: conservative bound...
    // ...and never disguised as proven (impossible answers may still
    // infer certain_decided for free; possible ones must not).
    if (a.possible) {
      EXPECT_FALSE(a.certain_decided);
    }
  }
  EXPECT_EQ(result.stats.certain_answers, 0u);
  EXPECT_GT(result.stats.possible_answers, 0u);
}

TEST(CqaTest, EntailmentCallsLandInRepairStats) {
  CqaFixture f;
  ASSERT_TRUE(f.engine.ok());
  CqaRequest request("independent", "Q(n) :- Author(a, n).");
  CqaResult result = AnswerQuery(&f.engine.value(), request);
  ASSERT_TRUE(result.ok());
  // Min-Ones pinning the space plus one assumption solve per answer
  // check: strictly more solver calls than the space's Min-Ones alone.
  EXPECT_GT(result.stats.repair.sat_solve_calls, 0u);
  EXPECT_GT(result.stats.repair.cnf_vars, 0u);
  CqaRequest no_checks = request;
  no_checks.certain = false;
  no_checks.possible = false;
  CqaResult baseline = AnswerQuery(&f.engine.value(), no_checks);
  EXPECT_GT(result.stats.repair.sat_solve_calls,
            baseline.stats.repair.sat_solve_calls);
}

TEST(CqaFallbackCapTest, CapWiderThanAreaLeavesVerdictsUndecided) {
  // Every Writes answer is certain (the minimum repair deletes only the
  // hub author); the component's cap has area (kHubPubs + 1) x 2.
  constexpr int kHubPubs = 6;
  Database db;
  Program program = MakeHubAuthorInstance(&db, kHubPubs);
  StatusOr<RepairEngine> engine = RepairEngine::Create(&db, program);
  ASSERT_TRUE(engine.ok());
  // Every verdict runs on the answer's cone slice: the whole star.
  CqaRequest request("independent", "Q(p) :- W(x, p).");
  CqaResult capped_run = AnswerQuery(&engine.value(), request);
  ASSERT_TRUE(capped_run.ok());
  EXPECT_EQ(capped_run.CertainAnswers().size(), size_t{kHubPubs});
  EXPECT_EQ(capped_run.stats.undecided_answers, 0u);

  // Below the cap's area the cap is skipped: the space stays exact, and
  // the sliced verdicts come back undecided instead of wrong.
  request.options.independent.min_ones.max_totalizer_area =
      2 * (kHubPubs + 1) - 1;
  Trace::Enable(true);
  Trace::Clear();
  CqaResult uncapped_run = AnswerQuery(&engine.value(), request);
  std::vector<TraceEvent> events = Trace::Collect();
  Trace::Enable(false);
  Trace::Clear();
  ASSERT_TRUE(uncapped_run.ok());
  // Each undecided sliced verdict (certain, then possible) says why on
  // its span.
  size_t skipped = 0;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) != "cqa.slice_solve") continue;
    ASSERT_STREQ(e.arg_keys[0], "cap_skipped");
    EXPECT_EQ(e.arg_vals[0], 1u);
    ++skipped;
  }
  EXPECT_EQ(skipped, size_t{2 * kHubPubs});
  EXPECT_TRUE(uncapped_run.stats.space_exact);
  EXPECT_EQ(uncapped_run.stats.undecided_answers, size_t{kHubPubs});
  for (const CqaAnswer& answer : uncapped_run.answers) {
    EXPECT_FALSE(answer.decided);
    EXPECT_FALSE(answer.certain);
    EXPECT_TRUE(answer.possible);
  }
}

// A fifth semantics whose CQA space is always inexact: exercises the
// registry extension path and the termination contract for spaces
// truncated by *internal* caps (no request budget involved).
class StubSemantics : public Semantics {
 public:
  const char* name() const override { return "stub-inexact"; }
  SemanticsKind kind() const override { return SemanticsKind::kEnd; }
  using Semantics::Run;
  RepairResult Run(InstanceView*, const Program&, const RepairOptions&,
                   ExecContext*) const override {
    return RepairResult{};
  }
};

TEST(CqaRegistryTest, InternalTruncationReportsBudgetExhausted) {
  ASSERT_TRUE(SemanticsRegistry::Global()
                  .Register(std::make_unique<StubSemantics>())
                  .ok());
  // exact=true with zero repairs: the space must refuse the claim
  // (vacuous certainty over an empty space) and degrade to inexact.
  ASSERT_TRUE(CqaRegistry::Global()
                  .Register("stub-inexact",
                            [](InstanceView*, const Program&,
                               const RepairOptions&, ExecContext*) {
                              return std::make_unique<EnumeratedRepairSpace>(
                                  std::vector<std::vector<TupleId>>{},
                                  /*exact=*/true, RepairStats{});
                            })
                  .ok());
  CqaFixture f;
  ASSERT_TRUE(f.engine.ok());
  CqaRequest request("stub-inexact", "Q(n) :- Author(a, n).");
  CqaResult result = AnswerQuery(&f.engine.value(), request);
  ASSERT_TRUE(result.ok());
  // No request budget tripped, but the space is inexact: reporting
  // kComplete would claim verdicts this run never proved.
  EXPECT_EQ(result.termination, TerminationReason::kBudgetExhausted);
  for (const CqaAnswer& a : result.answers) {
    EXPECT_FALSE(a.decided);
    EXPECT_FALSE(a.certain);
    EXPECT_TRUE(a.possible);
  }
}

TEST(CqaRegistryTest, StepSpaceDegradesOnDeepCascades) {
  // A forced 600-step deletion chain: deeper than the step builder's
  // internal depth cap, so the space must come back inexact (and fast)
  // instead of recursing through the whole cascade.
  Database db;
  uint32_t r = db.AddRelation(MakeIntSchema("R", {"x"}));
  uint32_t s = db.AddRelation(MakeIntSchema("S", {"x", "y"}));
  const int64_t n = 600;
  for (int64_t i = 0; i < n; ++i) {
    db.Insert(r, {Value(i)});
    if (i + 1 < n) db.Insert(s, {Value(i), Value(i + 1)});
  }
  Program program = MustParseProgram(
      "~R(x) :- R(x), x = 0.\n"
      "~R(y) :- R(y), S(x, y), ~R(x).\n");
  StatusOr<RepairEngine> engine = RepairEngine::Create(&db, program);
  ASSERT_TRUE(engine.ok());
  CqaRequest request("step", "Q(x) :- R(x), x >= 595.");
  CqaResult result = AnswerQuery(&engine.value(), request);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.termination, TerminationReason::kBudgetExhausted);
  EXPECT_FALSE(result.stats.space_exact);
  for (const CqaAnswer& a : result.answers) {
    EXPECT_FALSE(a.decided);
    EXPECT_FALSE(a.certain);
    EXPECT_TRUE(a.possible);
  }
}

// ---------------------------------------------------------------------------
// Annotated mode: minimal counterexamples
// ---------------------------------------------------------------------------

TEST(CqaAnnotateTest, CounterexamplesRefuteNonCertainAnswers) {
  CqaFixture f;
  ASSERT_TRUE(f.engine.ok());
  // The unique minimum repair deletes {g2, ag2, ag3} (cutting the ERC
  // grant's AuthGrant edges is cheaper than cascading into authors), so
  // the ERC AuthGrant answers are refutable.
  CqaRequest request("independent", "Q(a, g) :- AuthGrant(a, g).");
  request.annotate = true;
  CqaResult result = AnswerQuery(&f.engine.value(), request);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.stats.space_exact);
  size_t non_certain = 0;
  for (const CqaAnswer& a : result.answers) {
    if (a.certain) {
      EXPECT_TRUE(a.counterexample.empty());
      continue;
    }
    ++non_certain;
    ASSERT_FALSE(a.counterexample.empty()) << TupleToString(a.values);
    EXPECT_TRUE(a.counterexample_minimal);
    // The counterexample is a minimum repair (member of the space)...
    EXPECT_EQ(a.counterexample.size(), result.stats.repair_size);
    EXPECT_TRUE(IsStabilizingSet(&f.ex.db, f.engine->program(),
                                 a.counterexample));
    // ...and the answer really disappears under it.
    Query q = MustParseQuery(request.query);
    ASSERT_TRUE(ResolveQuery(&q, f.ex.db).ok());
    InstanceView view = f.ex.db.SnapshotView();
    for (const TupleId& t : a.counterexample) view.MarkDeleted(t);
    std::vector<Tuple> surviving = EvalQuery(&view, q);
    EXPECT_EQ(std::count(surviving.begin(), surviving.end(), a.values), 0)
        << TupleToString(a.values) << " survives "
        << RenderSet(f.ex.db, a.counterexample);
  }
  EXPECT_GT(non_certain, 0u);  // Marge and Homer are refutable
}

// ---------------------------------------------------------------------------
// Differential: production evaluator vs brute-force enumeration
// ---------------------------------------------------------------------------

void ExpectMatchesBruteForce(Database* db, RepairEngine* engine,
                             const std::string& query_text,
                             const std::string& context) {
  Query query = MustParseQuery(query_text);
  ASSERT_TRUE(ResolveQuery(&query, *db).ok()) << context;
  for (const std::string& name : AllSemanticsNames()) {
    CqaRequest request(name, query_text);
    request.annotate = true;
    CqaResult result = AnswerQuery(engine, request);
    ASSERT_TRUE(result.ok()) << name << "\n" << context;
    ASSERT_TRUE(result.stats.space_exact) << name << "\n" << context;
    EXPECT_EQ(result.stats.undecided_answers, 0u) << name << "\n" << context;

    std::optional<BruteForceCqaResult> brute =
        BruteForceCqa(db, engine->program(), query, result.kind);
    ASSERT_TRUE(brute.has_value()) << name << "\n" << context;
    EXPECT_EQ(result.CertainAnswers(), brute->certain)
        << name << " certain mismatch\n"
        << context << "got " << RenderTuples(result.CertainAnswers())
        << "\nwant " << RenderTuples(brute->certain);
    EXPECT_EQ(result.PossibleAnswers(), brute->possible)
        << name << " possible mismatch\n"
        << context << "got " << RenderTuples(result.PossibleAnswers())
        << "\nwant " << RenderTuples(brute->possible);

    // Annotated counterexamples refute their answers inside the space.
    for (const CqaAnswer& a : result.answers) {
      if (a.certain || a.counterexample.empty()) continue;
      EXPECT_TRUE(
          IsStabilizingSet(db, engine->program(), a.counterexample))
          << name << "\n" << context;
    }
  }
}

TEST(CqaDifferentialTest, RunningExampleAllSemantics) {
  CqaFixture f;
  ASSERT_TRUE(f.engine.ok());
  const char* queries[] = {
      "Q(n) :- Author(a, n).",
      "Q(n) :- Author(a, n), Writes(a, p).",
      "Q(t) :- Pub(p, t).",
      "Q(a, p) :- Writes(a, p), Pub(p, t).",
      "Q(c) :- Cite(c, p), Pub(p, t).",
      "Q(n) :- Author(a, n), AuthGrant(a, g), Grant(g, gn).",
      // UCQ with a constant and a comparison.
      "Q(n) :- Grant(g, n), g >= 2.\nQ(n) :- Author(a, n), a <= 2.",
  };
  for (const char* q : queries) {
    ExpectMatchesBruteForce(&f.ex.db, &f.engine.value(), q,
                            StrFormat("query: %s\n", q));
  }
}

// Random small instances: the properties_test generator shape (three
// unary relations, acyclic cascade programs) plus random queries.
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

class CqaRandomDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(CqaRandomDifferentialTest, MatchesBruteForceOnAllSemantics) {
  RandomInstance inst = MakeRandomInstance(
      static_cast<uint64_t>(GetParam()) * 131 + 7);
  StatusOr<RepairEngine> engine =
      RepairEngine::Create(&inst.db, inst.program);
  ASSERT_TRUE(engine.ok()) << inst.description;
  const char* queries[] = {
      "Q(x) :- R0(x).",
      "Q(x) :- R1(x), R2(x).",
      "Q(x, y) :- R0(x), R1(y), x <= y.",
      "Q(x) :- R0(x).\nQ(x) :- R2(x), x >= 1.",
  };
  for (const char* q : queries) {
    ExpectMatchesBruteForce(
        &inst.db, &engine.value(), q,
        StrFormat("program:\n%squery: %s\n", inst.description.c_str(), q));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CqaRandomDifferentialTest,
                         ::testing::Range(0, 32));

// ---------------------------------------------------------------------------
// Budget / cancellation contracts
// ---------------------------------------------------------------------------

TEST(CqaContractTest, ExhaustedBudgetStaysConservative) {
  CqaFixture f;
  ASSERT_TRUE(f.engine.ok());
  CqaRequest request("independent",
                     "Q(a, p) :- Writes(a, p), Pub(p, t).");
  request.options.budget_seconds = 1e-9;
  CqaResult result = AnswerQuery(&f.engine.value(), request);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.termination, TerminationReason::kBudgetExhausted);
  EXPECT_FALSE(result.stats.space_exact);
  for (const CqaAnswer& a : result.answers) {
    EXPECT_FALSE(a.decided);
    EXPECT_FALSE(a.certain);   // conservative: no unproven certainty
    EXPECT_TRUE(a.possible);   // conservative: nothing ruled out
  }
}

TEST(CqaContractTest, CancellationUnwinds) {
  CqaFixture f;
  ASSERT_TRUE(f.engine.ok());
  CancelToken cancel;
  cancel.Cancel();
  for (const std::string& name : AllSemanticsNames()) {
    CqaRequest request(name, "Q(n) :- Author(a, n).");
    request.options.cancel = &cancel;
    CqaResult result = AnswerQuery(&f.engine.value(), request);
    ASSERT_TRUE(result.ok()) << name;
    EXPECT_EQ(result.termination, TerminationReason::kCancelled) << name;
    for (const CqaAnswer& a : result.answers) {
      EXPECT_FALSE(a.decided) << name;
    }
  }
}

// ---------------------------------------------------------------------------
// Batch execution
// ---------------------------------------------------------------------------

TEST(CqaBatchTest, ParallelBatchMatchesSequential) {
  CqaFixture f;
  ASSERT_TRUE(f.engine.ok());
  std::vector<CqaRequest> requests;
  for (const std::string& name : AllSemanticsNames()) {
    requests.emplace_back(name, "Q(n) :- Author(a, n).");
    requests.emplace_back(name, "Q(a, p) :- Writes(a, p), Pub(p, t).");
    requests.back().annotate = true;
  }
  std::vector<CqaResult> sequential =
      AnswerQueryBatch(&f.engine.value(), requests, 1);
  std::vector<CqaResult> parallel =
      AnswerQueryBatch(&f.engine.value(), requests, 4);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (size_t i = 0; i < sequential.size(); ++i) {
    ASSERT_TRUE(sequential[i].ok());
    ASSERT_TRUE(parallel[i].ok());
    EXPECT_EQ(sequential[i].semantics, parallel[i].semantics);
    ASSERT_EQ(sequential[i].answers.size(), parallel[i].answers.size());
    for (size_t a = 0; a < sequential[i].answers.size(); ++a) {
      EXPECT_EQ(sequential[i].answers[a].values,
                parallel[i].answers[a].values);
      EXPECT_EQ(sequential[i].answers[a].certain,
                parallel[i].answers[a].certain);
      EXPECT_EQ(sequential[i].answers[a].possible,
                parallel[i].answers[a].possible);
      EXPECT_EQ(sequential[i].answers[a].counterexample.size(),
                parallel[i].answers[a].counterexample.size());
    }
  }
  // The canonical state is untouched by the batch.
  EXPECT_EQ(f.ex.db.TotalDelta(), 0u);
}

}  // namespace
}  // namespace deltarepair
