// Reachable Algorithm 1 differential suite. The independent semantics
// grounds only the assignments its delta-free rules can trigger
// (ReachableEval, repair/stability_model.h), and that restriction must
// not change a single minimum repair. On small random instances beyond
// cqa_slice_test's generator — rules with two delta atoms, seedless and
// seeded cycles, self-recursive rules, several base atoms per rule — the
// reachable grounding must equal a naive closure over the full
// hypothetical enumeration (each reachable assignment emitted once), the
// independent repair must be optimal, stabilizing and of the exact
// (subset enumeration) size, the family of minimum models of the
// reachable CNF must equal the brute-force independent repair space, the
// warm engine, which runs the same pipeline on its view, must report the
// same CNF shape, and every counterexample (threaded judges, extending
// the closure over one shared view) must be a smallest stabilizing set
// killing its answer. Count pins fix the reachable sizes on the paper's
// workloads.
//
// DR_FUZZ_ITERS multiplies the randomized coverage (nightly deep-fuzz
// job); the default count keeps an ASan/TSan CI run fast.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "cqa/brute_force.h"
#include "cqa/cqa.h"
#include "repair/exact.h"
#include "repair/repair_engine.h"
#include "repair/stability.h"
#include "repair/stability_model.h"
#include "service/incremental_engine.h"
#include "tests/test_util.h"
#include "workload/mas_generator.h"
#include "workload/programs.h"
#include "workload/tpch_generator.h"

namespace deltarepair {
namespace {

/// Scales a base iteration count by the DR_FUZZ_ITERS multiplier.
int ScaledIters(int base) {
  const char* env = std::getenv("DR_FUZZ_ITERS");
  if (env == nullptr) return base;
  int mult = std::atoi(env);
  return mult > 1 ? base * mult : base;
}

struct RandomInstance {
  Database db;
  Program program;
  std::string description;
};

/// Three unary int relations over a domain of 4 and 2-6 rules. A seeded
/// program has at least one rule with no delta atom; a seedless one has
/// none, so nothing is reachable and the empty set is the only minimum
/// repair.
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
  auto pick = [&] { return static_cast<int>(rng.NextBounded(num_rels)); };
  const bool seeded = rng.NextBool(0.8);
  std::string text;
  int num_rules = 2 + static_cast<int>(rng.NextBounded(5));
  for (int i = 0; i < num_rules; ++i) {
    const int h = pick();
    const int o = pick();
    const int p = pick();
    // Rule 0 of a seeded program is delta-free; a seedless program draws
    // only shapes with a delta atom.
    const uint64_t shape = seeded && i == 0 ? rng.NextBounded(2)
                           : seeded         ? rng.NextBounded(7)
                                            : 2 + rng.NextBounded(5);
    switch (shape) {
      case 0:
        text += StrFormat("~R%d(x) :- R%d(x), x <= %d.\n", h, h,
                          static_cast<int>(rng.NextBounded(domain)));
        break;
      case 1:  // several base atoms, no delta
        text += StrFormat("~R%d(x) :- R%d(x), R%d(x), R%d(y), x != y.\n", h,
                          h, o, p);
        break;
      case 2:  // one delta atom; cycles arise across rules
        text += StrFormat("~R%d(x) :- R%d(x), ~R%d(x).\n", h, h, o);
        break;
      case 3:  // two delta atoms
        text += StrFormat("~R%d(x) :- R%d(x), ~R%d(x), ~R%d(y).\n", h, h, o,
                          p);
        break;
      case 4:  // two delta atoms over one relation
        text += StrFormat("~R%d(x) :- R%d(x), ~R%d(y), ~R%d(z), y < z.\n", h,
                          h, o, o);
        break;
      case 5:  // self-recursive
        text += StrFormat("~R%d(x) :- R%d(x), ~R%d(y), x < y.\n", h, h, h);
        break;
      default:  // several base atoms around a delta atom
        text += StrFormat("~R%d(x) :- R%d(x), R%d(y), ~R%d(y), R%d(x).\n", h,
                          h, o, p, o);
        break;
    }
  }
  inst.program = MustParseProgram(text);
  inst.description = text;
  return inst;
}

/// The reachable set by its definition: a naive fixpoint over the full
/// hypothetical enumeration. Returns the number of assignments whose
/// delta tuples all lie in it, and the set itself.
std::pair<uint64_t, std::set<TupleId>> NaiveClosure(Database* db,
                                                    const Program& program) {
  struct Assignment {
    std::vector<TupleId> base, delta;
  };
  std::vector<Assignment> all;
  Grounder grounder(db);
  for (size_t i = 0; i < program.rules().size(); ++i) {
    grounder.EnumerateRule(
        program.rules()[i], static_cast<int>(i), BaseMatch::kLive,
        DeltaMatch::kHypothetical, [&](const GroundAssignment& ga) {
          Assignment a;
          for (size_t j = 0; j < ga.body.size(); ++j) {
            (ga.rule->body[j].is_delta ? a.delta : a.base)
                .push_back(ga.body[j]);
          }
          all.push_back(std::move(a));
          return true;
        });
  }
  std::set<TupleId> reached;
  uint64_t fired = 0;
  for (bool grew = true; grew;) {
    grew = false;
    fired = 0;
    for (const Assignment& a : all) {
      if (!std::all_of(a.delta.begin(), a.delta.end(),
                       [&](TupleId t) { return reached.count(t) != 0; })) {
        continue;
      }
      ++fired;
      for (TupleId t : a.base) grew |= reached.insert(t).second;
    }
  }
  return {fired, reached};
}

/// Every model of `cnf` with exactly `k` true variables, as sorted tuple
/// sets.
std::set<std::vector<TupleId>> MinimumModels(const StabilityModel& model) {
  std::set<std::vector<TupleId>> out;
  uint64_t budget = UINT64_MAX;
  const uint32_t n = model.num_vars();
  ForEachSubset(n, model.optimum(), &budget,
                [&](const std::vector<size_t>& idx) {
                  std::vector<bool> assignment(n, false);
                  for (size_t v : idx) assignment[v] = true;
                  if (model.cnf().IsSatisfiedBy(assignment)) {
                    std::vector<TupleId> set;
                    for (size_t v : idx) {
                      set.push_back(model.tuple(static_cast<uint32_t>(v)));
                    }
                    std::sort(set.begin(), set.end());
                    out.insert(std::move(set));
                  }
                  return false;
                });
  return out;
}

/// Size of the smallest stabilizing set without `answer` in Q(D \ set),
/// or nullopt when none exists.
std::optional<size_t> SmallestStabilizingKiller(Database* db,
                                                const Program& program,
                                                const Query& query,
                                                const Tuple& answer) {
  std::vector<TupleId> universe = db->LiveTupleIds();
  for (size_t k = 0; k <= universe.size(); ++k) {
    uint64_t budget = UINT64_MAX;
    const bool found = ForEachSubset(
        universe.size(), k, &budget, [&](const std::vector<size_t>& idx) {
          std::vector<TupleId> set;
          for (size_t i : idx) set.push_back(universe[i]);
          if (!IsStabilizingSet(db, program, set)) return false;
          InstanceView view = db->SnapshotView();
          for (const TupleId& t : set) view.MarkDeleted(t);
          std::vector<Tuple> alive = EvalQuery(&view, query);
          return std::count(alive.begin(), alive.end(), answer) == 0;
        });
    if (found) return k;
  }
  return std::nullopt;
}

void ExpectReachableMatchesFull(RandomInstance* inst,
                                const std::string& context) {
  Database* db = &inst->db;
  StatusOr<RepairEngine> engine = RepairEngine::Create(db, inst->program);
  ASSERT_TRUE(engine.ok()) << context;
  const Program& program = engine->program();

  // Independent repair: optimal, stabilizing, of the exact size.
  RepairOutcome out = engine->Execute(RepairRequest{"independent"});
  ASSERT_TRUE(out.ok()) << context;
  const RepairStats& stats = out.result.stats;
  EXPECT_TRUE(stats.optimal) << context;
  EXPECT_TRUE(IsStabilizingSet(db, program, out.result.deleted)) << context;
  std::optional<RepairResult> exact = ExactIndependent(db, program);
  ASSERT_TRUE(exact.has_value()) << context;
  EXPECT_EQ(out.result.size(), exact->size()) << context;

  // The grounding is the closure, each assignment once.
  const auto [fired, reached] = NaiveClosure(db, program);
  EXPECT_EQ(stats.assignments, fired) << context;
  EXPECT_EQ(stats.cnf_vars, reached.size()) << context;

  // Same minimum repairs as the full definition.
  InstanceView view = db->SnapshotView();
  ExecContext ctx;
  RepairStats model_stats;
  std::shared_ptr<const StabilityModel> model = BuildStabilityModel(
      &view, program, MinOnesOptions(), &ctx, &model_stats);
  ASSERT_NE(model, nullptr) << context;
  for (uint32_t v = 0; v < model->num_vars(); ++v) {
    EXPECT_EQ(reached.count(model->tuple(v)), 1u) << context;
  }
  std::optional<std::vector<std::vector<TupleId>>> space =
      EnumerateRepairSpace(db, program, SemanticsKind::kIndependent);
  ASSERT_TRUE(space.has_value()) << context;
  EXPECT_EQ(MinimumModels(*model),
            std::set<std::vector<TupleId>>(space->begin(), space->end()))
      << context;

  // The warm engine runs the same pipeline on its view: same CNF shape.
  StatusOr<std::unique_ptr<IncrementalEngine>> warm =
      IncrementalEngine::Create(db, inst->program);
  ASSERT_TRUE(warm.ok()) << context;
  RepairOutcome w = (*warm)->ExecuteRepair(RepairRequest{"independent"});
  ASSERT_TRUE(w.ok()) << context;
  EXPECT_EQ(w.result.size(), out.result.size()) << context;
  EXPECT_EQ(w.result.stats.cnf_vars, stats.cnf_vars) << context;
  EXPECT_EQ(w.result.stats.cnf_clauses, stats.cnf_clauses) << context;
  EXPECT_EQ(w.result.stats.cnf_dup_clauses, stats.cnf_dup_clauses)
      << context;
  EXPECT_EQ(w.result.stats.cnf_subsumed_clauses, stats.cnf_subsumed_clauses)
      << context;

  // Counterexamples from threaded judges: each a smallest stabilizing
  // killer, found beyond the closure when the answer needs it.
  const std::string query_text = "Q(x) :- R0(x), R1(x).\nQ(x) :- R2(x).";
  StatusOr<Query> query = ParseQuery(query_text);
  ASSERT_TRUE(query.ok()) << context;
  ASSERT_TRUE(ResolveQuery(&query.value(), *db).ok()) << context;
  CqaRequest request("independent", query_text);
  request.certain = false;
  request.annotate = true;
  request.options.threads = 4;
  for (const CqaResult& result :
       {AnswerQuery(&engine.value(), request), (*warm)->ExecuteCqa(request)}) {
    ASSERT_TRUE(result.ok()) << context;
    for (const CqaAnswer& a : result.answers) {
      const std::string at = TupleToString(a.values) + "\n" + context;
      std::optional<size_t> smallest =
          SmallestStabilizingKiller(db, program, query.value(), a.values);
      ASSERT_EQ(a.counterexample.empty(), !smallest.has_value()) << at;
      if (a.counterexample.empty()) continue;
      EXPECT_TRUE(IsStabilizingSet(db, program, a.counterexample)) << at;
      ASSERT_TRUE(a.counterexample_minimal) << at;
      EXPECT_EQ(a.counterexample.size(), *smallest) << at;
    }
  }
}

class ReachableEvalRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(ReachableEvalRandomTest, SameMinimumRepairsAsTheFullGrounding) {
  // DR_FUZZ_ITERS deepens each seed's stream instead of adding
  // parameterized seeds (gtest instantiation counts are static).
  const int rounds = ScaledIters(2);
  for (int round = 0; round < rounds; ++round) {
    RandomInstance inst = MakeRandomInstance(
        static_cast<uint64_t>(GetParam()) * 7919 +
        static_cast<uint64_t>(round) * 104729 + 5);
    ExpectReachableMatchesFull(
        &inst, StrFormat("seed %d round %d\nprogram:\n%s", GetParam(), round,
                         inst.description.c_str()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReachableEvalRandomTest,
                         ::testing::Range(0, 40));

// ---------------------------------------------------------------------------
// Count pins: the reachable sizes on the paper's workloads
// ---------------------------------------------------------------------------

RepairStats IndependentStats(Database* db, Program program) {
  StatusOr<RepairEngine> engine = RepairEngine::Create(db, std::move(program));
  DR_CHECK_MSG(engine.ok(), engine.status().ToString());
  RepairOutcome out = engine->Execute(RepairRequest{"independent"});
  DR_CHECK(out.ok());
  return out.result.stats;
}

TEST(ReachableEvalTest, MasProgram20GroundsItsReachablePart) {
  // The full hypothetical grounding has 11,476 assignments over 9,776
  // variables.
  MasData mas = GenerateMas(MasConfig());
  RepairStats stats = IndependentStats(&mas.db, MasProgram(20, mas.hubs));
  EXPECT_EQ(stats.assignments, 1609u);
  EXPECT_EQ(stats.cnf_vars, 1576u);
}

TEST(ReachableEvalTest, TpchT5GroundsItsReachablePart) {
  // The full hypothetical grounding has 4,255 assignments over 595
  // variables.
  TpchData tpch = GenerateTpch(TpchConfig());
  RepairStats stats = IndependentStats(&tpch.db, TpchProgram(5, tpch.consts));
  EXPECT_EQ(stats.assignments, 109u);
  EXPECT_EQ(stats.cnf_vars, 30u);
}

TEST(ReachableEvalTest, SeedlessCycleGroundsNothing) {
  Database db;
  uint32_t a = db.AddRelation(MakeIntSchema("A", {"x"}));
  uint32_t b = db.AddRelation(MakeIntSchema("B", {"x"}));
  for (int64_t x : {1, 2, 3}) {
    db.Insert(a, {Value(x)});
    db.Insert(b, {Value(x)});
  }
  RepairStats stats = IndependentStats(
      &db, MustParseProgram("~A(x) :- A(x), ~B(x).\n"
                            "~B(x) :- B(x), ~A(x).\n"));
  EXPECT_EQ(stats.assignments, 0u);
  EXPECT_EQ(stats.cnf_vars, 0u);
  EXPECT_EQ(stats.cnf_clauses, 0u);
  EXPECT_TRUE(stats.optimal);
}

}  // namespace
}  // namespace deltarepair
