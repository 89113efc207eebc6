// Direct tests of the shared semi-naive fixpoint (repair/fixpoint.h):
// round counting, snapshot-per-round layer discipline, pivoting over
// multi-delta rules, and the end-vs-stage divergence point.
#include <gtest/gtest.h>

#include "provenance/prov_graph.h"
#include "repair/fixpoint.h"
#include "tests/test_util.h"

namespace deltarepair {
namespace {

struct ChainDb {
  Database db;
  std::vector<TupleId> tuples;  // A(0), B(0), C(0), D(0)

  ChainDb() {
    for (const char* name : {"A", "B", "C", "D"}) {
      uint32_t rel = db.AddRelation(MakeIntSchema(name, {"x"}));
      tuples.push_back(db.Insert(rel, {Value(int64_t{0})}));
    }
  }
};

/// Unbounded fixpoint run (these tests exercise the substrate, not the
/// budget plumbing — api_test covers that).
bool RunFixpoint(Database* db, const Program& program,
                 bool delete_between_rounds, ProvenanceGraph* prov,
                 RepairStats* stats) {
  ExecContext ctx;
  return RunSemiNaiveFixpoint(&db->base_view(), program,
                              delete_between_rounds, prov, stats, &ctx);
}

Program ChainProgram() {
  return MustParseProgram(
      "~A(x) :- A(x).\n"
      "~B(x) :- B(x), ~A(x).\n"
      "~C(x) :- C(x), ~B(x).\n"
      "~D(x) :- D(x), ~C(x).\n");
}

TEST(FixpointTest, RoundCountMatchesChainDepth) {
  ChainDb f;
  Program program = ChainProgram();
  ASSERT_TRUE(ResolveProgram(&program, f.db).ok());
  RepairStats stats;
  RunFixpoint(&f.db, program, /*delete_between_rounds=*/false,
                       nullptr, &stats);
  // 4 productive rounds + 1 empty fixpoint round.
  EXPECT_EQ(stats.iterations, 5u);
  EXPECT_EQ(f.db.TotalDelta(), 4u);
  // End mode: bases stay live during evaluation.
  EXPECT_EQ(f.db.TotalLive(), 4u);
}

TEST(FixpointTest, StageModeDeletesBetweenRounds) {
  ChainDb f;
  Program program = ChainProgram();
  ASSERT_TRUE(ResolveProgram(&program, f.db).ok());
  RepairStats stats;
  RunFixpoint(&f.db, program, /*delete_between_rounds=*/true,
                       nullptr, &stats);
  EXPECT_EQ(f.db.TotalDelta(), 4u);
  EXPECT_EQ(f.db.TotalLive(), 0u);
}

TEST(FixpointTest, ProvenanceLayersAreDerivationDepths) {
  ChainDb f;
  Program program = ChainProgram();
  ASSERT_TRUE(ResolveProgram(&program, f.db).ok());
  ProvenanceGraph graph;
  RepairStats stats;
  RunFixpoint(&f.db, program, false, &graph, &stats);
  for (int i = 0; i < 4; ++i) {
    const uint32_t node = graph.FindDeltaNode(f.tuples[i]);
    ASSERT_NE(node, ProvenanceGraph::kNoNode) << i;
    EXPECT_EQ(graph.node_layer(node), i + 1) << i;
  }
  EXPECT_EQ(graph.num_layers(), 4);
  EXPECT_EQ(graph.num_assignments(), 4u);
}

TEST(FixpointTest, MultiDeltaRuleFiresOnceBothInputsExist) {
  // ~C needs both ~A and ~B; A arrives in round 1, B in round 2 —
  // C must appear in round 3 exactly once despite two pivot positions.
  Database db;
  uint32_t a = db.AddRelation(MakeIntSchema("A", {"x"}));
  uint32_t b = db.AddRelation(MakeIntSchema("B", {"x"}));
  uint32_t c = db.AddRelation(MakeIntSchema("C", {"x"}));
  TupleId ta = db.Insert(a, {Value(int64_t{0})});
  TupleId tb = db.Insert(b, {Value(int64_t{0})});
  TupleId tc = db.Insert(c, {Value(int64_t{0})});
  Program program = MustParseProgram(
      "~A(x) :- A(x).\n"
      "~B(x) :- B(x), ~A(x).\n"
      "~C(x) :- C(x), ~A(x), ~B(x).\n");
  ASSERT_TRUE(ResolveProgram(&program, db).ok());
  ProvenanceGraph graph;
  RepairStats stats;
  RunFixpoint(&db, program, false, &graph, &stats);
  EXPECT_TRUE(db.delta(tc));
  EXPECT_EQ(graph.node_layer(graph.FindDeltaNode(ta)), 1);
  EXPECT_EQ(graph.node_layer(graph.FindDeltaNode(tb)), 2);
  EXPECT_EQ(graph.node_layer(graph.FindDeltaNode(tc)), 3);
  // The C derivation is recorded once (pivot dedup).
  EXPECT_EQ(graph.Derivations(graph.FindDeltaNode(tc)).size(), 1u);
}

TEST(FixpointTest, SameRoundDeltasNotVisibleWithinRound) {
  // Two seeds in round 1; a rule consuming both fires in round 2, not
  // round 1 (snapshot evaluation keeps layers exact).
  Database db;
  uint32_t a = db.AddRelation(MakeIntSchema("A", {"x"}));
  uint32_t b = db.AddRelation(MakeIntSchema("B", {"x"}));
  uint32_t c = db.AddRelation(MakeIntSchema("C", {"x"}));
  db.Insert(a, {Value(int64_t{0})});
  db.Insert(b, {Value(int64_t{0})});
  TupleId tc = db.Insert(c, {Value(int64_t{0})});
  Program program = MustParseProgram(
      "~A(x) :- A(x).\n"
      "~B(x) :- B(x).\n"
      "~C(x) :- C(x), ~A(x), ~B(x).\n");
  ASSERT_TRUE(ResolveProgram(&program, db).ok());
  ProvenanceGraph graph;
  RepairStats stats;
  RunFixpoint(&db, program, false, &graph, &stats);
  EXPECT_EQ(graph.node_layer(graph.FindDeltaNode(tc)), 2);
}

TEST(FixpointTest, StageGuardCutsCascadeMidway) {
  // Guarded rule: ~C after ~B while A is live; but A is deleted in round
  // 1, so in stage mode C survives while end mode deletes it.
  Database db;
  uint32_t a = db.AddRelation(MakeIntSchema("A", {"x"}));
  uint32_t b = db.AddRelation(MakeIntSchema("B", {"x"}));
  uint32_t c = db.AddRelation(MakeIntSchema("C", {"x"}));
  db.Insert(a, {Value(int64_t{0})});
  db.Insert(b, {Value(int64_t{0})});
  TupleId tc = db.Insert(c, {Value(int64_t{0})});
  Program program = MustParseProgram(
      "~A(x) :- A(x).\n"
      "~B(x) :- B(x), ~A(x).\n"
      "~C(x) :- C(x), A(x), ~B(x).\n");
  ASSERT_TRUE(ResolveProgram(&program, db).ok());
  {
    Database copy = db;
    Program p = program;
    ASSERT_TRUE(ResolveProgram(&p, copy).ok());
    RepairStats stats;
    RunFixpoint(&copy, p, /*delete_between_rounds=*/true, nullptr,
                         &stats);
    EXPECT_FALSE(copy.delta(tc)) << "stage: guard was already deleted";
  }
  {
    RepairStats stats;
    RunFixpoint(&db, program, /*delete_between_rounds=*/false,
                         nullptr, &stats);
    EXPECT_TRUE(db.delta(tc)) << "end: bases frozen, guard still matches";
  }
}

}  // namespace
}  // namespace deltarepair
