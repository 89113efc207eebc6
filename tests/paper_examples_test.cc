// End-to-end validation against the paper's worked examples: the running
// example of Figures 1-5 (Examples 1.3, 3.4, 3.6, 3.8, 3.11, 5.1, 5.2),
// Proposition 3.19's two-solution instance, and the separation databases
// from the appendix proofs of Proposition 3.20.
#include <gtest/gtest.h>

#include "provenance/prov_graph.h"
#include "repair/exact.h"
#include "repair/repair_engine.h"
#include "repair/stability.h"
#include "tests/test_util.h"
#include "workload/programs.h"

namespace deltarepair {
namespace {

class RunningExampleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ex_ = MakeRunningExample();
    StatusOr<RepairEngine> engine = RepairEngine::Create(&ex_.db, ex_.program);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_.emplace(std::move(engine).value());
  }

  RunningExample ex_;
  std::optional<RepairEngine> engine_;
};

TEST_F(RunningExampleTest, DatabaseShape) {
  EXPECT_EQ(ex_.db.num_relations(), 6u);
  EXPECT_EQ(ex_.db.TotalLive(), 13u);
  EXPECT_FALSE(IsStable(&ex_.db, engine_->program()));
}

TEST_F(RunningExampleTest, EndSemanticsMatchesExample311) {
  RepairResult end = engine_->Run(SemanticsKind::kEnd);
  // End(P, D) = {g2, a2, a3, w1, w2, p1, p2, c} (Example 3.11).
  EXPECT_EQ(end.deleted, IdSet({ex_.g2, ex_.a2, ex_.a3, ex_.w1, ex_.w2,
                                ex_.p1, ex_.p2, ex_.c}))
      << RenderSet(ex_.db, end.deleted);
  EXPECT_TRUE(engine_->Verify(end));
}

TEST_F(RunningExampleTest, StageSemanticsMatchesExample38) {
  RepairResult stage = engine_->Run(SemanticsKind::kStage);
  // Stage(P, D) = {g2, a2, a3, w1, w2, p1, p2}: the Cite tuple survives
  // because by the stage at which rule 4 could fire, w1/w2 are deleted.
  EXPECT_EQ(stage.deleted, IdSet({ex_.g2, ex_.a2, ex_.a3, ex_.w1, ex_.w2,
                                  ex_.p1, ex_.p2}))
      << RenderSet(ex_.db, stage.deleted);
  EXPECT_TRUE(engine_->Verify(stage));
}

TEST_F(RunningExampleTest, StepSemanticsMatchesExample52) {
  RepairResult step = engine_->Run(SemanticsKind::kStep);
  // Algorithm 2 returns S = {g2, a2, a3, w1, w2} (Example 5.2).
  EXPECT_EQ(step.deleted, IdSet({ex_.g2, ex_.a2, ex_.a3, ex_.w1, ex_.w2}))
      << RenderSet(ex_.db, step.deleted);
  EXPECT_TRUE(engine_->Verify(step));
}

TEST_F(RunningExampleTest, IndependentSemanticsMatchesExample34) {
  RepairResult ind = engine_->Run(SemanticsKind::kIndependent);
  // Ind(P, D) = {g2, ag2, ag3} (Example 3.4) — and it is unique here.
  EXPECT_EQ(ind.deleted, IdSet({ex_.g2, ex_.ag2, ex_.ag3}))
      << RenderSet(ex_.db, ind.deleted);
  EXPECT_TRUE(ind.stats.optimal);
  EXPECT_TRUE(engine_->Verify(ind));
}

TEST_F(RunningExampleTest, ExactSolversAgreeOnRunningExample) {
  auto exact_ind = ExactIndependent(&ex_.db, engine_->program());
  ASSERT_TRUE(exact_ind.has_value());
  EXPECT_EQ(exact_ind->deleted, IdSet({ex_.g2, ex_.ag2, ex_.ag3}));

  auto exact_step = ExactStep(&ex_.db, engine_->program());
  ASSERT_TRUE(exact_step.has_value());
  // The optimum step result has 5 tuples; Algorithm 2 happens to find an
  // optimal sequence here (Example 5.2).
  EXPECT_EQ(exact_step->deleted.size(), 5u)
      << RenderSet(ex_.db, exact_step->deleted);
}

TEST_F(RunningExampleTest, SizeOrderingAcrossSemantics) {
  auto all = engine_->RunAll();
  const RepairResult& end = all[0];
  const RepairResult& stage = all[1];
  const RepairResult& step = all[2];
  const RepairResult& ind = all[3];
  // Figure 3: |Ind| <= |Step|, |Stage|; Stage ⊆ End; Step ⊆ End.
  EXPECT_LE(ind.size(), step.size());
  EXPECT_LE(ind.size(), stage.size());
  EXPECT_TRUE(stage.SubsetOf(end));
  EXPECT_TRUE(step.SubsetOf(end));
}

TEST_F(RunningExampleTest, ProvenanceGraphBenefitsMatchFigure5) {
  ProvenanceGraph graph;
  RepairRequest request;
  request.semantics = "end";
  request.options.record_provenance = &graph;
  engine_->Execute(request);  // restores db state itself

  // Benefits annotated in Figure 5: w1:3, p1:1, a2:-1, g2:-1, a3:-1,
  // p2:2, w2:3, c:1.
  EXPECT_EQ(graph.Benefit(ex_.w1), 3);
  EXPECT_EQ(graph.Benefit(ex_.p1), 1);
  EXPECT_EQ(graph.Benefit(ex_.a2), -1);
  EXPECT_EQ(graph.Benefit(ex_.g2), -1);
  EXPECT_EQ(graph.Benefit(ex_.a3), -1);
  EXPECT_EQ(graph.Benefit(ex_.p2), 2);
  EXPECT_EQ(graph.Benefit(ex_.w2), 3);
  EXPECT_EQ(graph.Benefit(ex_.c), 1);

  // The same benefits through the node ids Algorithm 2 walks.
  EXPECT_EQ(graph.num_delta_nodes(), 8u);
  for (const TupleId& t :
       {ex_.w1, ex_.p1, ex_.a2, ex_.g2, ex_.a3, ex_.p2, ex_.w2, ex_.c}) {
    const uint32_t node = graph.FindDeltaNode(t);
    ASSERT_NE(node, ProvenanceGraph::kNoNode);
    EXPECT_EQ(graph.node_tuple(node), t);
    EXPECT_EQ(graph.Benefit(node), graph.Benefit(t));
  }

  // Layer structure: g2 at 1; a2,a3 at 2; w1,w2,p1,p2 at 3; c at 4.
  auto layer = [&](TupleId t) {
    return graph.node_layer(graph.FindDeltaNode(t));
  };
  EXPECT_EQ(graph.num_layers(), 4);
  EXPECT_EQ(layer(ex_.g2), 1);
  EXPECT_EQ(layer(ex_.a2), 2);
  EXPECT_EQ(layer(ex_.a3), 2);
  EXPECT_EQ(layer(ex_.w1), 3);
  EXPECT_EQ(layer(ex_.p2), 3);
  EXPECT_EQ(layer(ex_.c), 4);
}

// Proposition 3.19: D = {R1(a), R2(b)} with rules ∆1(x) :- R1(x), R2(y)
// and ∆2(y) :- R1(x), R2(y) has two possible results for independent and
// step semantics; each is a singleton.
TEST(Prop319Test, TwoEquivalentSolutions) {
  Database db;
  uint32_t r1 = db.AddRelation(MakeIntSchema("R1", {"x"}));
  uint32_t r2 = db.AddRelation(MakeIntSchema("R2", {"y"}));
  TupleId ta = db.Insert(r1, {Value(int64_t{1})});
  TupleId tb = db.Insert(r2, {Value(int64_t{2})});

  Program program = MustParseProgram(
      "~R1(x) :- R1(x), R2(y).\n"
      "~R2(y) :- R1(x), R2(y).\n");
  StatusOr<RepairEngine> engine = RepairEngine::Create(&db, program);
  ASSERT_TRUE(engine.ok());

  RepairResult ind = engine->Run(SemanticsKind::kIndependent);
  EXPECT_EQ(ind.size(), 1u);
  EXPECT_TRUE(ind.deleted[0] == ta || ind.deleted[0] == tb);

  RepairResult step = engine->Run(SemanticsKind::kStep);
  EXPECT_EQ(step.size(), 1u);
  EXPECT_TRUE(step.deleted[0] == ta || step.deleted[0] == tb);

  auto exact = ExactStep(&db, engine->program());
  ASSERT_TRUE(exact.has_value());
  EXPECT_EQ(exact->deleted.size(), 1u);
}

// Proposition 3.20 (1): with D = {R1(a1..an), R2(b)} and the single rule
// ∆1(x) :- R1(x), R2(y), independent semantics deletes {R2(b)} while every
// other semantics deletes all of R1.
TEST(Prop320Test, IndependentStrictlySmaller) {
  Database db;
  uint32_t r1 = db.AddRelation(MakeIntSchema("R1", {"x"}));
  uint32_t r2 = db.AddRelation(MakeIntSchema("R2", {"y"}));
  const int n = 6;
  for (int i = 0; i < n; ++i) db.Insert(r1, {Value(int64_t{i})});
  TupleId tb = db.Insert(r2, {Value(int64_t{100})});

  Program program = MustParseProgram("~R1(x) :- R1(x), R2(y).\n");
  StatusOr<RepairEngine> engine = RepairEngine::Create(&db, program);
  ASSERT_TRUE(engine.ok());

  RepairResult ind = engine->Run(SemanticsKind::kIndependent);
  EXPECT_EQ(ind.deleted, IdSet({tb}));

  for (SemanticsKind k : {SemanticsKind::kEnd, SemanticsKind::kStage,
                          SemanticsKind::kStep}) {
    RepairResult r = engine->Run(k);
    EXPECT_EQ(r.size(), static_cast<size_t>(n)) << SemanticsName(k);
    EXPECT_FALSE(ind.SubsetOf(r));
  }
}

// Proposition 3.20 (2,3): the appendix chain program where stage stops
// early (R3 tuples survive) but end deletes everything derivable.
TEST(Prop320Test, StageStrictSubsetOfEnd) {
  Database db;
  uint32_t r1 = db.AddRelation(MakeIntSchema("R1", {"x"}));
  uint32_t r2 = db.AddRelation(MakeIntSchema("R2", {"x"}));
  uint32_t r3 = db.AddRelation(MakeIntSchema("R3", {"y"}));
  TupleId a1 = db.Insert(r1, {Value(int64_t{1})});
  TupleId a2 = db.Insert(r2, {Value(int64_t{1})});
  const int n = 5;
  std::vector<TupleId> bs;
  for (int i = 0; i < n; ++i) {
    bs.push_back(db.Insert(r3, {Value(int64_t{10 + i})}));
  }

  Program program = MustParseProgram(
      "~R1(x) :- R1(x).\n"
      "~R2(x) :- ~R1(x), R2(x).\n"
      "~R3(y) :- R1(x), ~R2(x), R3(y).\n");
  StatusOr<RepairEngine> engine = RepairEngine::Create(&db, program);
  ASSERT_TRUE(engine.ok());

  RepairResult end = engine->Run(SemanticsKind::kEnd);
  RepairResult stage = engine->Run(SemanticsKind::kStage);
  // End deletes R1(a), R2(a) and every R3(b_i); stage deletes only the
  // first two (R1(a) is gone by the time rule 3's body could hold).
  std::vector<TupleId> everything = {a1, a2};
  everything.insert(everything.end(), bs.begin(), bs.end());
  EXPECT_EQ(end.deleted, IdSet(everything));
  EXPECT_EQ(stage.deleted, IdSet({a1, a2}));
  EXPECT_TRUE(stage.SubsetOf(end));
  EXPECT_LT(stage.size(), end.size());
}

// Proposition 3.20 (4, part 1): two rules with the same body — stage
// deletes both sides, step can stop after one.
TEST(Prop320Test, StepCanBeStrictSubsetOfStage) {
  Database db;
  uint32_t r1 = db.AddRelation(MakeIntSchema("R1", {"x"}));
  uint32_t r2 = db.AddRelation(MakeIntSchema("R2", {"y"}));
  TupleId a = db.Insert(r1, {Value(int64_t{1})});
  const int n = 4;
  std::vector<TupleId> bs;
  for (int i = 0; i < n; ++i) {
    bs.push_back(db.Insert(r2, {Value(int64_t{10 + i})}));
  }

  Program program = MustParseProgram(
      "~R1(x) :- R1(x), R2(y).\n"
      "~R2(y) :- R1(x), R2(y).\n");
  StatusOr<RepairEngine> engine = RepairEngine::Create(&db, program);
  ASSERT_TRUE(engine.ok());

  RepairResult stage = engine->Run(SemanticsKind::kStage);
  RepairResult step = engine->Run(SemanticsKind::kStep);
  std::vector<TupleId> everything = {a};
  everything.insert(everything.end(), bs.begin(), bs.end());
  EXPECT_EQ(stage.deleted, IdSet(everything));  // whole database
  EXPECT_EQ(step.deleted, IdSet({a}));          // fire rule 1 first
  EXPECT_TRUE(step.SubsetOf(stage));
  EXPECT_LT(step.size(), stage.size());

  auto exact = ExactStep(&db, engine->program());
  ASSERT_TRUE(exact.has_value());
  EXPECT_EQ(exact->deleted.size(), 1u);
}

// Proposition 3.20 (4, part 2): the appendix database where stage deletes
// {R1(a), R2(b)} but any step sequence is forced to also delete all R3
// tuples — Stage(P,D) ⊊ Step(P,D).
TEST(Prop320Test, StageCanBeStrictSubsetOfStep) {
  Database db;
  uint32_t r1 = db.AddRelation(MakeIntSchema("R1", {"x"}));
  uint32_t r2 = db.AddRelation(MakeIntSchema("R2", {"y"}));
  uint32_t r3 = db.AddRelation(MakeIntSchema("R3", {"z"}));
  TupleId a = db.Insert(r1, {Value(int64_t{1})});
  TupleId b = db.Insert(r2, {Value(int64_t{2})});
  const int n = 3;
  for (int i = 0; i < n; ++i) db.Insert(r3, {Value(int64_t{10 + i})});

  Program program = MustParseProgram(
      "~R1(x) :- R1(x), R2(y).\n"
      "~R2(y) :- R1(x), R2(y).\n"
      "~R3(z) :- R3(z), ~R1(x), R2(y).\n"
      "~R3(z) :- R3(z), R1(x), ~R2(y).\n");
  StatusOr<RepairEngine> engine = RepairEngine::Create(&db, program);
  ASSERT_TRUE(engine.ok());

  RepairResult stage = engine->Run(SemanticsKind::kStage);
  EXPECT_EQ(stage.deleted, IdSet({a, b}));

  auto exact = ExactStep(&db, engine->program());
  ASSERT_TRUE(exact.has_value());
  // Any step sequence deletes one of {a, b} first, enabling a rule-3/4
  // cascade over every R3 tuple: 1 + n tuples.
  EXPECT_EQ(exact->deleted.size(), static_cast<size_t>(1 + n));
  EXPECT_LT(stage.size(), exact->deleted.size());
}

// Algorithm 1's negated provenance formula on the running example
// (Example 5.1) has exactly the six clauses of the paper (after
// deduplication; rules 2 and 3 share bodies).
TEST_F(RunningExampleTest, NegatedFormulaShape) {
  RepairResult ind = engine_->Run(SemanticsKind::kIndependent);
  // Only the tuples the delta-free rule 0 can trigger are grounded:
  // rule0: 1 assignment (g2), rule1: 2 (a2, a3 over g2), rules 2/3: 2
  // each, deduplicated to 2 clauses, rule4: 1 → 8 assignments over 10
  // variables, 6 clauses. No rule can trigger deleting g1, so the clause
  // (a1 ∨ ag1 ∨ ¬g1) is not grounded.
  EXPECT_EQ(ind.stats.assignments, 8u);
  EXPECT_EQ(ind.stats.cnf_vars, 10u);
  EXPECT_EQ(ind.stats.cnf_clauses, 6u);
  EXPECT_TRUE(ind.stats.optimal);
}

}  // namespace
}  // namespace deltarepair
