// Deletion-explanation tests over the running example's provenance graph.
#include <gtest/gtest.h>

#include <unordered_set>

#include "repair/explain.h"
#include "repair/repair_engine.h"
#include "tests/test_util.h"
#include "workload/programs.h"

namespace deltarepair {
namespace {

struct ExplainFixture {
  RunningExample ex;
  ProvenanceGraph graph;

  ExplainFixture() : ex(MakeRunningExample()) {
    StatusOr<RepairEngine> engine = RepairEngine::Create(&ex.db, ex.program);
    if (!engine.ok()) std::abort();
    RepairRequest request;
    request.semantics = "end";
    request.options.record_provenance = &graph;
    engine->Execute(request);  // restores db state itself
  }
};

TEST(ExplainTest, SeedDeletionIsOneStep) {
  ExplainFixture f;
  auto explanation = ExplainDeletion(f.graph, f.ex.g2);
  ASSERT_TRUE(explanation.has_value());
  ASSERT_EQ(explanation->steps.size(), 1u);
  EXPECT_EQ(explanation->steps[0].rule_index, 0);
  EXPECT_EQ(explanation->steps[0].derived, f.ex.g2);
  EXPECT_TRUE(explanation->steps[0].deltas.empty());
}

TEST(ExplainTest, CascadedDeletionUnwindsToSeed) {
  ExplainFixture f;
  // ~Cite(7,6) derives via rule 4 from ~Pub(6), which derives from
  // ~Author(4) (rule 2), which derives from ~Grant(2) (rule 1).
  auto explanation = ExplainDeletion(f.graph, f.ex.c);
  ASSERT_TRUE(explanation.has_value());
  ASSERT_EQ(explanation->steps.size(), 4u);
  // Dependency order: the seed comes first, the queried tuple last.
  EXPECT_EQ(explanation->steps.front().derived, f.ex.g2);
  EXPECT_EQ(explanation->steps.back().derived, f.ex.c);
  EXPECT_EQ(explanation->steps.back().rule_index, 4);
  // Every consumed delta appears as an earlier step.
  std::unordered_set<uint64_t> seen;
  for (const auto& step : explanation->steps) {
    for (const TupleId& d : step.deltas) {
      EXPECT_TRUE(seen.count(d.Pack())) << "unexplained dependency";
    }
    seen.insert(step.derived.Pack());
  }
}

TEST(ExplainTest, SharedDependenciesExplainedOnce) {
  ExplainFixture f;
  // ~Pub(7) and ~Writes(5,7) both depend on ~Author(5); explaining a
  // tuple that needs both must not duplicate the Author step.
  auto explanation = ExplainDeletion(f.graph, f.ex.p2);
  ASSERT_TRUE(explanation.has_value());
  size_t author_steps = 0;
  for (const auto& step : explanation->steps) {
    if (step.derived == f.ex.a3) ++author_steps;
  }
  EXPECT_EQ(author_steps, 1u);
}

TEST(ExplainTest, NonDerivedTupleHasNoExplanation) {
  ExplainFixture f;
  EXPECT_FALSE(ExplainDeletion(f.graph, f.ex.ag2).has_value());
  EXPECT_FALSE(ExplainDeletion(f.graph, f.ex.g1).has_value());
}

TEST(ExplainTest, UsesTheEarliestDerivation) {
  // ~C(1) is derived twice: in round 2 by rule 3 (via ~A) and in round 3
  // by rule 0 (via ~B). Rule order must not matter: the explanation
  // follows the round-2 derivation, the minimal-depth proof.
  Database db;
  uint32_t a = db.AddRelation(MakeIntSchema("A", {"x"}));
  uint32_t b = db.AddRelation(MakeIntSchema("B", {"x"}));
  uint32_t c = db.AddRelation(MakeIntSchema("C", {"x"}));
  TupleId ta = db.Insert(a, {Value(int64_t{1})});
  db.Insert(b, {Value(int64_t{1})});
  TupleId tc = db.Insert(c, {Value(int64_t{1})});
  Program program = MustParseProgram(
      "~C(x) :- C(x), ~B(x).\n"
      "~B(x) :- B(x), ~A(x).\n"
      "~A(x) :- A(x).\n"
      "~C(x) :- C(x), ~A(x).\n");
  StatusOr<RepairEngine> engine = RepairEngine::Create(&db, program);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ProvenanceGraph graph;
  RepairRequest request;
  request.semantics = "end";
  request.options.record_provenance = &graph;
  engine->Execute(request);
  const uint32_t node = graph.FindDeltaNode(tc);
  ASSERT_NE(node, ProvenanceGraph::kNoNode);
  ASSERT_EQ(graph.Derivations(node).size(), 2u);
  EXPECT_EQ(graph.rule_index(graph.Derivations(node).front()), 3);

  auto explanation = ExplainDeletion(graph, tc);
  ASSERT_TRUE(explanation.has_value());
  ASSERT_EQ(explanation->steps.size(), 2u);
  EXPECT_EQ(explanation->steps[0].derived, ta);
  EXPECT_EQ(explanation->steps[1].rule_index, 3);
  EXPECT_EQ(explanation->steps[1].deltas, std::vector<TupleId>{ta});
}

TEST(ExplainTest, RenderMentionsRulesAndTuples) {
  ExplainFixture f;
  auto explanation = ExplainDeletion(f.graph, f.ex.w1);
  ASSERT_TRUE(explanation.has_value());
  std::string rendered = RenderExplanation(f.ex.db, *explanation);
  EXPECT_NE(rendered.find("Grant(2, 'ERC')"), std::string::npos);
  EXPECT_NE(rendered.find("deleted by rule"), std::string::npos);
  EXPECT_NE(rendered.find("~"), std::string::npos);
}

}  // namespace
}  // namespace deltarepair
