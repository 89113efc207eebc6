// Ablation tests for the design choices DESIGN.md calls out: Algorithm
// 2's max-benefit ordering and Min-Ones component decomposition.
#include <gtest/gtest.h>

#include "repair/repair_engine.h"
#include "sat/min_ones.h"
#include "tests/test_util.h"

namespace deltarepair {
namespace {

TEST(StepOrderingAblationTest, MaxBenefitBeatsArbitraryOnHubInstance) {
  // W registered before A so arbitrary (smallest-id) order picks a W
  // tuple first and ends up deleting every W; max-benefit picks the hub
  // author (benefit 2k) and deletes one tuple.
  Database db;
  uint32_t w = db.AddRelation(MakeIntSchema("W", {"a", "p"}));
  uint32_t a = db.AddRelation(MakeIntSchema("A", {"x"}));
  const int k = 6;
  for (int i = 0; i < k; ++i) {
    db.Insert(w, {Value(int64_t{1}), Value(int64_t{100 + i})});
  }
  db.Insert(a, {Value(int64_t{1})});
  Program program = MustParseProgram(
      "~A(x) :- A(x), W(x, p).\n"
      "~W(x, p) :- A(x), W(x, p).\n");

  StatusOr<RepairEngine> step_engine = RepairEngine::Create(&db, program);
  ASSERT_TRUE(step_engine.ok());
  RepairRequest request;
  request.semantics = "step";
  RepairResult greedy = step_engine->Execute(request).result;
  request.options.step.ordering = StepOrdering::kArbitrary;
  RepairResult baseline = step_engine->Execute(request).result;

  EXPECT_EQ(greedy.size(), 1u);
  EXPECT_EQ(baseline.size(), static_cast<size_t>(k));
  EXPECT_LT(greedy.size(), baseline.size());
  // Both are still stabilizing sets — the ordering only affects size.
  Database check = db;
  StatusOr<RepairEngine> engine = RepairEngine::Create(&check, program);
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE(engine->Verify(greedy));
  EXPECT_TRUE(engine->Verify(baseline));
}

TEST(MinOnesDecompositionAblationTest, SameOptimumEitherWay) {
  // 20 disjoint triangles: preprocessing reduces none of them, so the
  // knob alone decides 20 components or 1.
  Cnf cnf;
  for (uint32_t i = 0; i < 60; i += 3) {
    cnf.AddClause({PosLit(i), PosLit(i + 1)});
    cnf.AddClause({PosLit(i + 1), PosLit(i + 2)});
    cnf.AddClause({PosLit(i), PosLit(i + 2)});
  }
  MinOnesOptions with;
  MinOnesResult decomposed = MinOnesSat(cnf, with);
  MinOnesOptions without;
  without.decompose_components = false;
  MinOnesResult monolithic = MinOnesSat(cnf, without);
  ASSERT_TRUE(decomposed.satisfiable);
  ASSERT_TRUE(monolithic.satisfiable);
  EXPECT_EQ(decomposed.num_true, 40u);
  EXPECT_EQ(monolithic.num_true, 40u);
  EXPECT_EQ(decomposed.num_components, 20u);
  EXPECT_EQ(monolithic.num_components, 1u);
}

TEST(MinOnesDecompositionAblationTest, PairsDecidedBeforeDecomposition) {
  // 20 disjoint (a ∨ b): dominance decides every pair in preprocessing,
  // so neither setting has a component left and both prove optimum 20.
  Cnf cnf;
  for (uint32_t i = 0; i < 40; i += 2) {
    cnf.AddClause({PosLit(i), PosLit(i + 1)});
  }
  MinOnesOptions without;
  without.decompose_components = false;
  for (const MinOnesOptions& options : {MinOnesOptions{}, without}) {
    MinOnesResult r = MinOnesSat(cnf, options);
    ASSERT_TRUE(r.satisfiable);
    EXPECT_TRUE(r.optimal);
    EXPECT_EQ(r.num_true, 20u);
    EXPECT_EQ(r.num_components, 0u);
  }
}

TEST(MinOnesDecompositionAblationTest, DecompositionExploresLessWork) {
  // Chain of independent triangles: the monolithic search must reason
  // about all of them at once.
  Cnf cnf;
  uint32_t v = 0;
  for (int t = 0; t < 12; ++t) {
    uint32_t x = v++, y = v++, z = v++;
    cnf.AddClause({PosLit(x), PosLit(y)});
    cnf.AddClause({PosLit(y), PosLit(z)});
    cnf.AddClause({PosLit(x), PosLit(z)});
  }
  MinOnesResult decomposed = MinOnesSat(cnf);
  MinOnesOptions without;
  without.decompose_components = false;
  MinOnesResult monolithic = MinOnesSat(cnf, without);
  EXPECT_EQ(decomposed.num_true, 24u);  // 2 per triangle
  EXPECT_EQ(monolithic.num_true, 24u);
  EXPECT_LE(decomposed.engine_assignments, monolithic.engine_assignments);
}

}  // namespace
}  // namespace deltarepair
