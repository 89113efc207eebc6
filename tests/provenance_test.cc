// Provenance substrate tests: the deletion-CNF builder of Algorithm 1 and
// the provenance graph of Algorithm 2.
#include <gtest/gtest.h>

#include "provenance/bool_formula.h"
#include "provenance/prov_graph.h"
#include "repair/semantics_registry.h"
#include "tests/test_util.h"

namespace deltarepair {
namespace {

/// End-semantics evaluation with provenance recording, via the registry
/// runner layer (the graph is all these tests read; db state is left as
/// the runner applied it, as the old free function did).
void EvalEndWithProvenance(Database* db, const Program& program,
                           ProvenanceGraph* graph) {
  RepairOptions options;
  options.record_provenance = graph;
  ExecContext ctx(options);
  SemanticsRegistry::Global().GetKind(SemanticsKind::kEnd).Run(db, program,
                                                               options, &ctx);
}

struct ProvFixture {
  Database db;
  uint32_t a, b;
  Program program;

  ProvFixture() {
    a = db.AddRelation(MakeIntSchema("A", {"x"}));
    b = db.AddRelation(MakeIntSchema("B", {"x"}));
    db.Insert(a, {Value(int64_t{1})});
    db.Insert(b, {Value(int64_t{1})});
    program = MustParseProgram(
        "~A(x) :- A(x).\n"
        "~B(x) :- B(x), ~A(x).\n");
    Status st = ResolveProgram(&program, db);
    if (!st.ok()) std::abort();
  }
};

TEST(DeletionCnfBuilderTest, PolarityOfBaseAndDelta) {
  ProvFixture f;
  DeletionCnfBuilder builder;
  Grounder g(&f.db);
  for (size_t i = 0; i < f.program.rules().size(); ++i) {
    g.EnumerateRule(f.program.rules()[i], static_cast<int>(i),
                    BaseMatch::kLive, DeltaMatch::kHypothetical,
                    [&](const GroundAssignment& ga) {
                      builder.AddAssignment(ga);
                      return true;
                    });
  }
  // Rule 1: clause (v_A1). Rule 2: clause (v_B1 ∨ ¬v_A1).
  ASSERT_EQ(builder.cnf().num_clauses(), 2u);
  EXPECT_EQ(builder.num_vars(), 2u);
  // Find the binary clause and check polarity.
  bool found_unit = false, found_binary = false;
  for (const auto& clause : builder.cnf().clauses()) {
    if (clause.size() == 1) {
      found_unit = true;
      EXPECT_TRUE(LitSign(clause[0]));
      EXPECT_EQ(builder.TupleOfVar(LitVar(clause[0])).relation, f.a);
    } else {
      found_binary = true;
      int neg = 0, pos = 0;
      for (Lit l : clause) (LitSign(l) ? pos : neg)++;
      EXPECT_EQ(pos, 1);
      EXPECT_EQ(neg, 1);
    }
  }
  EXPECT_TRUE(found_unit);
  EXPECT_TRUE(found_binary);
}

TEST(DeletionCnfBuilderTest, TautologicalAssignmentDropped) {
  // Rule where a tuple is both required present and deleted: R(x), ~R(y)
  // with x = y binds both atoms to the same row.
  Database db;
  uint32_t r = db.AddRelation(MakeIntSchema("R", {"x"}));
  db.Insert(r, {Value(int64_t{1})});
  Program p = MustParseProgram("~R(x) :- R(x), ~R(y), x = y.");
  ASSERT_TRUE(ResolveProgram(&p, db).ok());
  DeletionCnfBuilder builder;
  Grounder g(&db);
  g.EnumerateRule(p.rules()[0], 0, BaseMatch::kLive,
                  DeltaMatch::kHypothetical,
                  [&](const GroundAssignment& ga) {
                    builder.AddAssignment(ga);
                    return true;
                  });
  EXPECT_EQ(builder.cnf().num_clauses(), 0u);
}

TEST(DeletionCnfBuilderTest, VarLookup) {
  DeletionCnfBuilder builder;
  TupleId t{0, 5};
  EXPECT_EQ(builder.FindVar(t), -1);
  uint32_t v = builder.VarOf(t);
  EXPECT_EQ(builder.FindVar(t), static_cast<int64_t>(v));
  EXPECT_EQ(builder.VarOf(t), v);  // idempotent
  EXPECT_EQ(builder.TupleOfVar(v), t);
}

TEST(DeletionCnfBuilderTest, AssignmentClauseIsCanonicalInPlace) {
  Database db;
  const uint32_t a = db.AddRelation(MakeIntSchema("A", {"x"}));
  const uint32_t b = db.AddRelation(MakeIntSchema("B", {"x"}));
  const uint32_t c = db.AddRelation(MakeIntSchema("C", {"x"}));
  for (uint32_t r : {a, b, c}) db.Insert(r, {Value(int64_t{1})});
  Program p = MustParseProgram(
      "~C(x) :- C(x), ~B(y), A(z), A(w).\n"
      "~C(x) :- C(x), ~C(y), A(z), A(w).\n");
  ASSERT_TRUE(ResolveProgram(&p, db).ok());
  const TupleId ta{a, 0}, tb{b, 0}, tc{c, 0};
  DeletionCnfBuilder builder;
  // Variables numbered against body order: A = 0, B = 1, C = 2.
  builder.VarOf(ta);
  builder.VarOf(tb);
  builder.VarOf(tc);
  const TupleId body[] = {tc, tb, ta, ta};
  builder.AddAssignment(p.rules()[0], body);
  ASSERT_EQ(builder.cnf().num_clauses(), 1u);
  const Cnf::Clause clause = builder.cnf().clauses()[0];
  // Sorted by variable; base atoms positive, the delta atom negative;
  // the repeated A once.
  EXPECT_EQ(std::vector<Lit>(clause.begin(), clause.end()),
            (std::vector<Lit>{PosLit(0), NegLit(1), PosLit(2)}));
  // C both present and deleted: a tautology, and the pool is left as it
  // was.
  const std::vector<Lit> pool = builder.cnf().literals();
  const TupleId vacuous[] = {tc, tc, ta, ta};
  builder.AddAssignment(p.rules()[1], vacuous);
  EXPECT_EQ(builder.cnf().num_clauses(), 1u);
  EXPECT_EQ(builder.cnf().literals(), pool);
  EXPECT_FALSE(builder.cnf().normalized());
  builder.Normalize();
  EXPECT_TRUE(builder.cnf().normalized());
}

TEST(DeletionCnfBuilderTest, RenderShowsPolarities) {
  ProvFixture f;
  DeletionCnfBuilder builder;
  Grounder g(&f.db);
  for (size_t i = 0; i < f.program.rules().size(); ++i) {
    g.EnumerateRule(f.program.rules()[i], static_cast<int>(i),
                    BaseMatch::kLive, DeltaMatch::kHypothetical,
                    [&](const GroundAssignment& ga) {
                      builder.AddAssignment(ga);
                      return true;
                    });
  }
  std::string rendered = builder.Render(f.db);
  EXPECT_NE(rendered.find("A(1)"), std::string::npos);
  EXPECT_NE(rendered.find("¬"), std::string::npos);
  EXPECT_NE(rendered.find("∧"), std::string::npos);
}

TEST(ProvenanceGraphTest, DedupesIdenticalAssignments) {
  ProvFixture f;
  ProvenanceGraph graph;
  GroundAssignment ga;
  ga.rule = &f.program.rules()[0];
  ga.rule_index = 0;
  ga.head = TupleId{f.a, 0};
  ga.body = {TupleId{f.a, 0}};
  EXPECT_GE(graph.AddAssignment(ga, 1), 0);
  EXPECT_EQ(graph.AddAssignment(ga, 2), -1);  // duplicate
  EXPECT_EQ(graph.num_assignments(), 1u);
  const uint32_t node = graph.FindDeltaNode(TupleId{f.a, 0});
  ASSERT_NE(node, ProvenanceGraph::kNoNode);
  EXPECT_EQ(graph.node_layer(node), 1);
  EXPECT_EQ(graph.Derivations(node).size(), 1u);
  EXPECT_EQ(graph.BaseUses(node).size(), 1u);  // kept once, counted once
}

TEST(ProvenanceGraphTest, SameHeadDifferentBodiesAreBothKept) {
  // Two rule-1 assignments deriving ∆B(1) whose bodies differ only in the
  // delta row (the graph records what it is given; it does not re-join).
  ProvFixture f;
  f.db.Insert(f.a, {Value(int64_t{2})});
  ProvenanceGraph graph;
  GroundAssignment ga;
  ga.rule = &f.program.rules()[1];
  ga.rule_index = 1;
  ga.head = TupleId{f.b, 0};
  ga.body = {TupleId{f.b, 0}, TupleId{f.a, 0}};
  EXPECT_EQ(graph.AddAssignment(ga, 2), 0);
  ga.body = {TupleId{f.b, 0}, TupleId{f.a, 1}};
  EXPECT_EQ(graph.AddAssignment(ga, 3), 1);
  EXPECT_EQ(graph.num_assignments(), 2u);
  ASSERT_EQ(graph.num_delta_nodes(), 1u);
  const uint32_t node = graph.FindDeltaNode(TupleId{f.b, 0});
  EXPECT_EQ(graph.node_layer(node), 2);  // first recorded layer
  IdRange derivations = graph.Derivations(node);
  ASSERT_EQ(derivations.size(), 2u);
  EXPECT_EQ(derivations.front(), 0u);
  EXPECT_EQ(graph.body(1, 1), (TupleId{f.a, 1}));
  EXPECT_TRUE(graph.body_is_delta(1, 1));
  EXPECT_FALSE(graph.body_is_delta(1, 0));
}

TEST(ProvenanceGraphTest, LayersAndUsesFromEndEvaluation) {
  ProvFixture f;
  ProvenanceGraph graph;
  EvalEndWithProvenance(&f.db, f.program, &graph);
  EXPECT_EQ(graph.num_layers(), 2);
  const uint32_t na = graph.FindDeltaNode(TupleId{f.a, 0});
  const uint32_t nb = graph.FindDeltaNode(TupleId{f.b, 0});
  ASSERT_NE(na, ProvenanceGraph::kNoNode);
  ASSERT_NE(nb, ProvenanceGraph::kNoNode);
  EXPECT_EQ(graph.node_layer(na), 1);
  EXPECT_EQ(graph.node_layer(nb), 2);
  // Benefit of A(1): participates as base in its own derivation only (1),
  // ∆A(1) feeds B's derivation (1) → benefit 0.
  EXPECT_EQ(graph.Benefit(na), 0);
  // Benefit of B(1): base in its own derivation, ∆B unused → 1.
  EXPECT_EQ(graph.Benefit(nb), 1);
  EXPECT_EQ(graph.BaseUses(na).size(), 1u);
  ASSERT_EQ(graph.DeltaUses(na).size(), 1u);
  EXPECT_EQ(graph.head_node(graph.DeltaUses(na).front()), nb);
  EXPECT_TRUE(graph.DeltaUses(nb).empty());
}

TEST(ProvenanceGraphTest, UseListsFollowRecordingAfterAQuery) {
  ProvFixture f;
  ProvenanceGraph graph;
  GroundAssignment seed;
  seed.rule = &f.program.rules()[0];
  seed.rule_index = 0;
  seed.head = TupleId{f.a, 0};
  seed.body = {TupleId{f.a, 0}};
  ASSERT_EQ(graph.AddAssignment(seed, 1), 0);
  const uint32_t na = graph.FindDeltaNode(TupleId{f.a, 0});
  // Query (builds the use lists), then keep recording.
  EXPECT_EQ(graph.Benefit(na), 1);
  EXPECT_TRUE(graph.DeltaUses(na).empty());

  GroundAssignment cascade;
  cascade.rule = &f.program.rules()[1];
  cascade.rule_index = 1;
  cascade.head = TupleId{f.b, 0};
  cascade.body = {TupleId{f.b, 0}, TupleId{f.a, 0}};
  ASSERT_EQ(graph.AddAssignment(cascade, 2), 1);
  const uint32_t nb = graph.FindDeltaNode(TupleId{f.b, 0});
  ASSERT_NE(nb, ProvenanceGraph::kNoNode);
  EXPECT_EQ(graph.DeltaUses(na).size(), 1u);
  EXPECT_EQ(graph.Benefit(na), 0);
  EXPECT_EQ(graph.Benefit(nb), 1);
  EXPECT_EQ(graph.Derivations(nb).size(), 1u);
  EXPECT_EQ(graph.num_layers(), 2);
}

TEST(ProvenanceGraphTest, ToStringListsLayers) {
  ProvFixture f;
  ProvenanceGraph graph;
  EvalEndWithProvenance(&f.db, f.program, &graph);
  std::string rendered = graph.ToString(f.db);
  EXPECT_NE(rendered.find("layer 1"), std::string::npos);
  EXPECT_NE(rendered.find("layer 2"), std::string::npos);
  EXPECT_NE(rendered.find("~B(1)"), std::string::npos);
}

TEST(ProvenanceGraphTest, BenefitOfUnknownTupleIsZero) {
  ProvenanceGraph graph;
  EXPECT_EQ(graph.Benefit(TupleId{9, 9}), 0);
  EXPECT_EQ(graph.FindDeltaNode(TupleId{9, 9}), ProvenanceGraph::kNoNode);
  EXPECT_EQ(graph.num_delta_nodes(), 0u);
}

}  // namespace
}  // namespace deltarepair
