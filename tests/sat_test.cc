// SAT substrate tests: CNF construction, the CDCL engine, plain
// satisfiability, and the Min-Ones optimizer — including a randomized
// parameterized cross-check against brute force and the vertex-cover
// reduction of Proposition 4.2. (The deeper randomized differential
// suite, including assumption-based incrementality, is sat_fuzz_test.cc.)
#include <gtest/gtest.h>

#include "common/random.h"
#include "sat/min_ones.h"
#include "sat/solver.h"

namespace deltarepair {
namespace {

TEST(CnfTest, LiteralHelpers) {
  EXPECT_EQ(PosLit(0), 1);
  EXPECT_EQ(NegLit(0), -1);
  EXPECT_EQ(LitVar(PosLit(7)), 7u);
  EXPECT_EQ(LitVar(NegLit(7)), 7u);
  EXPECT_TRUE(LitSign(PosLit(3)));
  EXPECT_FALSE(LitSign(NegLit(3)));
}

TEST(CnfTest, AddClauseDedupesLiterals) {
  Cnf cnf;
  EXPECT_TRUE(cnf.AddClause({PosLit(0), PosLit(0), NegLit(1)}));
  ASSERT_EQ(cnf.num_clauses(), 1u);
  EXPECT_EQ(cnf.clauses()[0].size(), 2u);
}

TEST(CnfTest, TautologyDropped) {
  Cnf cnf;
  EXPECT_FALSE(cnf.AddClause({PosLit(0), NegLit(0)}));
  EXPECT_EQ(cnf.num_clauses(), 0u);
  EXPECT_EQ(cnf.num_vars(), 1u);  // variable still registered
}

TEST(CnfTest, NormalizeDropsLiteralOrderDuplicates) {
  Cnf cnf;
  cnf.AddClause({PosLit(0), PosLit(1)});
  cnf.AddClause({PosLit(1), PosLit(0)});  // same clause, different order
  cnf.AddClause({PosLit(2)});
  Cnf::NormalizeStats stats = cnf.Normalize();
  EXPECT_EQ(stats.duplicate_clauses, 1u);
  EXPECT_EQ(cnf.num_clauses(), 2u);
}

TEST(CnfTest, NormalizeDropsDuplicatesAndUnitSubsumed) {
  Cnf cnf;
  cnf.AddClause({PosLit(0)});                        // unit v0
  cnf.AddClause({PosLit(0), PosLit(1)});             // subsumed by the unit
  cnf.AddClause({PosLit(1), NegLit(2)});             // kept
  cnf.AddClause({NegLit(2), PosLit(1)});             // duplicate of previous
  cnf.AddClause({NegLit(0), PosLit(2)});             // kept (¬v0, not v0)
  Cnf::NormalizeStats stats = cnf.Normalize();
  EXPECT_EQ(stats.duplicate_clauses, 1u);
  EXPECT_EQ(stats.unit_subsumed_clauses, 1u);
  EXPECT_EQ(cnf.num_clauses(), 3u);
}

TEST(CnfTest, IsSatisfiedBy) {
  Cnf cnf;
  cnf.AddClause({PosLit(0), NegLit(1)});
  EXPECT_TRUE(cnf.IsSatisfiedBy({true, true}));
  EXPECT_TRUE(cnf.IsSatisfiedBy({false, false}));
  EXPECT_FALSE(cnf.IsSatisfiedBy({false, true}));
}

TEST(SolverTest, TrivialSatAndUnsat) {
  Cnf sat;
  sat.AddClause({PosLit(0)});
  sat.AddClause({NegLit(0), PosLit(1)});
  SatResult r = SolveSat(sat);
  ASSERT_TRUE(r.satisfiable);
  EXPECT_TRUE(r.model[0]);
  EXPECT_TRUE(r.model[1]);
  EXPECT_TRUE(sat.IsSatisfiedBy(r.model));

  Cnf unsat;
  unsat.AddClause({PosLit(0)});
  unsat.AddClause({NegLit(0)});
  EXPECT_FALSE(SolveSat(unsat).satisfiable);
}

TEST(SolverTest, EmptyClauseIsUnsat) {
  Cnf cnf;
  cnf.AddClause({});
  EXPECT_FALSE(SolveSat(cnf).satisfiable);
}

TEST(SolverTest, EmptyFormulaIsSat) {
  Cnf cnf(3);
  SatResult r = SolveSat(cnf);
  EXPECT_TRUE(r.satisfiable);
}

TEST(SolverTest, Pigeonhole3x2IsUnsat) {
  // 3 pigeons, 2 holes: var p*2+h means pigeon p in hole h.
  Cnf cnf;
  for (int p = 0; p < 3; ++p) {
    cnf.AddClause({PosLit(p * 2), PosLit(p * 2 + 1)});
  }
  for (int h = 0; h < 2; ++h) {
    for (int p1 = 0; p1 < 3; ++p1) {
      for (int p2 = p1 + 1; p2 < 3; ++p2) {
        cnf.AddClause({NegLit(p1 * 2 + h), NegLit(p2 * 2 + h)});
      }
    }
  }
  EXPECT_FALSE(SolveSat(cnf).satisfiable);
}

TEST(CdclSolverTest, SolveUnderAssumptions) {
  CdclSolver solver;
  solver.AddClause({PosLit(0), PosLit(1)});
  solver.AddClause({NegLit(0), PosLit(2)});
  EXPECT_EQ(solver.Solve(), SolveStatus::kSat);
  // Assuming ¬v1 forces v0 and then v2.
  EXPECT_EQ(solver.Solve({NegLit(1)}), SolveStatus::kSat);
  EXPECT_TRUE(solver.model()[0]);
  EXPECT_FALSE(solver.model()[1]);
  EXPECT_TRUE(solver.model()[2]);
  // Contradictory assumptions: unsat under assumptions only.
  EXPECT_EQ(solver.Solve({NegLit(1), NegLit(0)}), SolveStatus::kUnsat);
  EXPECT_TRUE(solver.ok());
  EXPECT_EQ(solver.Solve(), SolveStatus::kSat);
  // An assumption on a variable no clause mentions grows the universe.
  EXPECT_EQ(solver.Solve({PosLit(5)}), SolveStatus::kSat);
  EXPECT_EQ(solver.num_vars(), 6u);
  EXPECT_TRUE(solver.model()[5]);
}

TEST(CdclSolverTest, IncrementalAddClauseBetweenSolves) {
  CdclSolver solver;
  solver.AddClause({PosLit(0), PosLit(1)});
  EXPECT_EQ(solver.Solve(), SolveStatus::kSat);
  EXPECT_TRUE(solver.AddClause({NegLit(0)}));  // propagates v1 at level 0
  EXPECT_FALSE(solver.AddClause({NegLit(1)}));  // now contradicts: unsat
  EXPECT_EQ(solver.Solve(), SolveStatus::kUnsat);
  EXPECT_FALSE(solver.ok());
  // The solver stays usable and keeps answering kUnsat.
  EXPECT_EQ(solver.Solve(), SolveStatus::kUnsat);
}

TEST(CdclSolverTest, WorkBudgetReturnsUnknown) {
  // Hard instance (pigeonhole 6->5) with a tiny work budget.
  SolverOptions options;
  options.max_work = 20;
  CdclSolver solver(options);
  const int holes = 5;
  for (int p = 0; p < holes + 1; ++p) {
    std::vector<Lit> at_least;
    for (int h = 0; h < holes; ++h) at_least.push_back(PosLit(p * holes + h));
    solver.AddClause(at_least);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < holes + 1; ++p1) {
      for (int p2 = p1 + 1; p2 < holes + 1; ++p2) {
        solver.AddClause({NegLit(p1 * holes + h), NegLit(p2 * holes + h)});
      }
    }
  }
  EXPECT_EQ(solver.Solve(), SolveStatus::kUnknown);
  EXPECT_GT(solver.stats().work(), 0u);
}

TEST(MinOnesTest, PrefersAllFalseWhenPossible) {
  Cnf cnf;
  cnf.AddClause({NegLit(0), NegLit(1)});
  cnf.AddClause({NegLit(2)});
  MinOnesResult r = MinOnesSat(cnf);
  ASSERT_TRUE(r.satisfiable);
  EXPECT_TRUE(r.optimal);
  EXPECT_EQ(r.num_true, 0u);
}

TEST(MinOnesTest, ForcedUnitChain) {
  // v0; v0 -> v1; v1 -> v2  (all must be true).
  Cnf cnf;
  cnf.AddClause({PosLit(0)});
  cnf.AddClause({NegLit(0), PosLit(1)});
  cnf.AddClause({NegLit(1), PosLit(2)});
  MinOnesResult r = MinOnesSat(cnf);
  ASSERT_TRUE(r.satisfiable);
  EXPECT_EQ(r.num_true, 3u);
  EXPECT_TRUE(r.optimal);
}

TEST(MinOnesTest, ChoosesCheaperSide) {
  // (v0 ∨ v1) ∧ (v0 ∨ v2) ∧ (v0 ∨ v3): v0 alone beats {v1,v2,v3}.
  Cnf cnf;
  cnf.AddClause({PosLit(0), PosLit(1)});
  cnf.AddClause({PosLit(0), PosLit(2)});
  cnf.AddClause({PosLit(0), PosLit(3)});
  MinOnesResult r = MinOnesSat(cnf);
  ASSERT_TRUE(r.satisfiable);
  EXPECT_EQ(r.num_true, 1u);
  EXPECT_TRUE(r.model[0]);
}

TEST(MinOnesTest, UnsatReported) {
  Cnf cnf;
  cnf.AddClause({PosLit(0)});
  cnf.AddClause({NegLit(0)});
  MinOnesResult r = MinOnesSat(cnf);
  EXPECT_FALSE(r.satisfiable);
}

TEST(MinOnesTest, IndependentComponentsSolvedSeparately) {
  Cnf cnf;
  // Five disjoint triangles (x∨y)(y∨z)(x∨z): no unit, pure-negative or
  // dominance rule reduces one, so each stays a component of its own.
  // Optimum 2 per triangle.
  for (uint32_t i = 0; i < 15; i += 3) {
    cnf.AddClause({PosLit(i), PosLit(i + 1)});
    cnf.AddClause({PosLit(i + 1), PosLit(i + 2)});
    cnf.AddClause({PosLit(i), PosLit(i + 2)});
  }
  MinOnesResult r = MinOnesSat(cnf);
  ASSERT_TRUE(r.satisfiable);
  EXPECT_EQ(r.num_true, 10u);
  EXPECT_EQ(r.num_components, 5u);
  EXPECT_EQ(r.residual_vars, 15u);
  EXPECT_EQ(r.residual_clauses, 15u);
  EXPECT_EQ(r.fixed_by_dominance, 0u);
  EXPECT_TRUE(r.optimal);
}

TEST(MinOnesTest, DisjointPairsDecidedInPreprocessing) {
  // Five disjoint (a ∨ b): a and b dominate each other, so one is fixed
  // false and the other becomes a unit. Nothing is left to search.
  Cnf cnf;
  for (uint32_t i = 0; i < 10; i += 2) {
    cnf.AddClause({PosLit(i), PosLit(i + 1)});
  }
  MinOnesResult r = MinOnesSat(cnf);
  ASSERT_TRUE(r.satisfiable);
  EXPECT_EQ(r.num_true, 5u);
  EXPECT_EQ(r.num_components, 0u);
  EXPECT_EQ(r.fixed_by_dominance, 5u);
  EXPECT_EQ(r.solver.solve_calls, 0u);
  EXPECT_TRUE(r.optimal);
}

TEST(MinOnesTest, DominanceNeedsTheNegativeCondition) {
  // (v ∨ u) ∧ (¬u ∨ w), v numbered before u: occ+(v) ⊆ occ+(u), but u
  // has a negative occurrence v lacks, so u does not dominate v. The
  // optimum is {v}; fixing v false would force u and then w (2).
  Cnf cnf;
  cnf.AddClause({PosLit(0), PosLit(1)});
  cnf.AddClause({NegLit(1), PosLit(2)});
  MinOnesResult r = MinOnesSat(cnf);
  ASSERT_TRUE(r.satisfiable);
  EXPECT_TRUE(r.optimal);
  EXPECT_EQ(r.num_true, 1u);
  EXPECT_TRUE(r.model[0]);
}

TEST(MinOnesTest, EqualOccurrenceSetsEliminateOneOfEachPair) {
  // Per group: (a∨b∨x) (a∨b∨y) (x∨y). a and b have equal occurrence
  // sets; exactly one goes, and the rest is a triangle no rule reduces.
  Cnf cnf;
  constexpr uint32_t kGroups = 4;
  for (uint32_t g = 0; g < kGroups; ++g) {
    const uint32_t a = 4 * g, b = a + 1, x = a + 2, y = a + 3;
    cnf.AddClause({PosLit(a), PosLit(b), PosLit(x)});
    cnf.AddClause({PosLit(a), PosLit(b), PosLit(y)});
    cnf.AddClause({PosLit(x), PosLit(y)});
  }
  MinOnesResult r = MinOnesSat(cnf);
  ASSERT_TRUE(r.satisfiable);
  EXPECT_TRUE(r.optimal);
  EXPECT_EQ(r.num_true, 2 * kGroups);
  EXPECT_EQ(r.fixed_by_dominance, kGroups);
  EXPECT_EQ(r.residual_vars, 3 * kGroups);
  EXPECT_EQ(r.residual_clauses, 3 * kGroups);
  EXPECT_EQ(r.num_components, kGroups);
  for (uint32_t g = 0; g < kGroups; ++g) {
    EXPECT_FALSE(r.model[4 * g] && r.model[4 * g + 1]) << "group " << g;
  }
}

TEST(MinOnesTest, NestedJoinChainDecidedInPreprocessing) {
  // The clause shape of MAS program 15, ~Cite(c, d) :- Cite(c, d),
  // Publication(c), Writes(a, c), Author(a, o), Organization(o): one
  // all-positive clause per (cite, writer) pair. A Cite's clauses nest
  // in its Publication's, a Writes' in its Publication's and its
  // Author's, an Author's in its Organization's.
  Cnf cnf;
  uint32_t next = 0;
  const uint32_t org[2] = {next++, next++};
  const uint32_t author_org[4] = {0, 0, 1, 1};
  uint32_t author[4];
  for (uint32_t& a : author) a = next++;
  // pub -> writers, and pub -> number of its cites.
  const std::vector<std::vector<uint32_t>> writers = {
      {0}, {0, 1}, {2}, {2, 3}, {3}};
  const uint32_t cites[5] = {2, 1, 3, 1, 2};
  for (uint32_t p = 0; p < writers.size(); ++p) {
    const uint32_t pub = next++;
    std::vector<uint32_t> writes;
    for (size_t w = 0; w < writers[p].size(); ++w) writes.push_back(next++);
    for (uint32_t c = 0; c < cites[p]; ++c) {
      const uint32_t cite = next++;
      for (size_t w = 0; w < writers[p].size(); ++w) {
        const uint32_t a = writers[p][w];
        cnf.AddClause({PosLit(cite), PosLit(pub), PosLit(writes[w]),
                       PosLit(author[a]), PosLit(org[author_org[a]])});
      }
    }
  }
  MinOnesResult r = MinOnesSat(cnf);
  ASSERT_TRUE(r.satisfiable);
  EXPECT_TRUE(r.optimal);
  EXPECT_EQ(r.residual_vars, 0u);
  EXPECT_EQ(r.num_components, 0u);
  EXPECT_GT(r.fixed_by_dominance, 0u);
  EXPECT_EQ(r.solver.solve_calls, 0u);
  // Both organizations cover every clause between them.
  EXPECT_EQ(r.num_true, 2u);
  EXPECT_TRUE(cnf.IsSatisfiedBy(r.model));
}

TEST(MinOnesTest, StarCoreProvedBySplitting) {
  // The core dominance leaves on MAS program 8: a hub h in every clause,
  // (h ∨ w_i) (p_i ∨ ¬w_i ∨ h) (p_i ∨ w_i ∨ ¬h). No rule reduces it and
  // the disjoint bound is 1, but splitting on h gives 1 + k on the
  // h side and 2k on the other.
  constexpr uint32_t k = 12;
  Cnf cnf;
  const uint32_t h = 0;
  for (uint32_t i = 0; i < k; ++i) {
    const uint32_t w = 1 + 2 * i, p = 2 + 2 * i;
    cnf.AddClause({PosLit(h), PosLit(w)});
    cnf.AddClause({PosLit(p), NegLit(w), PosLit(h)});
    cnf.AddClause({PosLit(p), PosLit(w), NegLit(h)});
  }
  MinOnesResult r = MinOnesSat(cnf);
  ASSERT_TRUE(r.satisfiable);
  EXPECT_TRUE(r.optimal);
  EXPECT_EQ(r.num_true, 1 + k);
  EXPECT_EQ(r.num_components, 1u);
  EXPECT_EQ(r.solver.conflicts, 0u);
}

TEST(MinOnesTest, VertexCoverTriangle) {
  // Triangle graph: clauses (u ∨ v) per edge; min VC = 2.
  Cnf cnf;
  cnf.AddClause({PosLit(0), PosLit(1)});
  cnf.AddClause({PosLit(1), PosLit(2)});
  cnf.AddClause({PosLit(0), PosLit(2)});
  MinOnesResult r = MinOnesSat(cnf);
  EXPECT_EQ(r.num_true, 2u);
}

TEST(MinOnesTest, VertexCoverStar) {
  // Star K1,6: center covers all edges; min VC = 1.
  Cnf cnf;
  for (uint32_t leaf = 1; leaf <= 6; ++leaf) {
    cnf.AddClause({PosLit(0), PosLit(leaf)});
  }
  MinOnesResult r = MinOnesSat(cnf);
  EXPECT_EQ(r.num_true, 1u);
  EXPECT_TRUE(r.model[0]);
}

TEST(MinOnesTest, CompleteBipartiteCover) {
  // K3,5 with negated guard: (s_i ∨ c_j ∨ ¬n) plus unit (n) — the T5
  // pattern; optimum = 1 + min(3, 5).
  Cnf cnf;
  uint32_t n = 8;
  cnf.AddClause({PosLit(n)});
  for (uint32_t s = 0; s < 3; ++s) {
    for (uint32_t c = 3; c < 8; ++c) {
      cnf.AddClause({PosLit(s), PosLit(c), NegLit(n)});
    }
  }
  MinOnesResult r = MinOnesSat(cnf);
  EXPECT_EQ(r.num_true, 4u);
}

TEST(MinOnesTest, AnytimeBudgetStillSatisfies) {
  Rng rng(5);
  Cnf cnf;
  for (int c = 0; c < 60; ++c) {
    std::vector<Lit> lits;
    for (int l = 0; l < 3; ++l) {
      uint32_t v = static_cast<uint32_t>(rng.NextBounded(24));
      lits.push_back(rng.NextBool(0.7) ? PosLit(v) : NegLit(v));
    }
    cnf.AddClause(lits);
  }
  MinOnesOptions opts;
  opts.max_assignments = 50;  // starve the search
  MinOnesResult r = MinOnesSat(cnf, opts);
  if (r.satisfiable) {
    EXPECT_TRUE(cnf.IsSatisfiedBy(r.model));
  }
}

// Randomized cross-check against brute force: for small random CNFs the
// optimizer must return the exact minimum-ones count.
class MinOnesRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(MinOnesRandomTest, MatchesBruteForce) {
  const int seed = GetParam();
  Rng rng(static_cast<uint64_t>(seed));
  const uint32_t num_vars = 3 + static_cast<uint32_t>(rng.NextBounded(8));
  const int num_clauses = 2 + static_cast<int>(rng.NextBounded(12));
  Cnf cnf(num_vars);
  for (int c = 0; c < num_clauses; ++c) {
    std::vector<Lit> lits;
    int width = 1 + static_cast<int>(rng.NextBounded(3));
    for (int l = 0; l < width; ++l) {
      uint32_t v = static_cast<uint32_t>(rng.NextBounded(num_vars));
      lits.push_back(rng.NextBool(0.6) ? PosLit(v) : NegLit(v));
    }
    cnf.AddClause(lits);
  }

  // Brute force over all assignments.
  int best = -1;
  for (uint32_t mask = 0; mask < (1u << num_vars); ++mask) {
    std::vector<bool> model(num_vars);
    int ones = 0;
    for (uint32_t v = 0; v < num_vars; ++v) {
      model[v] = (mask >> v) & 1;
      ones += model[v] ? 1 : 0;
    }
    if (cnf.IsSatisfiedBy(model) && (best < 0 || ones < best)) best = ones;
  }

  MinOnesResult r = MinOnesSat(cnf);
  if (best < 0) {
    EXPECT_FALSE(r.satisfiable) << cnf.ToString();
  } else {
    ASSERT_TRUE(r.satisfiable) << cnf.ToString();
    EXPECT_TRUE(r.optimal);
    EXPECT_EQ(static_cast<int>(r.num_true), best) << cnf.ToString();
    EXPECT_TRUE(cnf.IsSatisfiedBy(r.model));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomCnfs, MinOnesRandomTest,
                         ::testing::Range(0, 60));

// Same cross-check for plain satisfiability.
class SatRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SatRandomTest, MatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 1000);
  const uint32_t num_vars = 2 + static_cast<uint32_t>(rng.NextBounded(9));
  const int num_clauses = 1 + static_cast<int>(rng.NextBounded(18));
  Cnf cnf(num_vars);
  for (int c = 0; c < num_clauses; ++c) {
    std::vector<Lit> lits;
    int width = 1 + static_cast<int>(rng.NextBounded(3));
    for (int l = 0; l < width; ++l) {
      uint32_t v = static_cast<uint32_t>(rng.NextBounded(num_vars));
      lits.push_back(rng.NextBool(0.5) ? PosLit(v) : NegLit(v));
    }
    cnf.AddClause(lits);
  }
  bool brute_sat = false;
  for (uint32_t mask = 0; mask < (1u << num_vars) && !brute_sat; ++mask) {
    std::vector<bool> model(num_vars);
    for (uint32_t v = 0; v < num_vars; ++v) model[v] = (mask >> v) & 1;
    brute_sat = cnf.IsSatisfiedBy(model);
  }
  SatResult r = SolveSat(cnf);
  EXPECT_EQ(r.satisfiable, brute_sat) << cnf.ToString();
  if (r.satisfiable) {
    EXPECT_TRUE(cnf.IsSatisfiedBy(r.model));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomCnfs, SatRandomTest, ::testing::Range(0, 40));

}  // namespace
}  // namespace deltarepair
