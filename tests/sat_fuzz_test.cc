// Randomized differential certification of the CDCL engine and the
// Min-Ones optimizer: ~1k seeded random CNFs are checked against
// brute-force enumeration — satisfiability, model validity, the exact
// Min-Ones optimum, and the proved-optimal flag — cycling through the
// ablation configurations (learning/restarts on and off, and every
// on/off mask of the four inprocessing passes). A second suite
// certifies incremental solving under assumptions against brute force
// with the assumptions added as unit clauses, on one long-lived solver
// per formula.
//
// A third suite fuzzes Min-Ones' preprocessing on join-shaped CNFs
// rich in dominated variables.
//
// DR_FUZZ_ITERS multiplies every instance count (the nightly CI job
// runs at 10x); unset or 1 is the tier-1 default.
#include <gtest/gtest.h>

#include <cstdlib>

#include "common/random.h"
#include "sat/min_ones.h"
#include "sat/solver.h"

namespace deltarepair {
namespace {

/// Scales a base iteration count by the DR_FUZZ_ITERS multiplier.
int ScaledIters(int base) {
  const char* env = std::getenv("DR_FUZZ_ITERS");
  if (env == nullptr || *env == '\0') return base;
  int mult = std::atoi(env);
  return mult > 1 ? base * mult : base;
}

struct BruteForce {
  bool satisfiable = false;
  int min_ones = -1;  // minimum true count over all models
};

BruteForce Enumerate(const Cnf& cnf) {
  BruteForce out;
  const uint32_t n = cnf.num_vars();
  std::vector<bool> model(n);
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    int ones = 0;
    for (uint32_t v = 0; v < n; ++v) {
      model[v] = (mask >> v) & 1;
      ones += model[v] ? 1 : 0;
    }
    if (!cnf.IsSatisfiedBy(model)) continue;
    out.satisfiable = true;
    if (out.min_ones < 0 || ones < out.min_ones) out.min_ones = ones;
  }
  return out;
}

Cnf RandomCnf(Rng* rng, uint32_t max_vars) {
  const uint32_t num_vars = 2 + static_cast<uint32_t>(rng->NextBounded(
                                    max_vars - 1));
  const int num_clauses = 1 + static_cast<int>(rng->NextBounded(28));
  Cnf cnf(num_vars);
  for (int c = 0; c < num_clauses; ++c) {
    std::vector<Lit> lits;
    int width = 1 + static_cast<int>(rng->NextBounded(3));
    for (int l = 0; l < width; ++l) {
      uint32_t v = static_cast<uint32_t>(rng->NextBounded(num_vars));
      lits.push_back(rng->NextBool(0.55) ? PosLit(v) : NegLit(v));
    }
    cnf.AddClause(lits);
  }
  return cnf;
}

/// Ablation configurations cycled across instances.
MinOnesOptions ConfigFor(int instance) {
  MinOnesOptions options;
  options.enable_learning = (instance % 4) < 2;
  options.enable_restarts = (instance % 2) == 0;
  options.decompose_components = (instance % 8) < 6;
  return options;
}

TEST(SatFuzzTest, CdclAndMinOnesMatchBruteForceOn1kInstances) {
  const int kInstances = ScaledIters(1000);
  int sat_count = 0;
  for (int i = 0; i < kInstances; ++i) {
    Rng rng(0x5eed0000 + static_cast<uint64_t>(i));
    Cnf cnf = RandomCnf(&rng, 10);
    BruteForce expected = Enumerate(cnf);
    SCOPED_TRACE(testing::Message() << "instance " << i << "\n"
                                    << cnf.ToString());

    // Plain satisfiability through the one-shot wrapper.
    SatResult sat = SolveSat(cnf);
    ASSERT_EQ(sat.satisfiable, expected.satisfiable);
    if (sat.satisfiable) {
      ASSERT_TRUE(cnf.IsSatisfiedBy(sat.model));
      ++sat_count;
    }

    // Satisfiability through a configured engine (ablation knobs).
    SolverOptions solver_options;
    solver_options.learning = (i % 4) < 2;
    solver_options.restarts = (i % 2) == 0;
    CdclSolver solver(solver_options);
    solver.AddCnf(cnf);
    ASSERT_EQ(solver.Solve() == SolveStatus::kSat, expected.satisfiable);

    // Min-Ones optimum.
    MinOnesResult min_ones = MinOnesSat(cnf, ConfigFor(i));
    ASSERT_EQ(min_ones.satisfiable, expected.satisfiable);
    if (expected.satisfiable) {
      ASSERT_TRUE(min_ones.optimal);
      ASSERT_EQ(static_cast<int>(min_ones.num_true), expected.min_ones);
      ASSERT_TRUE(cnf.IsSatisfiedBy(min_ones.model));
    }
  }
  // The generator must exercise both outcomes, not degenerate cases.
  EXPECT_GT(sat_count, kInstances / 4);
  EXPECT_LT(sat_count, kInstances - kInstances / 20);
}

TEST(SatFuzzTest, IncrementalAssumptionsMatchBruteForce) {
  const int kFormulas = ScaledIters(150);
  constexpr int kQueriesPerFormula = 8;
  for (int i = 0; i < kFormulas; ++i) {
    Rng rng(0xa55e5 + static_cast<uint64_t>(i));
    Cnf cnf = RandomCnf(&rng, 9);
    CdclSolver solver;  // one solver serves every query on this formula
    solver.AddCnf(cnf);
    uint64_t conflicts_before = 0;
    for (int q = 0; q < kQueriesPerFormula; ++q) {
      std::vector<Lit> assumptions;
      int num_assumptions = static_cast<int>(rng.NextBounded(4));
      for (int a = 0; a < num_assumptions; ++a) {
        uint32_t v =
            static_cast<uint32_t>(rng.NextBounded(cnf.num_vars()));
        assumptions.push_back(rng.NextBool(0.5) ? PosLit(v) : NegLit(v));
      }
      Cnf augmented = cnf;
      for (Lit a : assumptions) augmented.AddClause({a});
      BruteForce expected = Enumerate(augmented);
      SCOPED_TRACE(testing::Message()
                   << "formula " << i << " query " << q << "\n"
                   << augmented.ToString());
      SolveStatus status = solver.Solve(assumptions);
      ASSERT_NE(status, SolveStatus::kUnknown);
      ASSERT_EQ(status == SolveStatus::kSat, expected.satisfiable);
      if (status == SolveStatus::kSat) {
        ASSERT_TRUE(cnf.IsSatisfiedBy(solver.model()));
        for (Lit a : assumptions) {
          ASSERT_EQ(solver.model()[LitVar(a)], LitSign(a));
        }
      }
      // Work counters are cumulative: learned clauses persist across
      // queries instead of being rediscovered.
      ASSERT_GE(solver.stats().conflicts, conflicts_before);
      conflicts_before = solver.stats().conflicts;
    }
    ASSERT_EQ(solver.stats().solve_calls,
              static_cast<uint64_t>(kQueriesPerFormula));
  }
}

TEST(SatFuzzTest, IncrementalClauseAdditionMatchesFromScratch) {
  // Interleave AddClause with Solve on one solver; a fresh solver over
  // the accumulated clauses must agree at every step.
  const int kFormulas = ScaledIters(100);
  for (int i = 0; i < kFormulas; ++i) {
    Rng rng(0xc1a05e + static_cast<uint64_t>(i));
    const uint32_t num_vars = 3 + static_cast<uint32_t>(rng.NextBounded(7));
    Cnf accumulated(num_vars);
    CdclSolver incremental;
    incremental.EnsureVars(num_vars);
    bool unsat_seen = false;
    for (int step = 0; step < 12; ++step) {
      std::vector<Lit> lits;
      int width = 1 + static_cast<int>(rng.NextBounded(3));
      for (int l = 0; l < width; ++l) {
        uint32_t v = static_cast<uint32_t>(rng.NextBounded(num_vars));
        lits.push_back(rng.NextBool(0.5) ? PosLit(v) : NegLit(v));
      }
      accumulated.AddClause(lits);
      incremental.AddClause(lits);
      BruteForce expected = Enumerate(accumulated);
      SCOPED_TRACE(testing::Message() << "formula " << i << " step " << step
                                      << "\n" << accumulated.ToString());
      ASSERT_EQ(incremental.Solve() == SolveStatus::kSat,
                expected.satisfiable);
      unsat_seen |= !expected.satisfiable;
      if (!expected.satisfiable) break;  // solver is finished, next formula
    }
    (void)unsat_seen;
  }
}

TEST(SatFuzzTest, BlockingDescentModeMatchesBruteForce) {
  // Forcing max_totalizer_area = 0 routes every component through the
  // blocking-clause descent used for components too large to count —
  // its optimality claims must still be exact.
  const int kInstances = ScaledIters(400);
  for (int i = 0; i < kInstances; ++i) {
    Rng rng(0xb10c + static_cast<uint64_t>(i));
    Cnf cnf = RandomCnf(&rng, 9);
    BruteForce expected = Enumerate(cnf);
    MinOnesOptions options = ConfigFor(i);
    options.max_totalizer_area = 0;
    MinOnesResult r = MinOnesSat(cnf, options);
    SCOPED_TRACE(testing::Message() << "instance " << i << "\n"
                                    << cnf.ToString());
    ASSERT_EQ(r.satisfiable, expected.satisfiable);
    if (!expected.satisfiable) continue;
    ASSERT_TRUE(cnf.IsSatisfiedBy(r.model));
    ASSERT_GE(static_cast<int>(r.num_true), expected.min_ones);
    if (r.optimal) {
      ASSERT_EQ(static_cast<int>(r.num_true), expected.min_ones);
    }
  }
}

TEST(SatFuzzTest, MinOnesAnytimeContractUnderTinyBudget) {
  // With a starved work budget the result must still be a model (or a
  // correct unsat claim); optimality may be forfeited but never lied
  // about.
  const int kInstances = ScaledIters(200);
  for (int i = 0; i < kInstances; ++i) {
    Rng rng(0xb4d9e7 + static_cast<uint64_t>(i));
    Cnf cnf = RandomCnf(&rng, 10);
    BruteForce expected = Enumerate(cnf);
    MinOnesOptions options = ConfigFor(i);
    options.max_assignments = 1 + (static_cast<uint64_t>(i) % 40);
    MinOnesResult r = MinOnesSat(cnf, options);
    SCOPED_TRACE(testing::Message() << "instance " << i << "\n"
                                    << cnf.ToString());
    if (r.satisfiable) {
      ASSERT_TRUE(cnf.IsSatisfiedBy(r.model));
      if (r.optimal) {
        ASSERT_EQ(static_cast<int>(r.num_true), expected.min_ones);
      }
    } else {
      ASSERT_FALSE(expected.satisfiable);
    }
  }
}

/// Inprocessing ablation: instance index -> one of the 16 on/off masks
/// of the four passes, with thresholds forced so the pipeline runs on
/// every Solve-sized formula instead of waiting for real workloads.
SolverOptions InprocessConfigFor(int instance) {
  SolverOptions options;
  options.inprocessing = true;
  options.inprocess.scc = (instance & 1) != 0;
  options.inprocess.subsume = (instance & 2) != 0;
  options.inprocess.eliminate = (instance & 4) != 0;
  options.inprocess.vivify = (instance & 8) != 0;
  options.inprocess.min_clauses = 1;
  options.inprocess.min_new_clauses = 1;
  options.inprocess.min_new_conflicts = 1;
  return options;
}

TEST(SatFuzzTest, InprocessingAblationMatchesBruteForce) {
  // Every pass mask must preserve the verdict, and the reconstructed
  // model must satisfy the ORIGINAL formula — eliminated and
  // substituted variables included.
  const int kInstances = ScaledIters(600);
  for (int i = 0; i < kInstances; ++i) {
    Rng rng(0x1a9b0c + static_cast<uint64_t>(i));
    Cnf cnf = RandomCnf(&rng, 10);
    BruteForce expected = Enumerate(cnf);
    SCOPED_TRACE(testing::Message() << "instance " << i << " mask "
                                    << (i % 16) << "\n" << cnf.ToString());
    CdclSolver solver(InprocessConfigFor(i % 16));
    solver.AddCnf(cnf);
    SolveStatus status = solver.Solve();
    ASSERT_EQ(status == SolveStatus::kSat, expected.satisfiable);
    if (status == SolveStatus::kSat) {
      ASSERT_TRUE(cnf.IsSatisfiedBy(solver.model()));
    }
  }
}

TEST(SatFuzzTest, InprocessingIncrementalAssumptionsMatchBruteForce) {
  // Long-lived solver with explicit inprocessing runs between queries;
  // all problem variables frozen so any of them may be assumed later.
  const int kFormulas = ScaledIters(120);
  constexpr int kQueriesPerFormula = 6;
  for (int i = 0; i < kFormulas; ++i) {
    Rng rng(0x1f20ce + static_cast<uint64_t>(i));
    Cnf cnf = RandomCnf(&rng, 9);
    CdclSolver solver(InprocessConfigFor(i % 16));
    solver.AddCnf(cnf);
    solver.FreezeRange(0, cnf.num_vars());
    for (int q = 0; q < kQueriesPerFormula; ++q) {
      if (q == 2 && solver.ok()) {
        bool still_ok = solver.Inprocess();
        ASSERT_EQ(still_ok, solver.ok());
      }
      std::vector<Lit> assumptions;
      int num_assumptions = static_cast<int>(rng.NextBounded(4));
      for (int a = 0; a < num_assumptions; ++a) {
        uint32_t v =
            static_cast<uint32_t>(rng.NextBounded(cnf.num_vars()));
        assumptions.push_back(rng.NextBool(0.5) ? PosLit(v) : NegLit(v));
      }
      Cnf augmented = cnf;
      for (Lit a : assumptions) augmented.AddClause({a});
      BruteForce expected = Enumerate(augmented);
      SCOPED_TRACE(testing::Message()
                   << "formula " << i << " query " << q << "\n"
                   << augmented.ToString());
      SolveStatus status = solver.Solve(assumptions);
      ASSERT_NE(status, SolveStatus::kUnknown);
      ASSERT_EQ(status == SolveStatus::kSat, expected.satisfiable);
      if (status == SolveStatus::kSat) {
        ASSERT_TRUE(cnf.IsSatisfiedBy(solver.model()));
        for (Lit a : assumptions) {
          ASSERT_EQ(solver.model()[LitVar(a)], LitSign(a));
        }
      }
    }
  }
}

/// Join-shaped CNFs like the deletion encodings, rich in dominated
/// variables: variables form a forest (each may hang under an earlier
/// one, like Cite under Publication or Author under Organization), and
/// each clause joins one or two root paths, so a variable's clauses nest
/// inside its ancestors'. Every literal flips negative with probability
/// 0.15, which exercises the occ- half of the dominance test.
Cnf NestedJoinCnf(Rng* rng) {
  const uint32_t num_vars = 4 + static_cast<uint32_t>(rng->NextBounded(11));
  std::vector<int> parent(num_vars, -1);
  for (uint32_t v = 1; v < num_vars; ++v) {
    if (rng->NextBool(0.75)) {
      parent[v] = static_cast<int>(rng->NextBounded(v));
    }
  }
  const int num_clauses = 2 + static_cast<int>(rng->NextBounded(20));
  Cnf cnf(num_vars);
  for (int c = 0; c < num_clauses; ++c) {
    std::vector<Lit> lits;
    const int paths = rng->NextBool(0.5) ? 2 : 1;
    for (int p = 0; p < paths; ++p) {
      for (int v = static_cast<int>(rng->NextBounded(num_vars)); v >= 0;
           v = parent[v]) {
        const uint32_t var = static_cast<uint32_t>(v);
        lits.push_back(rng->NextBool(0.85) ? PosLit(var) : NegLit(var));
      }
    }
    cnf.AddClause(lits);
  }
  return cnf;
}

TEST(SatFuzzTest, DominanceRichJoinsMatchBruteForce) {
  // Preprocessing keeps the optimum but may pick a different minimum
  // model: every result must be a model, never below the brute-force
  // minimum, and equal to it whenever optimality is claimed.
  const int kInstances = ScaledIters(600);
  int with_dominance = 0;
  for (int i = 0; i < kInstances; ++i) {
    Rng rng(0xd0a1 + static_cast<uint64_t>(i));
    Cnf cnf = NestedJoinCnf(&rng);
    BruteForce expected = Enumerate(cnf);
    MinOnesOptions options = ConfigFor(i);
    if (i % 5 == 4) options.max_totalizer_area = 0;  // blocking descent
    MinOnesResult r = MinOnesSat(cnf, options);
    SCOPED_TRACE(testing::Message() << "instance " << i << "\n"
                                    << cnf.ToString());
    ASSERT_EQ(r.satisfiable, expected.satisfiable);
    if (!expected.satisfiable) continue;
    ASSERT_TRUE(cnf.IsSatisfiedBy(r.model));
    ASSERT_GE(static_cast<int>(r.num_true), expected.min_ones);
    if (r.optimal) {
      ASSERT_EQ(static_cast<int>(r.num_true), expected.min_ones);
    }
    if (r.fixed_by_dominance > 0) ++with_dominance;
  }
  // The generator must actually exercise the rule.
  EXPECT_GT(with_dominance, kInstances / 3);
}

TEST(SatFuzzTest, MinOnesInprocessingAblationMatchesBruteForce) {
  // The optimizer drives the solver through bounds, blocking clauses,
  // and totalizer outputs; simplification under the freezing contract
  // must never change the optimum.
  const int kInstances = ScaledIters(300);
  for (int i = 0; i < kInstances; ++i) {
    Rng rng(0x310a8 + static_cast<uint64_t>(i));
    Cnf cnf = RandomCnf(&rng, 10);
    BruteForce expected = Enumerate(cnf);
    MinOnesOptions options = ConfigFor(i);
    options.enable_inprocessing = true;
    options.inprocess = InprocessConfigFor(i % 16).inprocess;
    MinOnesResult r = MinOnesSat(cnf, options);
    SCOPED_TRACE(testing::Message() << "instance " << i << " mask "
                                    << (i % 16) << "\n" << cnf.ToString());
    ASSERT_EQ(r.satisfiable, expected.satisfiable);
    if (!expected.satisfiable) continue;
    ASSERT_TRUE(r.optimal);
    ASSERT_EQ(static_cast<int>(r.num_true), expected.min_ones);
    ASSERT_TRUE(cnf.IsSatisfiedBy(r.model));
  }
}

}  // namespace
}  // namespace deltarepair
