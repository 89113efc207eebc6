// Microbench of the CDCL core itself (no repair layers): random 3-SAT
// near the phase transition (sat-heavy and unsat-heavy ratios),
// pigeonhole UNSAT proofs, and the incremental Min-Ones bounded search
// on vertex-cover-shaped formulas. Rows report wall time and the solver
// counters (conflicts, learned clauses, restarts, propagations), and are
// written as JSON when DR_BENCH_JSON=path is set.
#include <cinttypes>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "sat/min_ones.h"
#include "sat/solver.h"

namespace deltarepair {
namespace {

Cnf Random3Sat(uint64_t seed, uint32_t num_vars, double clause_ratio) {
  Rng rng(seed);
  Cnf cnf(num_vars);
  int num_clauses = static_cast<int>(num_vars * clause_ratio);
  for (int c = 0; c < num_clauses; ++c) {
    std::vector<Lit> lits;
    while (lits.size() < 3) {
      uint32_t v = static_cast<uint32_t>(rng.NextBounded(num_vars));
      bool dup = false;
      for (Lit l : lits) dup |= LitVar(l) == v;
      if (dup) continue;
      lits.push_back(rng.NextBool(0.5) ? PosLit(v) : NegLit(v));
    }
    cnf.AddClause(std::move(lits));
  }
  return cnf;
}

Cnf Pigeonhole(int holes) {
  Cnf cnf;
  for (int p = 0; p < holes + 1; ++p) {
    std::vector<Lit> at_least;
    for (int h = 0; h < holes; ++h) {
      at_least.push_back(PosLit(static_cast<uint32_t>(p * holes + h)));
    }
    cnf.AddClause(std::move(at_least));
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < holes + 1; ++p1) {
      for (int p2 = p1 + 1; p2 < holes + 1; ++p2) {
        cnf.AddClause({NegLit(static_cast<uint32_t>(p1 * holes + h)),
                       NegLit(static_cast<uint32_t>(p2 * holes + h))});
      }
    }
  }
  return cnf;
}

/// Star-of-cliques vertex cover: `hubs` stars of 8 leaves (optimum =
/// hubs) — the Min-Ones shape of denial-constraint instances.
Cnf VertexCoverStars(uint32_t hubs) {
  Cnf cnf;
  uint32_t var = 0;
  for (uint32_t h = 0; h < hubs; ++h) {
    uint32_t center = var++;
    for (int leaf = 0; leaf < 8; ++leaf) {
      uint32_t l = var++;
      cnf.AddClause({PosLit(center), PosLit(l)});
    }
  }
  return cnf;
}

int Main() {
  BenchReporter reporter("bench_sat_core");
  TablePrinter table({"Instance", "result", "time", "conflicts", "learned",
                      "restarts", "props"});
  auto report = [&](const std::string& name, const Cnf& cnf,
                    int repeats) {
    SolveStatus status = SolveStatus::kUnknown;
    SolverStats total;
    WallTimer timer;
    for (int r = 0; r < repeats; ++r) {
      CdclSolver solver;
      solver.AddCnf(cnf);
      status = solver.Solve();
      total.Add(solver.stats());
    }
    double seconds = timer.ElapsedSeconds() / repeats;
    table.AddRow({name, SolveStatusName(status), Ms(seconds),
                  WithThousands(static_cast<int64_t>(
                      total.conflicts / static_cast<uint64_t>(repeats))),
                  WithThousands(static_cast<int64_t>(
                      total.learned_clauses /
                      static_cast<uint64_t>(repeats))),
                  std::to_string(total.restarts /
                                 static_cast<uint64_t>(repeats)),
                  WithThousands(static_cast<int64_t>(
                      total.propagations /
                      static_cast<uint64_t>(repeats)))});
    reporter.AddRow(name)
        .Metric("seconds", seconds)
        .Metric("conflicts", static_cast<int64_t>(
                                 total.conflicts /
                                 static_cast<uint64_t>(repeats)))
        .Metric("propagations", static_cast<int64_t>(
                                    total.propagations /
                                    static_cast<uint64_t>(repeats)))
        .Metric("result", std::string(SolveStatusName(status)));
  };

  double scale = BenchScale();
  uint32_t n3 = static_cast<uint32_t>(150 * scale);
  if (n3 < 40) n3 = 40;
  for (int s = 0; s < 3; ++s) {
    report(StrFormat("3sat_sat_n%u_r4.0/%d", n3, s),
           Random3Sat(1000 + static_cast<uint64_t>(s), n3, 4.0), 3);
  }
  for (int s = 0; s < 3; ++s) {
    report(StrFormat("3sat_unsat_n%u_r4.6/%d", n3, s),
           Random3Sat(2000 + static_cast<uint64_t>(s), n3, 4.6), 3);
  }
  int php = scale >= 1.0 ? 7 : 6;
  report(StrFormat("pigeonhole_%d", php), Pigeonhole(php), 1);

  // Min-Ones bounded search (solver + totalizer + bisection end-to-end).
  TablePrinter mo_table({"Instance", "optimum", "time", "work",
                         "solve calls", "optimal"});
  for (uint32_t hubs : {32u, 128u, 512u}) {
    Cnf cnf = VertexCoverStars(hubs);
    WallTimer timer;
    MinOnesResult r = MinOnesSat(cnf);
    double seconds = timer.ElapsedSeconds();
    std::string name = StrFormat("min_ones_vc_stars_%u", hubs);
    mo_table.AddRow({name, std::to_string(r.num_true), Ms(seconds),
                     WithThousands(static_cast<int64_t>(
                         r.engine_assignments)),
                     std::to_string(r.solver.solve_calls),
                     Tick(r.optimal)});
    reporter.AddRow(name)
        .Metric("seconds", seconds)
        .Metric("optimum", static_cast<int64_t>(r.num_true))
        .Metric("work", static_cast<int64_t>(r.engine_assignments))
        .Metric("optimal", std::string(r.optimal ? "yes" : "no"));
  }

  PrintHeader("SAT core: CDCL on random 3-SAT and pigeonhole");
  table.Print();
  PrintHeader("SAT core: incremental Min-Ones bounded search");
  mo_table.Print();
  return 0;
}

}  // namespace
}  // namespace deltarepair

int main() { return deltarepair::Main(); }
