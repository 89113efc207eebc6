#include "sat/min_ones.h"

#include <algorithm>
#include <numeric>

#include "common/status.h"
#include "common/timer.h"
#include "obs/trace.h"
#include "sat/totalizer.h"

namespace deltarepair {

namespace {

/// Union-find over variables for component decomposition.
class UnionFind {
 public:
  explicit UnionFind(uint32_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }
  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(uint32_t a, uint32_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<uint32_t> parent_;
};

/// Min-Ones' working copy of a CNF: its pool and clause starts copied
/// whole, plus a live length per clause. Preprocessing reduces it in
/// place: stripping a literal swaps it with the clause's last live literal
/// and shortens the clause, and killing a clause sets its length to 0. A
/// live clause is never empty (emptying one is a refutation).
struct WorkingCnf {
  explicit WorkingCnf(const Cnf& cnf)
      : lits(cnf.literals()), starts(cnf.starts()), len(cnf.num_clauses()) {
    for (size_t c = 0; c < len.size(); ++c) len[c] = starts[c + 1] - starts[c];
  }

  size_t num_clauses() const { return len.size(); }
  /// The live literals of clause `c`.
  Cnf::Clause clause(size_t c) const {
    const Lit* begin = lits.data() + starts[c];
    return Cnf::Clause(begin, begin + len[c]);
  }
  void AddUnit(Lit l) {
    if (starts.empty()) starts.push_back(0);
    lits.push_back(l);
    starts.push_back(static_cast<uint32_t>(lits.size()));
    len.push_back(1);
  }

  std::vector<Lit> lits;
  std::vector<uint32_t> starts;
  std::vector<uint32_t> len;
};

Cnf NormalizedCopy(const Cnf& cnf) {
  Cnf copy = cnf;
  copy.Normalize();
  return copy;
}

/// Min-Ones-specific preprocessing, run globally before decomposition.
/// Three rules share one set of CSR occurrence lists and cascade to a
/// fixpoint:
///  - unit propagation;
///  - pure-negative elimination: a variable with no positive occurrence
///    can be false in some minimum model (making it true only costs);
///  - dominated-variable elimination: a free v is fixed false when some
///    other free u has occ+(v) ⊆ occ+(u) and occ-(u) ⊆ occ-(v) over the
///    live clauses. Moving v's truth to u (v := 0, u := 1) satisfies
///    every clause (+v's clauses hold +u, ¬u's clauses hold ¬v) and
///    never adds a true variable, so some minimum model has v false.
///    Candidates u are found by counting co-occurrences across v's live
///    positive clauses; fixing v strips +v (each such clause keeps +u)
///    and kills the clauses holding ¬v. Round r re-examines, once each,
///    only the variables whose clauses died or shrank in round r-1.
/// Reduces `work` in place (dead clauses at length 0, falsified literals
/// stripped), records decided variables in `fixed` (-1 free, 0 false,
/// 1 true) and the rule counters in `counts`. Returns false on
/// refutation.
bool PreprocessMinOnes(WorkingCnf* work, std::vector<int8_t>* fixed,
                       MinOnesResult* counts) {
  const uint32_t n = static_cast<uint32_t>(fixed->size());
  const size_t m = work->num_clauses();
  std::vector<uint32_t>& len = work->len;
  // Occurrence lists by literal (2v = positive, 2v+1 = negative) in one
  // flat CSR block, and live occurrence counts per polarity.
  std::vector<uint32_t> occ_start(static_cast<size_t>(n) * 2 + 1, 0);
  std::vector<uint32_t> pos_count(n, 0);
  std::vector<uint32_t> neg_count(n, 0);
  size_t total_lits = 0;
  for (size_t c = 0; c < m; ++c) {
    total_lits += len[c];
    for (Lit l : work->clause(c)) {
      ++occ_start[LitVar(l) * 2 + (LitSign(l) ? 0 : 1) + 1];
      ++(LitSign(l) ? pos_count : neg_count)[LitVar(l)];
    }
  }
  for (size_t i = 1; i < occ_start.size(); ++i) occ_start[i] += occ_start[i - 1];
  std::vector<uint32_t> occ_flat(total_lits);
  {
    std::vector<uint32_t> cursor(occ_start.begin(), occ_start.end() - 1);
    for (size_t c = 0; c < m; ++c) {
      for (Lit l : work->clause(c)) {
        occ_flat[cursor[LitVar(l) * 2 + (LitSign(l) ? 0 : 1)]++] =
            static_cast<uint32_t>(c);
      }
    }
  }
  auto occ = [&](size_t lit_index) {
    return std::pair<const uint32_t*, const uint32_t*>(
        occ_flat.data() + occ_start[lit_index],
        occ_flat.data() + occ_start[lit_index + 1]);
  };
  std::vector<Lit> units;
  std::vector<uint32_t> pure_candidates;
  for (size_t c = 0; c < m; ++c) {
    if (len[c] == 1) units.push_back(work->clause(c)[0]);
    if (len[c] == 0) return false;
  }
  for (uint32_t v = 0; v < n; ++v) {
    if (pos_count[v] == 0) pure_candidates.push_back(v);
  }
  // Variables queued for the next dominance round: those whose clause
  // set changed since their last examination.
  std::vector<uint32_t> next_round;
  std::vector<char> queued(n, 0);
  auto requeue = [&](uint32_t v) {
    if ((*fixed)[v] == -1 && !queued[v]) {
      queued[v] = 1;
      next_round.push_back(v);
    }
  };

  // Kills clause `c` (it is satisfied): every other literal loses an
  // occurrence, possibly creating new pure-negative variables.
  auto kill_clause = [&](uint32_t c) {
    if (len[c] == 0) return;
    for (Lit l : work->clause(c)) {
      const uint32_t v = LitVar(l);
      if (!LitSign(l)) {
        --neg_count[v];
      } else if (--pos_count[v] == 0) {
        pure_candidates.push_back(v);
      }
      requeue(v);
    }
    len[c] = 0;
  };
  // Strips a falsified literal from clause `c`.
  auto strip_literal = [&](uint32_t c, Lit l) -> bool {
    if (len[c] == 0) return true;
    Lit* lits = work->lits.data() + work->starts[c];
    for (uint32_t i = 0; i < len[c]; ++i) {
      if (lits[i] == l) {
        lits[i] = lits[--len[c]];
        break;
      }
    }
    if (!LitSign(l)) {
      --neg_count[LitVar(l)];
    } else if (--pos_count[LitVar(l)] == 0) {
      pure_candidates.push_back(LitVar(l));
    }
    for (Lit other : work->clause(c)) requeue(LitVar(other));
    if (len[c] == 0) return false;  // refuted
    if (len[c] == 1) units.push_back(lits[0]);
    return true;
  };
  // Unit propagation and pure-negative elimination to fixpoint.
  auto propagate = [&]() -> bool {
    while (!units.empty() || !pure_candidates.empty()) {
      if (!units.empty()) {
        Lit l = units.back();
        units.pop_back();
        uint32_t v = LitVar(l);
        int8_t want = LitSign(l) ? 1 : 0;
        if ((*fixed)[v] == want) continue;
        if ((*fixed)[v] != -1) return false;  // contradicting units
        (*fixed)[v] = want;
        ++counts->fixed_by_propagation;
        auto [sat_begin, sat_end] = occ(v * 2 + (LitSign(l) ? 0 : 1));
        for (const uint32_t* c = sat_begin; c != sat_end; ++c) {
          kill_clause(*c);
        }
        auto [unsat_begin, unsat_end] = occ(v * 2 + (LitSign(l) ? 1 : 0));
        for (const uint32_t* c = unsat_begin; c != unsat_end; ++c) {
          if (!strip_literal(*c, -l)) return false;
        }
        continue;
      }
      uint32_t v = pure_candidates.back();
      pure_candidates.pop_back();
      if ((*fixed)[v] != -1 || pos_count[v] != 0) continue;
      (*fixed)[v] = 0;  // no positive occurrence left: false costs nothing
      ++counts->fixed_by_propagation;
      auto [neg_begin, neg_end] = occ(v * 2 + 1);
      for (const uint32_t* c = neg_begin; c != neg_end; ++c) kill_clause(*c);
    }
    return true;
  };

  // Dominance scratch: co-occurrence counts valid while seen[u] == stamp,
  // and v's live negative clauses marked with the same stamp.
  std::vector<uint32_t> co_count(n, 0);
  std::vector<uint32_t> seen(n, 0);
  std::vector<uint32_t> neg_mark(m, 0);
  std::vector<uint32_t> candidates;
  uint32_t stamp = 0;
  // True when some other free variable dominates free `v`. The first
  // live positive clause of v proposes candidates; every later one keeps
  // only those it also holds, so a clause of v without a candidate ends
  // the search.
  auto dominated = [&](uint32_t v) -> bool {
    ++stamp;
    candidates.clear();
    uint32_t covered = 0;  // live positive clauses of v scanned so far
    auto [pos_begin, pos_end] = occ(v * 2);
    for (const uint32_t* c = pos_begin; c != pos_end; ++c) {
      if (len[*c] == 0) continue;
      for (Lit l : work->clause(*c)) {
        const uint32_t u = LitVar(l);
        if (!LitSign(l) || u == v) continue;
        if (covered == 0) {
          if (neg_count[u] > neg_count[v]) continue;  // occ-(u) too big
          seen[u] = stamp;
          co_count[u] = 1;
          candidates.push_back(u);
        } else if (seen[u] == stamp && co_count[u] == covered) {
          ++co_count[u];
        }
      }
      ++covered;
      size_t keep = 0;
      for (uint32_t u : candidates) {
        if (co_count[u] == covered) candidates[keep++] = u;
      }
      candidates.resize(keep);
      if (candidates.empty()) return false;
    }
    // Every candidate now holds occ+(v); test occ-(u) ⊆ occ-(v).
    bool marked = false;
    for (uint32_t u : candidates) {
      if (neg_count[u] == 0) return true;
      if (!marked) {
        auto [neg_begin, neg_end] = occ(v * 2 + 1);
        for (const uint32_t* c = neg_begin; c != neg_end; ++c) {
          neg_mark[*c] = stamp;
        }
        marked = true;
      }
      bool subset = true;
      auto [u_begin, u_end] = occ(u * 2 + 1);
      for (const uint32_t* c = u_begin; c != u_end && subset; ++c) {
        subset = len[*c] == 0 || neg_mark[*c] == stamp;
      }
      if (subset) return true;
    }
    return false;
  };

  // Round 1 examines every variable that propagation leaves free.
  for (uint32_t v = 0; v < n; ++v) requeue(v);
  if (!propagate()) return false;
  std::vector<uint32_t> round;
  while (!next_round.empty()) {
    ++counts->preprocess_rounds;
    round.swap(next_round);
    next_round.clear();
    for (uint32_t v : round) queued[v] = 0;
    for (uint32_t v : round) {
      if ((*fixed)[v] != -1 || !dominated(v)) continue;
      (*fixed)[v] = 0;
      ++counts->fixed_by_dominance;
      auto [neg_begin, neg_end] = occ(v * 2 + 1);
      for (const uint32_t* c = neg_begin; c != neg_end; ++c) kill_clause(*c);
      auto [pos_begin, pos_end] = occ(v * 2);
      for (const uint32_t* c = pos_begin; c != pos_end; ++c) {
        if (!strip_literal(*c, PosLit(v))) return false;
      }
      if (!propagate()) return false;
    }
  }
  return true;
}

/// Seeds the solver with a greedy set cover of the all-positive clauses:
/// those are the clauses an all-false assignment leaves unsatisfied, so
/// phase-hinting a cheap cover to true steers the first model close to
/// the optimum (the old branch-and-bound's set-cover branching, recast
/// as polarity/priority hints). Clauses with a negative literal are
/// satisfied by the all-false default and need no hint. `clause_at(i)`
/// returns the i-th of `num_clauses` clause views; empty ones are skipped.
template <typename ClauseAt>
void SeedGreedyCover(CdclSolver* solver, size_t num_clauses,
                     const ClauseAt& clause_at, uint32_t num_vars) {
  std::vector<uint32_t> pos_occ(num_vars, 0);
  std::vector<Cnf::Clause> positive_clauses;
  for (size_t i = 0; i < num_clauses; ++i) {
    const Cnf::Clause clause = clause_at(i);
    if (clause.empty()) continue;
    bool all_positive = true;
    for (Lit l : clause) {
      if (!LitSign(l)) {
        all_positive = false;
        break;
      }
    }
    if (!all_positive) continue;
    positive_clauses.push_back(clause);
    for (Lit l : clause) ++pos_occ[LitVar(l)];
  }
  for (uint32_t v = 0; v < num_vars; ++v) {
    if (pos_occ[v] > 0) solver->SeedActivity(v, pos_occ[v]);
  }
  // Greedy pass: cover each still-open clause with its busiest variable.
  std::vector<int8_t> in_cover(num_vars, 0);
  for (const Cnf::Clause& clause : positive_clauses) {
    uint32_t best_var = UINT32_MAX;
    bool covered = false;
    for (Lit l : clause) {
      uint32_t v = LitVar(l);
      if (in_cover[v]) {
        covered = true;
        break;
      }
      if (best_var == UINT32_MAX || pos_occ[v] > pos_occ[best_var]) {
        best_var = v;
      }
    }
    if (covered || best_var == UINT32_MAX) continue;
    in_cover[best_var] = 1;
    solver->SetPhase(best_var, true);
  }
}

/// Lower bound from variable-disjoint all-positive clauses: each needs
/// its own true variable (negative literals elsewhere cannot pay for
/// them). Greedy single pass over the `num_clauses` views `clause_at(i)`,
/// skipping empty (dead) ones; `used` is caller-provided scratch (entries
/// touched are recorded in `touched` for cheap reset).
template <typename ClauseAt>
uint32_t DisjointPositiveClauseBound(size_t num_clauses,
                                     const ClauseAt& clause_at,
                                     std::vector<char>* used,
                                     std::vector<uint32_t>* touched) {
  uint32_t bound = 0;
  for (size_t i = 0; i < num_clauses; ++i) {
    const Cnf::Clause clause = clause_at(i);
    if (clause.empty()) continue;
    bool eligible = true;
    for (Lit l : clause) {
      if (!LitSign(l) || (*used)[LitVar(l)]) {
        eligible = false;
        break;
      }
    }
    if (!eligible) continue;
    ++bound;
    for (Lit l : clause) {
      (*used)[LitVar(l)] = 1;
      touched->push_back(LitVar(l));
    }
  }
  return bound;
}

/// Lower bound on the component optimum by splitting on its busiest
/// variable. Each side is `sub` plus one unit clause, reduced by
/// PreprocessMinOnes, which keeps that side's optimum: its fixed-true
/// count plus the disjoint bound of its residual bounds the side from
/// below, and a refuted side has no model. The component optimum is
/// the smaller side's. This closes the star-shaped cores dominance
/// leaves behind (one hub variable in every clause), where the disjoint
/// bound alone stays at 1 and totalizer probes stall. Costs two
/// preprocessing passes over `sub`.
uint32_t SplitLowerBound(const Cnf& sub) {
  const uint32_t n = sub.num_vars();
  std::vector<uint32_t> occurrences(n, 0);
  for (const Cnf::Clause clause : sub.clauses()) {
    for (Lit l : clause) ++occurrences[LitVar(l)];
  }
  const uint32_t hub = static_cast<uint32_t>(
      std::max_element(occurrences.begin(), occurrences.end()) -
      occurrences.begin());
  std::vector<char> used(n, 0);
  std::vector<uint32_t> touched;
  uint32_t bound = UINT32_MAX;
  for (Lit side : {PosLit(hub), NegLit(hub)}) {
    WorkingCnf work(sub);
    work.AddUnit(side);
    std::vector<int8_t> fixed(n, -1);
    MinOnesResult counts;
    if (!PreprocessMinOnes(&work, &fixed, &counts)) continue;
    touched.clear();
    uint32_t side_bound =
        static_cast<uint32_t>(std::count(fixed.begin(), fixed.end(), 1)) +
        DisjointPositiveClauseBound(
            work.num_clauses(), [&](size_t c) { return work.clause(c); },
            &used, &touched);
    for (uint32_t v : touched) used[v] = 0;
    bound = std::min(bound, side_bound);
  }
  return bound;
}

struct ComponentOutcome {
  enum class State {
    kUnsat,             // proven unsatisfiable
    kOptimal,           // model proven minimum
    kAnytime,           // model valid, bound not proven
    kExhaustedNoModel,  // budget ran out before any model
  };
  State state = State::kExhaustedNoModel;
  std::vector<bool> model;  // over the component's variables
};

/// The bounded-search loop over one component: establish an incumbent
/// (warm-started from the global pass when available), then bisect the
/// objective between the proven lower bound (disjoint all-positive
/// clauses, top-level forced literals) and the incumbent, tightening via
/// totalizer assumptions — all on one incremental solver, so learned
/// clauses carry across bounds. Components too large for a totalizer
/// fall back to blocking-clause descent with a non-improvement cap.
ComponentOutcome SolveComponent(const Cnf& sub,
                                const std::vector<bool>* warm_model,
                                const MinOnesOptions& options,
                                const WallTimer* timer, double deadline,
                                uint64_t work_budget,
                                SolverStats* stats_out) {
  Span span("sat.min_ones.component");
  span.SetArg("vars", sub.num_vars());
  span.SetArg("clauses", sub.num_clauses());
  SolverOptions solver_options;
  solver_options.learning = options.enable_learning;
  solver_options.restarts = options.enable_restarts;
  solver_options.cancel = options.cancel;
  solver_options.max_work = std::max<uint64_t>(1, work_budget);
  CdclSolver solver(solver_options);
  solver.AddCnf(sub);
  const Cnf::ClauseRange clauses = sub.clauses();
  const auto clause_at = [&](size_t i) { return clauses[i]; };
  SeedGreedyCover(&solver, clauses.size(), clause_at, sub.num_vars());

  const uint32_t n = sub.num_vars();
  ComponentOutcome out;
  std::vector<Lit> outputs;  // totalizer outputs, emitted lazily
  std::vector<Lit> assumptions;
  // Bound invariant: every model has >= lb true variables; `ub` is the
  // incumbent's count (UINT32_MAX before the first model).
  uint32_t forced_lb = 0;
  for (uint32_t v = 0; v < n; ++v) {
    if (solver.FixedValue(v) == 1) ++forced_lb;
  }
  std::vector<char> lb_used(n, 0);
  std::vector<uint32_t> lb_touched;
  uint32_t lb = std::max(
      forced_lb, DisjointPositiveClauseBound(clauses.size(), clause_at,
                                             &lb_used, &lb_touched));
  uint32_t ub = UINT32_MAX;
  std::vector<bool> latest;  // last model seen (the one blocking blocks)
  if (warm_model != nullptr) {
    latest = *warm_model;
    ub = 0;
    for (uint32_t v = 0; v < n; ++v) ub += latest[v] ? 1 : 0;
    out.model = latest;
    out.state = ComponentOutcome::State::kAnytime;
    for (uint32_t v = 0; v < n; ++v) solver.SetPhase(v, latest[v]);
    if (lb < ub && n > 0) lb = std::max(lb, SplitLowerBound(sub));
  }
  // Above the totalizer area (~vars x incumbent output width) exact
  // bound probing is counterproductive — propagation drags through the
  // counter and UNSAT probes stall; blocking-clause descent stays
  // anytime and can still prove optimality when the space collapses.
  constexpr int kMaxFruitlessBlocks = 8;
  bool blocking_mode = false;
  int fruitless_blocks = 0;
  // Bound being probed by the in-flight Solve call (totalizer mode).
  uint32_t probe = 0;

  for (;;) {
    // Decide the next query when an incumbent exists.
    if (ub != UINT32_MAX) {
      if (lb >= ub) {
        out.state = ComponentOutcome::State::kOptimal;
        break;
      }
      if (blocking_mode ||
          (outputs.empty() && static_cast<uint64_t>(n) * (ub + 1) >
                                  options.max_totalizer_area)) {
        blocking_mode = true;
        if (fruitless_blocks >= kMaxFruitlessBlocks) break;  // anytime
        // Require the next model to differ from the latest one on at
        // least one of its true variables.
        std::vector<Lit> block;
        for (uint32_t v = 0; v < n; ++v) {
          if (latest[v]) block.push_back(NegLit(v));
        }
        if (!solver.AddClause(std::move(block))) {
          out.state = ComponentOutcome::State::kOptimal;
          break;
        }
        assumptions.clear();
      } else {
        probe = lb + (ub - 1 - lb) / 2;  // bisect [lb, ub-1]
        if (probe == 0) {
          // "No true variables" needs no counter: assume all false.
          assumptions.clear();
          for (uint32_t v = 0; v < n; ++v) {
            assumptions.push_back(NegLit(v));
          }
        } else {
          if (outputs.empty()) {
            // First bounded probe: emit the counter, capped at the
            // incumbent (no bound beyond it is ever queried).
            std::vector<Lit> inputs;
            inputs.reserve(n);
            for (uint32_t v = 0; v < n; ++v) inputs.push_back(PosLit(v));
            outputs = BuildTotalizer(&solver, inputs, ub);
          }
          assumptions.assign(1, -outputs[probe]);  // require sum <= probe
        }
      }
    }
    double remaining = deadline - timer->ElapsedSeconds();
    if (remaining <= 0) break;  // anytime exit with whatever we have
    solver.mutable_options()->time_limit_seconds = remaining;
    SolveStatus status = solver.Solve(assumptions);
    if (status == SolveStatus::kUnknown) break;
    if (status == SolveStatus::kUnsat) {
      if (ub == UINT32_MAX) {
        out.state = ComponentOutcome::State::kUnsat;
        break;
      }
      if (blocking_mode) {
        // Every model extends some blocked incumbent, so none beats the
        // best one: optimal.
        out.state = ComponentOutcome::State::kOptimal;
        break;
      }
      lb = probe + 1;  // no model with <= probe trues
      if (lb < ub && probe < outputs.size()) {
        // Every model sets >= probe+1 inputs true, which forces the
        // totalizer output for that count; assert it permanently.
        solver.AddClause({outputs[probe]});
      }
      continue;
    }
    // SAT: harvest the model.
    uint32_t count = 0;
    for (uint32_t v = 0; v < n; ++v) count += solver.model()[v] ? 1 : 0;
    latest.assign(solver.model().begin(), solver.model().begin() + n);
    DR_CHECK(blocking_mode || count < ub);
    if (count < ub) {
      ub = count;
      out.model = latest;
      out.state = ComponentOutcome::State::kAnytime;
      fruitless_blocks = 0;
      if (!blocking_mode && ub > lb && outputs.size() > ub) {
        // "sum <= ub" is witnessed by the incumbent: sound as a clause.
        solver.AddClause({-outputs[ub]});
      }
    } else {
      ++fruitless_blocks;
    }
  }
  stats_out->Add(solver.stats());
  return out;
}

}  // namespace

MinOnesResult MinOnesSat(const Cnf& cnf, const MinOnesOptions& options) {
  Span span("sat.min_ones");
  span.SetArg("vars", cnf.num_vars());
  span.SetArg("clauses", cnf.num_clauses());
  // Algorithm 1's CNF, cold or warm, arrives normalized; anything else
  // (a CQA slice with its answer's clauses, a hand-built CNF) is
  // normalized on the way into the working copy.
  span.SetArg("normalized", cnf.normalized() ? 0 : 1);
  MinOnesResult result;
  result.optimal = true;
  WallTimer timer;

  // The one working copy, reduced in place by preprocessing.
  WorkingCnf work =
      cnf.normalized() ? WorkingCnf(cnf) : WorkingCnf(NormalizedCopy(cnf));
  for (uint32_t len : work.len) {
    if (len == 0) {
      result.satisfiable = false;
      result.optimal = true;
      return result;
    }
  }
  const uint32_t n = cnf.num_vars();

  // Objective-aware preprocessing: unit propagation, pure-negative and
  // dominated-variable elimination. On the deletion CNFs this decides
  // most variables outright — often all of them — and shatters the
  // residual into small components.
  std::vector<int8_t> fixed(n, -1);
  if (!PreprocessMinOnes(&work, &fixed, &result)) {
    result.satisfiable = false;
    result.optimal = true;
    return result;
  }

  // Component decomposition of the residual over shared variables (or
  // one component when the ablation knob disables it).
  const size_t m = work.num_clauses();
  const auto clause_at = [&](size_t c) { return work.clause(c); };
  UnionFind uf(n);
  for (size_t c = 0; c < m; ++c) {
    const Cnf::Clause clause = work.clause(c);
    for (size_t i = 1; i < clause.size(); ++i) {
      uf.Union(LitVar(clause[0]), LitVar(clause[i]));
    }
  }
  if (!options.decompose_components && n > 0) {
    for (uint32_t v = 1; v < n; ++v) uf.Union(0, v);
  }
  std::vector<std::vector<uint32_t>> comp_clauses;  // clause indices
  std::vector<int> root_to_comp(n, -1);
  for (size_t c = 0; c < m; ++c) {
    if (work.len[c] == 0) continue;  // satisfied and killed by preprocessing
    uint32_t root = uf.Find(LitVar(work.clause(c)[0]));
    if (root_to_comp[root] < 0) {
      root_to_comp[root] = static_cast<int>(comp_clauses.size());
      comp_clauses.emplace_back();
    }
    comp_clauses[root_to_comp[root]].push_back(static_cast<uint32_t>(c));
  }
  result.num_components = static_cast<uint32_t>(comp_clauses.size());
  std::vector<std::vector<uint32_t>> comp_vars(comp_clauses.size());
  for (uint32_t v = 0; v < n; ++v) {
    if (fixed[v] != -1) continue;
    int comp = root_to_comp[uf.Find(v)];
    if (comp >= 0) comp_vars[static_cast<size_t>(comp)].push_back(v);
  }
  for (const auto& comp : comp_clauses) {
    result.residual_clauses += static_cast<uint32_t>(comp.size());
  }
  for (const auto& vars : comp_vars) {
    result.residual_vars += static_cast<uint32_t>(vars.size());
  }
  span.SetArg("fixed_propagation", result.fixed_by_propagation);
  span.SetArg("fixed_dominance", result.fixed_by_dominance);
  span.SetArg("rounds", result.preprocess_rounds);
  span.SetArg("residual_vars", result.residual_vars);
  span.SetArg("components", result.num_components);

  // Decided variables enter the model directly; free ones default false.
  std::vector<bool> model(n, false);
  for (uint32_t v = 0; v < n; ++v) {
    if (fixed[v] == 1) model[v] = true;
  }
  uint64_t budget_left = options.max_assignments;

  // Global warm pass: one greedy-seeded solve over the whole residual
  // gives every component its first incumbent at once. Components whose
  // incumbent already matches their disjoint lower bound finish here
  // without a solver of their own (the common case).
  std::vector<bool> global_model;
  bool have_global = false;
  if (!comp_clauses.empty()) {
    SolverOptions global_options;
    global_options.learning = options.enable_learning;
    global_options.restarts = options.enable_restarts;
    global_options.cancel = options.cancel;
    global_options.max_work = std::max<uint64_t>(1, budget_left);
    global_options.time_limit_seconds = std::max(
        0.05, options.time_limit_seconds - timer.ElapsedSeconds());
    CdclSolver global(global_options);
    global.EnsureVars(n);
    bool consistent = true;
    for (size_t c = 0; c < m; ++c) {
      const Cnf::Clause clause = work.clause(c);
      if (!clause.empty() &&
          !global.AddClause(std::vector<Lit>(clause.begin(), clause.end()))) {
        consistent = false;
      }
    }
    if (consistent) SeedGreedyCover(&global, m, clause_at, n);
    SolveStatus status = consistent ? global.Solve() : SolveStatus::kUnsat;
    result.solver.Add(global.stats());
    uint64_t work_done = global.stats().work();
    result.engine_assignments += work_done;
    budget_left = budget_left > work_done ? budget_left - work_done : 0;
    if (status == SolveStatus::kUnsat) {
      result.satisfiable = false;
      result.optimal = true;
      return result;
    }
    if (status == SolveStatus::kSat) {
      have_global = true;
      global_model = global.model();
    }
  }

  std::vector<char> lb_used(n, 0);
  std::vector<uint32_t> lb_touched;
  // Global -> component-local variable map, shared by every component
  // and reset entry by entry after each remap.
  std::vector<uint32_t> local_of(n, UINT32_MAX);
  for (size_t ci = 0; ci < comp_clauses.size(); ++ci) {
    const auto& comp = comp_clauses[ci];
    if (have_global) {
      uint32_t count = 0;
      for (uint32_t v : comp_vars[ci]) count += global_model[v] ? 1 : 0;
      lb_touched.clear();
      uint32_t lb = DisjointPositiveClauseBound(
          comp.size(), [&](size_t i) { return work.clause(comp[i]); },
          &lb_used, &lb_touched);
      for (uint32_t v : lb_touched) lb_used[v] = 0;
      if (count <= lb) {
        // The warm incumbent is provably minimum: no solver needed.
        for (uint32_t v : comp_vars[ci]) model[v] = global_model[v];
        continue;
      }
    }
    // Remap variables into a dense sub-instance.
    std::vector<uint32_t> global_of;
    Cnf sub;
    for (uint32_t c : comp) {
      for (Lit l : work.clause(c)) {
        uint32_t g = LitVar(l);
        if (local_of[g] == UINT32_MAX) {
          local_of[g] = static_cast<uint32_t>(global_of.size());
          global_of.push_back(g);
        }
        sub.PushLit(LitSign(l) ? PosLit(local_of[g]) : NegLit(local_of[g]));
      }
      sub.EndClause();
    }
    for (uint32_t g : global_of) local_of[g] = UINT32_MAX;
    std::vector<bool> warm;
    if (have_global) {
      warm.resize(global_of.size());
      for (uint32_t lv = 0; lv < global_of.size(); ++lv) {
        warm[lv] = global_model[global_of[lv]];
      }
      if (options.time_limit_seconds <= timer.ElapsedSeconds() ||
          (options.cancel != nullptr &&
           options.cancel->load(std::memory_order_relaxed))) {
        // Out of time: the warm incumbent is already a model of this
        // component, so take it as-is instead of opening a solver.
        result.optimal = false;
        for (uint32_t lv = 0; lv < global_of.size(); ++lv) {
          model[global_of[lv]] = warm[lv];
        }
        continue;
      }
    }
    // Deadline: global limit, but guarantee every component a minimum
    // slice so a hard early component cannot starve the rest (without a
    // warm model its first solve is the only incumbent source).
    double slice_deadline =
        timer.ElapsedSeconds() +
        std::max(0.05, options.time_limit_seconds - timer.ElapsedSeconds());
    SolverStats comp_stats;
    ComponentOutcome outcome =
        SolveComponent(sub, have_global ? &warm : nullptr, options, &timer,
                       slice_deadline, budget_left, &comp_stats);
    result.solver.Add(comp_stats);
    uint64_t work_done = comp_stats.work();
    result.engine_assignments += work_done;
    budget_left = budget_left > work_done ? budget_left - work_done : 0;

    switch (outcome.state) {
      case ComponentOutcome::State::kUnsat:
        result.satisfiable = false;
        result.optimal = true;  // a refuted component is a proof
        return result;
      case ComponentOutcome::State::kOptimal:
      case ComponentOutcome::State::kAnytime: {
        if (outcome.state == ComponentOutcome::State::kAnytime) {
          result.optimal = false;
        }
        for (uint32_t lv = 0; lv < global_of.size(); ++lv) {
          model[global_of[lv]] = outcome.model[lv];
        }
        break;
      }
      case ComponentOutcome::State::kExhaustedNoModel: {
        result.optimal = false;
        // Budget ran out before the first incumbent. The repair encodings
        // always admit the all-true model (every clause keeps its
        // self-atom positive literal) — use it when it applies, else fall
        // back to a plain solve for *a* model (anytime contract: any
        // satisfying assignment is still a stabilizing set). The
        // fallback ignores the work budget and deadline — delivering a
        // model late beats delivering none — but still honors
        // cancellation; a cancelled fallback reports satisfiable=false
        // with optimal=false ("unknown"), never a proof.
        std::vector<bool> all_true(sub.num_vars(), true);
        if (sub.IsSatisfiedBy(all_true)) {
          for (uint32_t g : global_of) model[g] = true;
          break;
        }
        SolverOptions fallback_options;
        fallback_options.cancel = options.cancel;
        CdclSolver fallback(fallback_options);
        fallback.AddCnf(sub);
        SolveStatus status = fallback.Solve();
        result.solver.Add(fallback.stats());
        result.engine_assignments += fallback.stats().work();
        if (status != SolveStatus::kSat) {
          result.satisfiable = false;
          result.optimal = status == SolveStatus::kUnsat;  // else unknown
          return result;
        }
        for (uint32_t lv = 0; lv < global_of.size(); ++lv) {
          model[global_of[lv]] = fallback.model()[lv];
        }
        break;
      }
    }
  }

  result.satisfiable = true;
  result.model = std::move(model);
  result.num_true = 0;
  for (bool b : result.model) result.num_true += b ? 1 : 0;
  DR_CHECK(cnf.IsSatisfiedBy(result.model));
  return result;
}

}  // namespace deltarepair
