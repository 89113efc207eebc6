#include "sat/solver.h"

#include <algorithm>

#include "common/status.h"
#include "common/timer.h"
#include "obs/trace.h"

namespace deltarepair {

namespace {

constexpr Lit kLitUndef = 0;

// VSIDS decay factors and the Luby restart unit (in conflicts).
constexpr double kVarDecay = 0.95;
constexpr double kClauseDecay = 0.999;
constexpr uint64_t kRestartBase = 64;

/// Luby sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
uint64_t Luby(uint64_t i) {
  // Find the finite subsequence containing index i and its size.
  uint64_t size = 1, seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) / 2;
    --seq;
    i = i % size;
  }
  return uint64_t{1} << seq;
}

}  // namespace

const char* SolveStatusName(SolveStatus s) {
  switch (s) {
    case SolveStatus::kSat: return "sat";
    case SolveStatus::kUnsat: return "unsat";
    case SolveStatus::kUnknown: return "unknown";
  }
  return "?";
}

void SolverStats::Add(const SolverStats& o) {
  solve_calls += o.solve_calls;
  decisions += o.decisions;
  propagations += o.propagations;
  conflicts += o.conflicts;
  restarts += o.restarts;
  learned_clauses += o.learned_clauses;
  learned_literals += o.learned_literals;
  deleted_clauses += o.deleted_clauses;
}

CdclSolver::CdclSolver(const SolverOptions& options) : options_(options) {}

CdclSolver::~CdclSolver() = default;

void CdclSolver::EnsureVars(uint32_t n) {
  uint32_t old = num_vars();
  if (n <= old) return;
  assign_.resize(n, -1);
  level_.resize(n, 0);
  reason_.resize(n, nullptr);
  saved_phase_.resize(n, 0);  // prefer false: cheap for Min-Ones
  activity_.resize(n, 0.0);
  seen_.resize(n, 0);
  watches_.resize(static_cast<size_t>(n) * 2);
  heap_pos_.resize(n, -1);
  for (uint32_t v = old; v < n; ++v) HeapInsert(v);
}

uint32_t CdclSolver::NewVar() {
  uint32_t v = num_vars();
  EnsureVars(v + 1);
  return v;
}

void CdclSolver::SetPhase(uint32_t var, bool phase) {
  EnsureVars(var + 1);
  saved_phase_[var] = phase ? 1 : 0;
}

void CdclSolver::SeedActivity(uint32_t var, double activity) {
  EnsureVars(var + 1);
  DR_CHECK(activity >= activity_[var]);
  activity_[var] = activity;
  if (HeapInside(var)) HeapUpdate(var);
}

int8_t CdclSolver::FixedValue(uint32_t var) const {
  if (var >= num_vars() || assign_[var] == -1 || level_[var] != 0) return -1;
  return assign_[var];
}

bool CdclSolver::AddClause(std::vector<Lit> lits) {
  DR_CHECK_MSG(DecisionLevel() == 0, "AddClause requires decision level 0");
  for (Lit l : lits) {
    DR_CHECK(l != 0);
    EnsureVars(LitVar(l) + 1);
  }
  // Canonicalize: sort by (var, sign), drop duplicates and tautologies,
  // drop literals already false at the top level, detect satisfied ones.
  std::sort(lits.begin(), lits.end(), [](Lit a, Lit b) {
    return LitVar(a) != LitVar(b) ? LitVar(a) < LitVar(b) : a < b;
  });
  std::vector<Lit> clean;
  clean.reserve(lits.size());
  for (Lit l : lits) {
    if (!clean.empty() && clean.back() == l) continue;
    if (!clean.empty() && LitVar(clean.back()) == LitVar(l)) {
      return true;  // tautology: always satisfied, nothing to add
    }
    int8_t val = LitValue(l);
    if (val == 1) return true;  // satisfied at top level
    if (val == 0) continue;     // falsified at top level: drop literal
    clean.push_back(l);
  }
  if (!ok_) return false;
  if (clean.empty()) {
    ok_ = false;
    return false;
  }
  if (clean.size() == 1) {
    UncheckedEnqueue(clean[0], nullptr);
    if (Propagate() != nullptr) ok_ = false;
    return ok_;
  }
  auto clause = std::make_unique<Clause>();
  clause->lits = std::move(clean);
  AttachClause(clause.get());
  clauses_.push_back(std::move(clause));
  return true;
}

void CdclSolver::AddCnf(const Cnf& cnf) {
  EnsureVars(cnf.num_vars());
  for (const Cnf::Clause clause : cnf.clauses()) {
    AddClause(std::vector<Lit>(clause.begin(), clause.end()));
  }
}

void CdclSolver::AttachClause(Clause* c) {
  DR_CHECK(c->lits.size() >= 2);
  watches_[WatchIndex(c->lits[0])].push_back(Watcher{c, c->lits[1]});
  watches_[WatchIndex(c->lits[1])].push_back(Watcher{c, c->lits[0]});
}

void CdclSolver::DetachClause(Clause* c) {
  for (int i = 0; i < 2; ++i) {
    auto& ws = watches_[WatchIndex(c->lits[i])];
    for (size_t j = 0; j < ws.size(); ++j) {
      if (ws[j].clause == c) {
        ws[j] = ws.back();
        ws.pop_back();
        break;
      }
    }
  }
}

bool CdclSolver::Locked(const Clause* c) const {
  uint32_t v = LitVar(c->lits[0]);
  return reason_[v] == c && assign_[v] != -1;
}

void CdclSolver::RemoveClause(Clause* c) {
  DetachClause(c);
  ++stats_.deleted_clauses;
}

void CdclSolver::UncheckedEnqueue(Lit p, Clause* reason) {
  uint32_t v = LitVar(p);
  DR_CHECK(assign_[v] == -1);
  assign_[v] = LitSign(p) ? 1 : 0;
  level_[v] = DecisionLevel();
  reason_[v] = reason;
  trail_.push_back(p);
}

CdclSolver::Clause* CdclSolver::Propagate() {
  Clause* conflict = nullptr;
  while (qhead_ < trail_.size()) {
    Lit p = trail_[qhead_++];  // p is now true
    ++stats_.propagations;
    // Clauses watching ¬p lost a watch.
    auto& ws = watches_[WatchIndex(Negate(p))];
    size_t keep = 0;
    for (size_t i = 0; i < ws.size(); ++i) {
      Watcher w = ws[i];
      if (LitValue(w.blocker) == 1) {
        ws[keep++] = w;
        continue;
      }
      Clause& c = *w.clause;
      // Normalize: the false literal ¬p goes to position 1.
      Lit false_lit = Negate(p);
      if (c.lits[0] == false_lit) std::swap(c.lits[0], c.lits[1]);
      Lit first = c.lits[0];
      if (first != w.blocker && LitValue(first) == 1) {
        ws[keep++] = Watcher{&c, first};
        continue;
      }
      // Look for a new literal to watch.
      bool moved = false;
      for (size_t k = 2; k < c.lits.size(); ++k) {
        if (LitValue(c.lits[k]) != 0) {
          std::swap(c.lits[1], c.lits[k]);
          watches_[WatchIndex(c.lits[1])].push_back(Watcher{&c, first});
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Unit or conflicting.
      ws[keep++] = Watcher{&c, first};
      if (LitValue(first) == 0) {
        conflict = &c;
        qhead_ = trail_.size();
        // Keep the remaining watchers.
        for (size_t j = i + 1; j < ws.size(); ++j) ws[keep++] = ws[j];
        break;
      }
      UncheckedEnqueue(first, &c);
    }
    ws.resize(keep);
    if (conflict != nullptr) break;
  }
  return conflict;
}

void CdclSolver::VarBumpActivity(uint32_t v) {
  activity_[v] += var_inc_;
  if (activity_[v] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (HeapInside(v)) HeapUpdate(v);
}

void CdclSolver::ClauseBumpActivity(Clause* c) {
  c->activity += clause_inc_;
  if (c->activity > 1e20) {
    for (auto& cl : learnts_) cl->activity *= 1e-20;
    clause_inc_ *= 1e-20;
  }
}

void CdclSolver::Analyze(Clause* conflict, std::vector<Lit>* learnt,
                         int* bt_level) {
  learnt->clear();
  learnt->push_back(kLitUndef);  // slot for the asserting literal
  int path_count = 0;
  Lit p = kLitUndef;
  size_t index = trail_.size();
  Clause* reason = conflict;
  do {
    DR_CHECK(reason != nullptr);
    if (reason->learned) ClauseBumpActivity(reason);
    for (size_t j = (p == kLitUndef) ? 0 : 1; j < reason->lits.size(); ++j) {
      Lit q = reason->lits[j];
      uint32_t v = LitVar(q);
      if (seen_[v] || level_[v] == 0) continue;
      seen_[v] = 1;
      VarBumpActivity(v);
      if (level_[v] >= DecisionLevel()) {
        ++path_count;
      } else {
        learnt->push_back(q);
      }
    }
    // Next marked literal on the trail.
    while (!seen_[LitVar(trail_[--index])]) {}
    p = trail_[index];
    reason = reason_[LitVar(p)];
    seen_[LitVar(p)] = 0;
    --path_count;
  } while (path_count > 0);
  (*learnt)[0] = Negate(p);

  // Cheap minimization: drop literals whose reason clause is entirely
  // covered by the rest of the learnt clause (self-subsumption).
  for (Lit l : *learnt) seen_[LitVar(l)] = 1;
  size_t keep = 1;
  for (size_t i = 1; i < learnt->size(); ++i) {
    uint32_t v = LitVar((*learnt)[i]);
    const Clause* r = reason_[v];
    bool redundant = r != nullptr;
    if (redundant) {
      for (const Lit q : r->lits) {
        if (LitVar(q) != v && !seen_[LitVar(q)] && level_[LitVar(q)] > 0) {
          redundant = false;
          break;
        }
      }
    }
    if (redundant) {
      seen_[v] = 0;
    } else {
      (*learnt)[keep++] = (*learnt)[i];
    }
  }
  learnt->resize(keep);

  // Backjump level: the highest level among the non-asserting literals;
  // that literal moves to position 1 so it is watched.
  if (learnt->size() == 1) {
    *bt_level = 0;
  } else {
    size_t max_i = 1;
    for (size_t i = 2; i < learnt->size(); ++i) {
      if (level_[LitVar((*learnt)[i])] > level_[LitVar((*learnt)[max_i])]) {
        max_i = i;
      }
    }
    std::swap((*learnt)[1], (*learnt)[max_i]);
    *bt_level = level_[LitVar((*learnt)[1])];
  }
  for (Lit l : *learnt) seen_[LitVar(l)] = 0;
}

void CdclSolver::CancelUntil(int target_level) {
  if (DecisionLevel() <= target_level) return;
  size_t lim = trail_lim_[target_level];
  for (size_t i = trail_.size(); i-- > lim;) {
    uint32_t v = LitVar(trail_[i]);
    saved_phase_[v] = assign_[v];
    assign_[v] = -1;
    reason_[v] = nullptr;
    if (!HeapInside(v)) HeapInsert(v);
  }
  trail_.resize(lim);
  trail_lim_.resize(target_level);
  qhead_ = trail_.size();
}

Lit CdclSolver::PickBranchLit() {
  while (!heap_.empty()) {
    uint32_t v = HeapPop();
    if (assign_[v] == -1) {
      return saved_phase_[v] == 1 ? PosLit(v) : NegLit(v);
    }
  }
  return kLitUndef;
}

void CdclSolver::ReduceDb() {
  // Sort learnts by activity ascending; delete the weak half (all
  // removable ones when learning is off). Locked clauses (current
  // reasons) and binary clauses survive.
  std::vector<Clause*> order;
  order.reserve(learnts_.size());
  for (auto& c : learnts_) order.push_back(c.get());
  std::sort(order.begin(), order.end(), [](const Clause* a, const Clause* b) {
    return a->activity < b->activity;
  });
  size_t limit = options_.learning ? order.size() / 2 : order.size();
  size_t removed = 0;
  for (size_t i = 0; i < limit; ++i) {
    Clause* c = order[i];
    if (Locked(c)) continue;
    if (options_.learning && c->lits.size() <= 2) continue;
    RemoveClause(c);
    c->dead = true;
    ++removed;
  }
  if (removed == 0) return;
  learnts_.erase(std::remove_if(learnts_.begin(), learnts_.end(),
                                [](const std::unique_ptr<Clause>& c) {
                                  return c->dead;
                                }),
                 learnts_.end());
}

bool CdclSolver::BudgetExhausted() {
  return options_.max_work != 0 && stats_.work() > options_.max_work;
}

SolveStatus CdclSolver::Search(const std::vector<Lit>& assumptions) {
  WallTimer timer;
  uint64_t conflicts_since_restart = 0;
  uint64_t restart_limit = kRestartBase * Luby(stats_.restarts);
  uint64_t checks = 0;
  std::vector<Lit> learnt;

  for (;;) {
    Clause* conflict = Propagate();
    if (conflict != nullptr) {
      ++stats_.conflicts;
      ++conflicts_since_restart;
      if (DecisionLevel() == 0) {
        ok_ = false;
        return SolveStatus::kUnsat;
      }
      int bt_level = 0;
      Analyze(conflict, &learnt, &bt_level);
      CancelUntil(bt_level);
      if (learnt.size() == 1) {
        UncheckedEnqueue(learnt[0], nullptr);
      } else {
        auto clause = std::make_unique<Clause>();
        clause->learned = true;
        clause->lits = learnt;
        ClauseBumpActivity(clause.get());
        AttachClause(clause.get());
        UncheckedEnqueue(learnt[0], clause.get());
        ++stats_.learned_clauses;
        stats_.learned_literals += learnt.size();
        learnts_.push_back(std::move(clause));
      }
      var_inc_ /= kVarDecay;
      clause_inc_ /= kClauseDecay;
      if (BudgetExhausted()) return SolveStatus::kUnknown;
      if ((++checks & 255) == 0) {
        if (Interrupted() ||
            (options_.time_limit_seconds > 0 &&
             timer.ElapsedSeconds() > options_.time_limit_seconds)) {
          return SolveStatus::kUnknown;
        }
      }
      continue;
    }
    // No conflict: restart, reduce, or decide.
    if (options_.restarts && conflicts_since_restart >= restart_limit) {
      ++stats_.restarts;
      conflicts_since_restart = 0;
      restart_limit = kRestartBase * Luby(stats_.restarts);
      CancelUntil(0);
      continue;
    }
    size_t db_target = options_.learning
                           ? static_cast<size_t>(max_learnts_)
                           : 0;
    if (learnts_.size() > db_target + trail_.size()) {
      ReduceDb();
      if (options_.learning) max_learnts_ *= 1.1;
    }
    Lit next = kLitUndef;
    while (DecisionLevel() < static_cast<int>(assumptions.size())) {
      Lit a = assumptions[static_cast<size_t>(DecisionLevel())];
      int8_t val = LitValue(a);
      if (val == 1) {
        NewDecisionLevel();  // already satisfied: placeholder level
      } else if (val == 0) {
        return SolveStatus::kUnsat;  // conflicting assumption
      } else {
        next = a;
        break;
      }
    }
    if (next == kLitUndef) {
      if (BudgetExhausted()) return SolveStatus::kUnknown;
      if ((++checks & 255) == 0 &&
          (Interrupted() ||
           (options_.time_limit_seconds > 0 &&
            timer.ElapsedSeconds() > options_.time_limit_seconds))) {
        return SolveStatus::kUnknown;
      }
      next = PickBranchLit();
      if (next == kLitUndef) return SolveStatus::kSat;  // full model
      ++stats_.decisions;
    }
    NewDecisionLevel();
    UncheckedEnqueue(next, nullptr);
  }
}

SolveStatus CdclSolver::Solve(const std::vector<Lit>& assumptions) {
  Span span("sat.solve");
  span.SetArg("assumptions", assumptions.size());
  const uint64_t conflicts_before = stats_.conflicts;
  ++stats_.solve_calls;
  if (!ok_) return SolveStatus::kUnsat;
  for (Lit a : assumptions) EnsureVars(LitVar(a) + 1);
  if (max_learnts_ < 100) {
    max_learnts_ = std::max<double>(100, clauses_.size() / 3.0);
  }
  SolveStatus status = Search(assumptions);
  if (status == SolveStatus::kSat) {
    model_.assign(num_vars(), false);
    for (uint32_t v = 0; v < num_vars(); ++v) model_[v] = assign_[v] == 1;
  }
  CancelUntil(0);
  span.SetArg("conflicts", stats_.conflicts - conflicts_before);
  return status;
}

SatResult SolveSat(const Cnf& cnf) {
  CdclSolver solver;
  solver.AddCnf(cnf);
  SatResult result;
  SolveStatus status = solver.Solve();
  result.decisions = solver.stats().decisions;
  if (status == SolveStatus::kSat) {
    result.satisfiable = true;
    result.model = solver.model();
    result.model.resize(cnf.num_vars(), false);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Indexed max-heap over activity_.
// ---------------------------------------------------------------------------

void CdclSolver::HeapInsert(uint32_t v) {
  heap_pos_.resize(std::max<size_t>(heap_pos_.size(), v + 1), -1);
  if (heap_pos_[v] >= 0) return;
  heap_pos_[v] = static_cast<int>(heap_.size());
  heap_.push_back(v);
  HeapSiftUp(heap_.size() - 1);
}

void CdclSolver::HeapUpdate(uint32_t v) {
  HeapSiftUp(static_cast<size_t>(heap_pos_[v]));
}

uint32_t CdclSolver::HeapPop() {
  uint32_t top = heap_[0];
  heap_pos_[top] = -1;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_pos_[heap_[0]] = 0;
    HeapSiftDown(0);
  }
  return top;
}

void CdclSolver::HeapSiftUp(size_t i) {
  uint32_t v = heap_[i];
  while (i > 0) {
    size_t parent = (i - 1) / 2;
    if (activity_[heap_[parent]] >= activity_[v]) break;
    heap_[i] = heap_[parent];
    heap_pos_[heap_[i]] = static_cast<int>(i);
    i = parent;
  }
  heap_[i] = v;
  heap_pos_[v] = static_cast<int>(i);
}

void CdclSolver::HeapSiftDown(size_t i) {
  uint32_t v = heap_[i];
  for (;;) {
    size_t child = 2 * i + 1;
    if (child >= heap_.size()) break;
    if (child + 1 < heap_.size() &&
        activity_[heap_[child + 1]] > activity_[heap_[child]]) {
      ++child;
    }
    if (activity_[heap_[child]] <= activity_[v]) break;
    heap_[i] = heap_[child];
    heap_pos_[heap_[i]] = static_cast<int>(i);
    i = child;
  }
  heap_[i] = v;
  heap_pos_[v] = static_cast<int>(i);
}

}  // namespace deltarepair
