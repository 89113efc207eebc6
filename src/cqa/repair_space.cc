#include "cqa/repair_space.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>
#include <unordered_map>

#include "common/timer.h"
#include "cqa/entailment.h"
#include "datalog/grounder.h"
#include "obs/trace.h"
#include "relation/instance_view.h"
#include "repair/semantics_registry.h"
#include "sat/totalizer.h"

namespace deltarepair {

// ---------------------------------------------------------------------------
// EnumeratedRepairSpace
// ---------------------------------------------------------------------------

EnumeratedRepairSpace::EnumeratedRepairSpace(
    std::vector<std::vector<TupleId>> repairs, bool exact,
    RepairStats stats) {
  repairs_ = std::move(repairs);
  // A repair space is never empty (every semantics outputs at least one
  // repair — D itself always stabilizes), so an empty list can only
  // mean truncated construction; claiming exactness over zero repairs
  // would make every answer vacuously certain.
  exact_ = exact && !repairs_.empty();
  stats_ = std::move(stats);
  packed_.reserve(repairs_.size());
  for (std::vector<TupleId>& r : repairs_) {
    std::sort(r.begin(), r.end());
    r.erase(std::unique(r.begin(), r.end()), r.end());
    std::unordered_set<uint64_t> packed;
    packed.reserve(r.size() * 2);
    for (const TupleId& t : r) packed.insert(t.Pack());
    packed_.push_back(std::move(packed));
  }
  if (!repairs_.empty()) {
    repair_size_ = static_cast<uint32_t>(repairs_.front().size());
    for (const auto& r : repairs_) {
      repair_size_ =
          std::min(repair_size_, static_cast<uint32_t>(r.size()));
    }
  }
}

bool EnumeratedRepairSpace::Survives(const AnswerProvenance& prov,
                                     size_t i) const {
  const std::unordered_set<uint64_t>& repair = packed_[i];
  for (const std::vector<TupleId>& m : prov.monomials) {
    bool alive = true;
    for (const TupleId& t : m) {
      if (repair.count(t.Pack()) != 0) {
        alive = false;
        break;
      }
    }
    if (alive) return true;
  }
  return false;
}

CqaVerdict EnumeratedRepairSpace::Certain(const AnswerProvenance& prov,
                                          ExecContext* ctx) {
  if (!exact_) return {false, false};
  for (size_t i = 0; i < repairs_.size(); ++i) {
    if (ctx->Tick()) return {false, false};
    if (!Survives(prov, i)) return {false, true};
  }
  return {true, true};
}

CqaVerdict EnumeratedRepairSpace::Possible(const AnswerProvenance& prov,
                                           ExecContext* ctx) {
  if (!exact_) return {true, false};
  for (size_t i = 0; i < repairs_.size(); ++i) {
    if (ctx->Tick()) return {true, false};
    if (Survives(prov, i)) return {true, true};
  }
  return {false, true};
}

std::optional<CqaCounterexample> EnumeratedRepairSpace::Counterexample(
    const AnswerProvenance& prov, ExecContext* ctx) {
  if (!exact_) return std::nullopt;
  // The smallest killing repair (sizes are uniform for step argmin
  // spaces, but nothing in the representation guarantees it).
  size_t best = repairs_.size();
  for (size_t i = 0; i < repairs_.size(); ++i) {
    if (ctx->ShouldStop()) return std::nullopt;
    if (Survives(prov, i)) continue;
    if (best == repairs_.size() ||
        repairs_[i].size() < repairs_[best].size()) {
      best = i;
    }
  }
  if (best == repairs_.size()) return std::nullopt;
  CqaCounterexample cex;
  cex.deleted = repairs_[best];
  cex.minimal = true;  // provably the smallest killing member
  return cex;
}

// ---------------------------------------------------------------------------
// SymbolicRepairSpace (independent semantics)
// ---------------------------------------------------------------------------

SymbolicRepairSpace::SymbolicRepairSpace(InstanceView* view,
                                         const Program& program,
                                         const RepairOptions& options,
                                         ExecContext* ctx) {
  min_ones_options_ = options.independent.min_ones;
  slice_options_ = options.cqa_slice;

  // Phase 1 (Eval): hypothetical grounding, exactly Algorithm 1's CNF —
  // the models of builder_.cnf() are the stabilizing sets.
  {
    ScopedTimer t(&stats_.eval_seconds);
    Grounder grounder(view);
    for (size_t i = 0; i < program.rules().size() && !ctx->stopped(); ++i) {
      grounder.EnumerateRule(program.rules()[i], static_cast<int>(i),
                             BaseMatch::kLive, DeltaMatch::kHypothetical,
                             [&](const GroundAssignment& ga) {
                               if (ctx->Tick()) return false;
                               builder_.AddAssignment(ga);
                               return true;
                             });
    }
    stats_.assignments = grounder.assignments_enumerated();
  }
  if (ctx->stopped()) {
    exact_ = false;
    return;
  }
  {
    ScopedTimer t(&stats_.process_prov_seconds);
    builder_.Normalize();
  }
  stats_.cnf_vars = builder_.num_vars();
  stats_.cnf_clauses = builder_.cnf().num_clauses();
  stats_.cnf_dup_clauses = builder_.normalize_stats().duplicate_clauses;
  stats_.cnf_subsumed_clauses =
      builder_.normalize_stats().unit_subsumed_clauses;

  // Phase 2 (Solve): Min-Ones pins the space's cardinality k. Without a
  // proven optimum the space cannot be characterized — stay inexact.
  MinOnesResult solved;
  {
    ScopedTimer t(&stats_.solve_seconds);
    MinOnesOptions solver_options = min_ones_options_;
    solver_options.time_limit_seconds = std::min(
        solver_options.time_limit_seconds, ctx->RemainingSeconds());
    if (ctx->cancel_token() != nullptr) {
      solver_options.cancel = ctx->cancel_token()->flag();
    }
    solved = MinOnesSat(builder_.cnf(), solver_options);
  }
  stats_.AddSolver(solved.solver);
  if (!solved.satisfiable || !solved.optimal || ctx->ShouldStop()) {
    exact_ = false;
    stats_.optimal = false;
    return;
  }
  repair_size_ = solved.num_true;
  min_model_ = std::move(solved.model);

  // Phase 3 (Cone): decompose the minimum-repair space around the
  // proven optimum. Per-answer entailment then runs on memoized cone
  // slices; the full-CNF fallback solver is loaded lazily on first
  // need (often never — constant propagation decides most answers).
  {
    std::vector<uint64_t> content_ids(builder_.num_vars());
    for (uint32_t v = 0; v < builder_.num_vars(); ++v) {
      content_ids[v] = builder_.TupleOfVar(v).Pack();
    }
    slicer_ = std::make_unique<ConeSlicer>(builder_.cnf(), min_model_,
                                           /*optimal=*/true,
                                           std::move(content_ids));
  }
}

void SymbolicRepairSpace::EnsureFallbackLoadedLocked() {
  if (fallback_loaded_) return;
  fallback_loaded_ = true;
  // The pre-slicing entailment backend: the stability CNF plus a
  // permanent cardinality cap at k on one incremental solver — its
  // models under no assumptions are exactly the minimum repairs.
  SolverOptions entail_options;
  entail_options.learning = min_ones_options_.enable_learning;
  entail_options.restarts = min_ones_options_.enable_restarts;
  // No inprocessing here: the stability CNF is already normalized and
  // the totalizer is arc-consistent, so a sweep removes nothing, and
  // its detach/canonicalize/reattach cycle both costs more than the
  // entailment solves it would amortize over and measurably degrades
  // their propagation order.
  entail_options.inprocessing = false;
  *solver_.mutable_options() = entail_options;
  solver_.AddCnf(builder_.cnf());
  const uint32_t n = builder_.num_vars();
  solver_.FreezeRange(0, n);

  // The cardinality cap is laid down per connected component of the
  // stability CNF, not as one global counter. Components share no
  // variables, so the minimum repair size decomposes as k = sum k_i
  // over per-component minima, and a deletion set is a minimum repair
  // iff every component slice is a minimum component repair: capping
  // each component at its own k_i (read off the optimal model — any
  // slice of a global optimum is a component optimum) admits exactly
  // the models of the single cap at k. The counters total
  // sum n_i * k_i clauses instead of n * k — orders of magnitude
  // smaller when violations are spread over many small components.
  std::vector<uint32_t> parent(n);
  for (uint32_t v = 0; v < n; ++v) parent[v] = v;
  std::function<uint32_t(uint32_t)> find = [&](uint32_t v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  };
  for (const std::vector<Lit>& clause : builder_.cnf().clauses()) {
    for (size_t i = 1; i < clause.size(); ++i) {
      parent[find(LitVar(clause[i]))] = find(LitVar(clause[0]));
    }
  }
  std::unordered_map<uint32_t, std::vector<uint32_t>> components;
  for (uint32_t v = 0; v < n; ++v) components[find(v)].push_back(v);
  uncapped_.assign(n, 0);
  for (auto& [root, vars] : components) {
    uint32_t k = 0;
    for (uint32_t v : vars) k += min_model_[v] ? 1 : 0;
    if (k == 0) {
      // Only clause-free variables sit in a zero-cost component; they
      // can never be part of a minimum repair.
      for (uint32_t v : vars) solver_.AddClause({NegLit(v)});
      continue;
    }
    if (k >= vars.size()) continue;  // cap would be vacuous
    if (static_cast<uint64_t>(vars.size()) * (k + 1) >
        min_ones_options_.max_totalizer_area) {
      // Too wide to count (n_i x (k_i+1) clauses): the component stays
      // uncapped, its models a superset of its minimum repairs, and
      // answers touching it get undecided fallback verdicts.
      for (uint32_t v : vars) uncapped_[v] = 1;
      continue;
    }
    std::vector<Lit> inputs;
    inputs.reserve(vars.size());
    for (uint32_t v : vars) inputs.push_back(PosLit(v));
    std::vector<Lit> outputs = BuildTotalizer(&solver_, inputs, k + 1);
    if (outputs.size() > k) solver_.AddClause({-outputs[k]});
  }
  solver_.FreezeRange(n, solver_.num_vars());
}

bool SymbolicRepairSpace::TouchesUncappedLocked(
    const AnswerProvenance& prov) const {
  for (const std::vector<TupleId>& m : prov.monomials) {
    for (const TupleId& t : m) {
      int64_t v = builder_.FindVar(t);
      if (v >= 0 && uncapped_[static_cast<size_t>(v)]) return true;
    }
  }
  return false;
}

bool SymbolicRepairSpace::DeathClause(const std::vector<TupleId>& monomial,
                                      std::vector<Lit>* out) {
  bool touched = false;
  for (const TupleId& t : monomial) {
    int64_t v = builder_.FindVar(t);
    if (v >= 0) {
      out->push_back(PosLit(static_cast<uint32_t>(v)));
      touched = true;
    }
  }
  return touched;
}

SolveStatus SymbolicRepairSpace::SolveUnder(
    ExecContext* ctx, const std::vector<Lit>& assumptions) {
  SolverOptions* opts = solver_.mutable_options();
  double remaining = ctx->RemainingSeconds();
  opts->time_limit_seconds =
      std::isinf(remaining) ? 0 : std::max(remaining, 1e-9);
  opts->cancel =
      ctx->cancel_token() != nullptr ? ctx->cancel_token()->flag() : nullptr;
  return solver_.Solve(assumptions);
}

CqaVerdict SymbolicRepairSpace::FallbackCertain(const AnswerProvenance& prov,
                                                ExecContext* ctx) {
  std::lock_guard<std::mutex> lock(fallback_mu_);
  EnsureFallbackLoadedLocked();
  if (ctx->ShouldStop()) return {false, false};
  // ¬φ: every monomial loses a tuple. A monomial no minimum repair can
  // touch makes the answer certain outright (untouched tuples are never
  // part of a minimum stabilizing set).
  std::vector<std::vector<Lit>> clauses;
  clauses.reserve(prov.monomials.size());
  for (const std::vector<TupleId>& m : prov.monomials) {
    std::vector<Lit> clause;
    if (!DeathClause(m, &clause)) return {true, true};
    clauses.push_back(std::move(clause));
  }
  Span span("cqa.fallback");
  const bool uncapped = TouchesUncappedLocked(prov);
  span.SetArg("cap_skipped", uncapped ? 1 : 0);
  if (uncapped) return {false, false};
  const Lit selector = PosLit(solver_.NewVar());
  for (std::vector<Lit>& clause : clauses) {
    clause.push_back(-selector);
    solver_.AddClause(std::move(clause));
  }
  SolveStatus status = SolveUnder(ctx, {selector});
  solver_.AddClause({-selector});  // retire
  if (status == SolveStatus::kUnknown) {
    ctx->ShouldStop();  // latch the budget/cancel reason
    return {false, false};
  }
  // UNSAT under ¬φ over the minimum repairs: the answer survives all.
  return {status == SolveStatus::kUnsat, true};
}

CqaVerdict SymbolicRepairSpace::FallbackPossible(const AnswerProvenance& prov,
                                                 ExecContext* ctx) {
  std::lock_guard<std::mutex> lock(fallback_mu_);
  EnsureFallbackLoadedLocked();
  if (ctx->ShouldStop()) return {true, false};
  // φ: some monomial fully survives — Tseitin monomial variables under
  // a retired selector.
  for (const std::vector<TupleId>& m : prov.monomials) {
    std::vector<Lit> death;
    if (!DeathClause(m, &death)) return {true, true};
  }
  Span span("cqa.fallback");
  const bool uncapped = TouchesUncappedLocked(prov);
  span.SetArg("cap_skipped", uncapped ? 1 : 0);
  if (uncapped) return {true, false};
  const Lit selector = PosLit(solver_.NewVar());
  std::vector<Lit> some_monomial{-selector};
  for (const std::vector<TupleId>& m : prov.monomials) {
    const Lit mono = PosLit(solver_.NewVar());
    some_monomial.push_back(mono);
    for (const TupleId& t : m) {
      int64_t v = builder_.FindVar(t);
      if (v >= 0) {
        solver_.AddClause({-mono, NegLit(static_cast<uint32_t>(v))});
      }
    }
  }
  solver_.AddClause(std::move(some_monomial));
  SolveStatus status = SolveUnder(ctx, {selector});
  solver_.AddClause({-selector});  // retire
  if (status == SolveStatus::kUnknown) {
    ctx->ShouldStop();
    return {true, false};
  }
  return {status == SolveStatus::kSat, true};
}

std::optional<CqaCounterexample> SymbolicRepairSpace::FallbackCounterexample(
    const AnswerProvenance& prov, ExecContext* ctx) {
  // Min-Ones over stability ∧ ¬φ: the smallest stabilizing set killing
  // the answer. When the answer is non-certain that minimum equals the
  // space's cardinality, so the witness is itself a minimum repair.
  Cnf cnf = builder_.cnf();
  for (const std::vector<TupleId>& m : prov.monomials) {
    std::vector<Lit> clause;
    if (!DeathClause(m, &clause)) return std::nullopt;  // unkillable
    for (Lit l : clause) cnf.Touch(LitVar(l));
    cnf.AddClause(std::move(clause));
  }
  MinOnesOptions options = min_ones_options_;
  options.time_limit_seconds =
      std::min(options.time_limit_seconds, ctx->RemainingSeconds());
  if (ctx->cancel_token() != nullptr) {
    options.cancel = ctx->cancel_token()->flag();
  }
  MinOnesResult solved = MinOnesSat(cnf, options);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.AddSolver(solved.solver);
  }
  if (!solved.satisfiable) {
    ctx->ShouldStop();
    return std::nullopt;  // proven certain, or budget before any model
  }
  CqaCounterexample cex;
  for (uint32_t v = 0; v < builder_.num_vars(); ++v) {
    if (solved.model[v]) cex.deleted.push_back(builder_.TupleOfVar(v));
  }
  std::sort(cex.deleted.begin(), cex.deleted.end());
  cex.minimal = solved.optimal;
  return cex;
}

// The per-worker judge: sliced entailment first, full-CNF fallback when
// a soundness gate declines. One judge per worker thread; the SlicedJudge
// inside uses fresh throwaway solvers, so concurrent judges only meet at
// the memoized slice table, the shared fallback solver's mutex, and the
// stats flush.
class SymbolicJudge : public AnswerJudge {
 public:
  explicit SymbolicJudge(SymbolicRepairSpace* space)
      : space_(space),
        sliced_(space->slicer_.get(), space->slice_options_,
                space->min_ones_options_) {}

  ~SymbolicJudge() override {
    std::lock_guard<std::mutex> lock(space_->stats_mu_);
    space_->slice_stats_.Add(sliced_.slice_stats());
    space_->stats_.Add(sliced_.repair_stats());
  }

  CqaVerdict Certain(const AnswerProvenance& prov,
                     ExecContext* ctx) override {
    if (!space_->exact()) return {false, false};
    if (sliced_.enabled()) {
      std::optional<CqaVerdict> v = sliced_.Certain(Reduce(prov), ctx);
      if (v.has_value()) return *v;
    }
    return space_->FallbackCertain(prov, ctx);
  }

  CqaVerdict Possible(const AnswerProvenance& prov,
                      ExecContext* ctx) override {
    if (!space_->exact()) return {true, false};
    if (sliced_.enabled()) {
      std::optional<CqaVerdict> v = sliced_.Possible(Reduce(prov), ctx);
      if (v.has_value()) return *v;
    }
    return space_->FallbackPossible(prov, ctx);
  }

  std::optional<CqaCounterexample> Counterexample(
      const AnswerProvenance& prov, ExecContext* ctx) override {
    if (!space_->exact()) return std::nullopt;
    if (sliced_.enabled()) {
      SlicedJudge::CexOutcome out = sliced_.Counterexample(Reduce(prov), ctx);
      if (out.kind == SlicedJudge::CexOutcome::Kind::kNone) {
        return std::nullopt;
      }
      if (out.kind == SlicedJudge::CexOutcome::Kind::kFound) {
        CqaCounterexample cex;
        cex.deleted.reserve(out.deleted_vars.size());
        for (uint32_t v : out.deleted_vars) {
          cex.deleted.push_back(space_->builder_.TupleOfVar(v));
        }
        std::sort(cex.deleted.begin(), cex.deleted.end());
        cex.minimal = out.minimal;
        return cex;
      }
    }
    return space_->FallbackCounterexample(prov, ctx);
  }

 private:
  ConeSlicer::ReducedAnswer Reduce(const AnswerProvenance& prov) const {
    return space_->slicer_->Reduce(
        prov.monomials,
        [this](TupleId t) { return space_->builder_.FindVar(t); });
  }

  SymbolicRepairSpace* space_;
  SlicedJudge sliced_;
};

CqaVerdict SymbolicRepairSpace::Certain(const AnswerProvenance& prov,
                                        ExecContext* ctx) {
  SymbolicJudge judge(this);
  return judge.Certain(prov, ctx);
}

CqaVerdict SymbolicRepairSpace::Possible(const AnswerProvenance& prov,
                                         ExecContext* ctx) {
  SymbolicJudge judge(this);
  return judge.Possible(prov, ctx);
}

std::optional<CqaCounterexample> SymbolicRepairSpace::Counterexample(
    const AnswerProvenance& prov, ExecContext* ctx) {
  SymbolicJudge judge(this);
  return judge.Counterexample(prov, ctx);
}

std::unique_ptr<AnswerJudge> SymbolicRepairSpace::NewJudge() {
  return std::make_unique<SymbolicJudge>(this);
}

void SymbolicRepairSpace::AddStats(RepairStats* stats) const {
  RepairStats total = stats_;
  total.AddSolver(solver_.stats());
  stats->Add(total);
}

void SymbolicRepairSpace::AddSliceStats(SliceStats* stats) const {
  stats->Add(slice_stats_);
  if (slicer_ != nullptr) stats->Add(slicer_->stats());
}

// ---------------------------------------------------------------------------
// Step space: every minimum-size maximal-activation-sequence outcome
// (Def. 3.5's argmin), via memoized DFS with a best-size bound.
// ---------------------------------------------------------------------------

namespace {

class StepSpaceSearch {
 public:
  StepSpaceSearch(InstanceView* view, const Program& program,
                  uint64_t max_states, ExecContext* ctx)
      : view_(view),
        program_(program),
        states_left_(max_states),
        ctx_(ctx),
        grounder_(view) {}

  /// Returns false when the state budget or the ExecContext tripped.
  bool Run() {
    Dfs();
    return !out_of_budget_ && !ctx_->stopped();
  }

  /// Distinct minimum-size outcomes, sorted (deterministic).
  std::vector<std::vector<TupleId>> MinOutcomes() const {
    std::vector<std::vector<TupleId>> out;
    for (const std::vector<uint64_t>& packed : outcomes_) {
      if (packed.size() != best_size_) continue;
      std::vector<TupleId> repair;
      repair.reserve(packed.size());
      for (uint64_t p : packed) repair.push_back(TupleId::Unpack(p));
      out.push_back(std::move(repair));
    }
    return out;
  }

  uint64_t states_visited() const { return states_visited_; }
  uint64_t assignments() const {
    return grounder_.assignments_enumerated();
  }

 private:
  /// 128-bit order-insensitive key of the deleted set. Two independent
  /// 64-bit mixes: with up to kStepSpaceMaxStates states a single
  /// 64-bit key has a ~1e-7 birthday-collision chance, which would
  /// silently drop a subtree from a space still reported exact; at 128
  /// bits the risk is negligible.
  std::pair<uint64_t, uint64_t> StateKey() const {
    uint64_t sum1 = 0, xor1 = 0, sum2 = 0, xor2 = 0;
    for (uint64_t p : deleted_) {
      uint64_t m1 = Mix64(p);
      uint64_t m2 = Mix64(p ^ 0x94d049bb133111ebULL);
      sum1 += m1;
      xor1 ^= m1;
      sum2 += m2;
      xor2 ^= m2;
    }
    return {HashCombine(HashCombine(0x9e3779b97f4a7c15ULL, sum1), xor1),
            HashCombine(HashCombine(0xbf58476d1ce4e5b9ULL, sum2), xor2)};
  }

  void Dfs() {
    // Unthrottled check: states are coarse units (each grounds every
    // rule), and a pre-set cancel token must stop the very first one.
    // The assignment and depth caps bound the search on instances where
    // the request set no budget: per-state grounding cost scales with
    // the instance, and the first depth-first path recurses as deep as
    // the whole cascade (each frame holds a heads list) — without them
    // a mid-size database turns the builder into an unbounded
    // time/memory sink instead of an inexact space.
    if (out_of_budget_ || ctx_->ShouldStop() ||
        grounder_.assignments_enumerated() > kMaxAssignments ||
        deleted_.size() > kMaxDepth) {
      out_of_budget_ = true;
      return;
    }
    if (states_left_-- == 0) {
      out_of_budget_ = true;
      return;
    }
    ++states_visited_;
    // A deeper sequence can never undercut the incumbent minimum.
    if (deleted_.size() > best_size_) return;
    if (!visited_.insert(StateKey()).second) return;

    // All delta tuples derivable by one activation from this state.
    std::vector<uint64_t> heads;
    for (size_t i = 0; i < program_.rules().size(); ++i) {
      grounder_.EnumerateRule(program_.rules()[i], static_cast<int>(i),
                              BaseMatch::kLive, DeltaMatch::kCurrent,
                              [&](const GroundAssignment& ga) {
                                heads.push_back(ga.head.Pack());
                                return true;
                              });
    }
    std::sort(heads.begin(), heads.end());
    heads.erase(std::unique(heads.begin(), heads.end()), heads.end());
    if (heads.empty()) {
      // Fixpoint — a maximal activation sequence ends here.
      std::vector<uint64_t> outcome(deleted_.begin(), deleted_.end());
      best_size_ = std::min<size_t>(best_size_, outcome.size());
      outcomes_.insert(std::move(outcome));
      return;
    }
    if (deleted_.size() >= best_size_) return;  // children only grow
    for (uint64_t packed : heads) {
      TupleId t = TupleId::Unpack(packed);
      view_->MarkDeleted(t);
      deleted_.insert(packed);
      Dfs();
      deleted_.erase(packed);
      view_->UnmarkDeleted(t);
      if (out_of_budget_) return;
    }
  }

  /// Grounding-work cap across the whole search (each state re-grounds
  /// every rule, so the state cap alone does not bound time).
  static constexpr uint64_t kMaxAssignments = 50'000'000;
  /// Sequence-depth cap: bounds recursion (and the per-frame heads
  /// lists) on cascades too deep to ever enumerate anyway.
  static constexpr size_t kMaxDepth = 512;

  InstanceView* view_;
  const Program& program_;
  uint64_t states_left_;
  ExecContext* ctx_;
  Grounder grounder_;
  std::set<std::pair<uint64_t, uint64_t>> visited_;
  std::set<uint64_t> deleted_;  // ordered: canonical outcome rendering
  std::set<std::vector<uint64_t>> outcomes_;
  size_t best_size_ = SIZE_MAX;
  uint64_t states_visited_ = 0;
  bool out_of_budget_ = false;
};

/// State-space cap for the step DFS (the step space is NP-hard to
/// enumerate; beyond this the space degrades to inexact/undecided).
constexpr uint64_t kStepSpaceMaxStates = 2'000'000;

std::unique_ptr<RepairSpace> BuildDeterministicSpace(
    SemanticsKind kind, InstanceView* view, const Program& program,
    const RepairOptions& options, ExecContext* ctx) {
  InstanceView::State snapshot = view->SaveState();
  RepairResult result =
      SemanticsRegistry::Global().GetKind(kind).Run(view, program, options,
                                                    ctx);
  view->RestoreState(snapshot);
  // A truncated run returns a stabilizing set, but not the semantics'
  // own repair — the space would misrepresent the definition.
  bool exact = !ctx->stopped();
  return std::make_unique<EnumeratedRepairSpace>(
      std::vector<std::vector<TupleId>>{result.deleted}, exact,
      result.stats);
}

std::unique_ptr<RepairSpace> BuildStepSpace(InstanceView* view,
                                            const Program& program,
                                            const RepairOptions& options,
                                            ExecContext* ctx) {
  (void)options;
  WallTimer timer;
  InstanceView::State snapshot = view->SaveState();
  StepSpaceSearch search(view, program, kStepSpaceMaxStates, ctx);
  bool complete = search.Run();
  view->RestoreState(snapshot);
  RepairStats stats;
  stats.eval_seconds = timer.ElapsedSeconds();
  stats.total_seconds = stats.eval_seconds;
  stats.assignments = search.assignments();
  stats.iterations = search.states_visited();
  stats.optimal = complete;
  return std::make_unique<EnumeratedRepairSpace>(search.MinOutcomes(),
                                                 complete, stats);
}

std::unique_ptr<RepairSpace> BuildIndependentSpace(
    InstanceView* view, const Program& program, const RepairOptions& options,
    ExecContext* ctx) {
  return std::make_unique<SymbolicRepairSpace>(view, program, options, ctx);
}

}  // namespace

// ---------------------------------------------------------------------------
// CqaRegistry
// ---------------------------------------------------------------------------

CqaRegistry::CqaRegistry() {
  by_name_["end"] = [](InstanceView* view, const Program& program,
                       const RepairOptions& options, ExecContext* ctx) {
    return BuildDeterministicSpace(SemanticsKind::kEnd, view, program,
                                   options, ctx);
  };
  by_name_["stage"] = [](InstanceView* view, const Program& program,
                         const RepairOptions& options, ExecContext* ctx) {
    return BuildDeterministicSpace(SemanticsKind::kStage, view, program,
                                   options, ctx);
  };
  by_name_["step"] = BuildStepSpace;
  by_name_["independent"] = BuildIndependentSpace;
}

CqaRegistry& CqaRegistry::Global() {
  static CqaRegistry* registry = new CqaRegistry();
  return *registry;
}

Status CqaRegistry::Register(std::string semantics_name,
                             RepairSpaceBuilder builder) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] =
      by_name_.emplace(std::move(semantics_name), std::move(builder));
  if (!inserted) {
    return Status::AlreadyExists("CQA space provider already registered: " +
                                 it->first);
  }
  return Status::OK();
}

StatusOr<const RepairSpaceBuilder*> CqaRegistry::Get(
    const std::string& name) const {
  // Resolve aliases ("ind") through the semantics registry first.
  StatusOr<const Semantics*> semantics =
      SemanticsRegistry::Global().Get(name);
  if (!semantics.ok()) return semantics.status();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_name_.find(semantics.value()->name());
  if (it == by_name_.end()) {
    return Status::NotFound("no CQA space provider for semantics: " +
                            std::string(semantics.value()->name()));
  }
  return &it->second;
}

}  // namespace deltarepair
