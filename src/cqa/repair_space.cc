#include "cqa/repair_space.h"

#include <algorithm>
#include <set>

#include "common/timer.h"
#include "cqa/entailment.h"
#include "datalog/grounder.h"
#include "relation/instance_view.h"
#include "repair/semantics_registry.h"

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
                                         ExecContext* ctx)
    : view_(view),
      program_(program),
      min_ones_options_(options.independent.min_ones) {
  SetModel(BuildStabilityModel(view, program, min_ones_options_, ctx,
                               &stats_));
}

SymbolicRepairSpace::SymbolicRepairSpace(
    std::shared_ptr<const StabilityModel> model, InstanceView* view,
    const Program& program, const MinOnesOptions& min_ones_options)
    : view_(view), program_(program), min_ones_options_(min_ones_options) {
  SetModel(std::move(model));
}

void SymbolicRepairSpace::SetModel(
    std::shared_ptr<const StabilityModel> model) {
  model_ = std::move(model);
  // Without a proven optimum the space cannot be characterized.
  exact_ = model_ != nullptr;
  repair_size_ = exact_ ? model_->optimum() : 0;
}

CqaVerdict SymbolicRepairSpace::Certain(const AnswerProvenance& prov,
                                        ExecContext* ctx) {
  SlicedJudge judge(this);
  return judge.Certain(prov, ctx);
}

CqaVerdict SymbolicRepairSpace::Possible(const AnswerProvenance& prov,
                                         ExecContext* ctx) {
  SlicedJudge judge(this);
  return judge.Possible(prov, ctx);
}

std::optional<CqaCounterexample> SymbolicRepairSpace::Counterexample(
    const AnswerProvenance& prov, ExecContext* ctx) {
  SlicedJudge judge(this);
  return judge.Counterexample(prov, ctx);
}

std::unique_ptr<AnswerJudge> SymbolicRepairSpace::NewJudge() {
  return std::make_unique<SlicedJudge>(this);
}

void SymbolicRepairSpace::AddSliceStats(SliceStats* stats) const {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats->Add(slice_stats_);
  }
  if (model_ != nullptr) stats->Add(model_->slicer().stats());
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
