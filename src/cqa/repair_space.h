// Per-semantics repair spaces for consistent query answering.
//
// Each delta-rule semantics of the paper picks out a *space* of
// stabilizing deletion sets — the sets it could output once its
// tie-breaking nondeterminism is made explicit:
//
//  * end / stage (Defs. 3.10 / 3.7): deterministic — a singleton;
//  * step (Def. 3.5): every minimum-size outcome of a maximal
//    activation sequence (the definition's argmin, not Algorithm 2's
//    greedy pick);
//  * independent (Def. 3.3): every minimum-size stabilizing set.
//
// A RepairSpace answers, for one query answer's why-provenance DNF,
// whether the answer survives every repair (certain) or some repair
// (possible), and can produce a minimal counterexample deletion set.
// Two representations exist:
//
//  * EnumeratedRepairSpace — an explicit list of repairs (end/stage
//    singletons; step via memoized DFS over activation sequences);
//  * SymbolicRepairSpace — the independent space as a StabilityModel
//    (repair/stability_model.h): the reachable part of Algorithm 1's
//    negated provenance CNF (its minimum models = the minimum
//    stabilizing sets), a proven minimum model and its cone
//    decomposition. Per answer, certain is UNSAT of ¬φ and possible is
//    SAT of φ over the minimum repairs, both on the answer's cone slice
//    under per-component caps; counterexamples run Min-Ones over
//    stability ∧ ¬φ, the CNF extended from the answer's own tuples when
//    the killer may exceed the minimum (cqa/entailment.h).
//
// Spaces whose construction was truncated by a budget or cancellation
// are *inexact*: every verdict degrades to undecided with the
// conservative bounds (certain=false, possible=true).
//
// CqaRegistry maps semantics registry names (aliases resolve through
// SemanticsRegistry) to space builders, mirroring the pluggable
// semantics dispatch: a future fifth semantics registers a builder
// without touching the evaluator or the CLI.
#ifndef DELTAREPAIR_CQA_REPAIR_SPACE_H_
#define DELTAREPAIR_CQA_REPAIR_SPACE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cqa/query.h"
#include "provenance/cone.h"
#include "repair/repair_options.h"
#include "repair/stability_model.h"

namespace deltarepair {

/// Truth value of one certain/possible check. When `decided` is false
/// the space could not prove either way (inexact space, or a budget /
/// cancellation tripped mid-solve) and `holds` carries the conservative
/// bound: false for certain, true for possible.
struct CqaVerdict {
  bool holds = false;
  bool decided = false;
};

/// A minimal deletion set refuting one answer (annotated mode).
struct CqaCounterexample {
  std::vector<TupleId> deleted;  // sorted
  /// True when `deleted` is provably a minimum-cardinality killing
  /// member of the repair space. For the symbolic independent space
  /// this coincides with the smallest stabilizing set that kills the
  /// answer (Min-Ones proved its bound); false there means an anytime
  /// incumbent whose minimality was not proven.
  bool minimal = false;
};

/// Per-worker entailment handle of one RepairSpace. Parallel per-answer
/// evaluation gives each worker thread its own judge (thread-confined
/// scratch state; judges of one space are safe to use concurrently with
/// each other). Judges flush their work counters into the space on
/// destruction — destroy every judge before reading the space's stats.
class AnswerJudge {
 public:
  virtual ~AnswerJudge() = default;
  virtual CqaVerdict Certain(const AnswerProvenance& prov,
                             ExecContext* ctx) = 0;
  virtual CqaVerdict Possible(const AnswerProvenance& prov,
                              ExecContext* ctx) = 0;
  virtual std::optional<CqaCounterexample> Counterexample(
      const AnswerProvenance& prov, ExecContext* ctx) = 0;
};

class RepairSpace {
 public:
  virtual ~RepairSpace() = default;

  /// True when the space is exactly the semantics' repair set; false
  /// when construction was budget-truncated or cancelled.
  bool exact() const { return exact_; }
  /// Cardinality of every repair in the space (uniform by definition).
  /// Meaningful only when exact().
  uint32_t repair_size() const { return repair_size_; }
  /// Number of explicitly enumerated repairs (0 for symbolic spaces).
  virtual uint64_t NumEnumerated() const { return 0; }

  /// Does the answer survive every repair of the space?
  virtual CqaVerdict Certain(const AnswerProvenance& prov,
                             ExecContext* ctx) = 0;
  /// Does the answer survive at least one repair of the space?
  virtual CqaVerdict Possible(const AnswerProvenance& prov,
                              ExecContext* ctx) = 0;
  /// A smallest repair of the space under which no monomial of `prov`
  /// survives, or nullopt when none exists / none was found in budget.
  /// The symbolic space answers via Min-Ones over stability ∧ ¬φ, whose
  /// optimum is also the smallest stabilizing killer overall.
  virtual std::optional<CqaCounterexample> Counterexample(
      const AnswerProvenance& prov, ExecContext* ctx) = 0;

  /// Per-worker judge for parallel evaluation, or nullptr when the
  /// space only supports direct (sequential) calls on its own methods.
  virtual std::unique_ptr<AnswerJudge> NewJudge() { return nullptr; }

  /// Folds construction + entailment work counters into `stats`
  /// (satisfies the CLI contract that sat_solve_calls etc. cover CQA
  /// entailment calls, not just Min-Ones).
  virtual void AddStats(RepairStats* stats) const { stats->Add(stats_); }
  /// Folds the slicing layer's counters into `stats` (no-op for spaces
  /// without one).
  virtual void AddSliceStats(SliceStats* stats) const { (void)stats; }

 protected:
  bool exact_ = true;
  uint32_t repair_size_ = 0;
  RepairStats stats_;
};

/// Explicit repairs (end/stage singletons, step argmin outcomes).
/// Repair spaces are never empty (every semantics outputs at least one
/// repair); an empty `repairs` list is treated as truncated
/// construction and forces the space inexact regardless of `exact`.
class EnumeratedRepairSpace : public RepairSpace {
 public:
  EnumeratedRepairSpace(std::vector<std::vector<TupleId>> repairs,
                        bool exact, RepairStats stats);

  uint64_t NumEnumerated() const override { return repairs_.size(); }
  CqaVerdict Certain(const AnswerProvenance& prov,
                     ExecContext* ctx) override;
  CqaVerdict Possible(const AnswerProvenance& prov,
                      ExecContext* ctx) override;
  std::optional<CqaCounterexample> Counterexample(
      const AnswerProvenance& prov, ExecContext* ctx) override;

  const std::vector<std::vector<TupleId>>& repairs() const {
    return repairs_;
  }

 private:
  /// True when some monomial of `prov` is disjoint from repair `i`.
  bool Survives(const AnswerProvenance& prov, size_t i) const;

  std::vector<std::vector<TupleId>> repairs_;        // each sorted
  std::vector<std::unordered_set<uint64_t>> packed_;  // per repair
};

/// The independent space over one StabilityModel. Per-answer verdicts
/// run through SlicedJudge (cqa/entailment.h) on the answer's memoized
/// cone slice, on fresh throwaway solvers — thread-safe and
/// deterministic. The cold space owns a model built for the request;
/// the warm engine passes in the model of its current database version.
/// Either way the space keeps the view and program the model describes:
/// counterexamples beyond the minimum extend the model's closure over
/// them, concurrently from several judges, so the view's state must not
/// change while the space serves requests.
class SymbolicRepairSpace : public RepairSpace {
 public:
  /// Builds a fresh model over the view's current state. Reads ctx for
  /// budget/cancel; on truncation the space is inexact.
  SymbolicRepairSpace(InstanceView* view, const Program& program,
                      const RepairOptions& options, ExecContext* ctx);
  /// Serves a prebuilt model of `view`'s current state; nullptr makes the
  /// space inexact.
  SymbolicRepairSpace(std::shared_ptr<const StabilityModel> model,
                      InstanceView* view, const Program& program,
                      const MinOnesOptions& min_ones_options);

  /// Direct calls delegate to a temporary judge.
  CqaVerdict Certain(const AnswerProvenance& prov,
                     ExecContext* ctx) override;
  CqaVerdict Possible(const AnswerProvenance& prov,
                      ExecContext* ctx) override;
  std::optional<CqaCounterexample> Counterexample(
      const AnswerProvenance& prov, ExecContext* ctx) override;

  std::unique_ptr<AnswerJudge> NewJudge() override;

  /// This request's judge counters plus the model's build-side counters
  /// (for a warm model: since it was built for its version).
  void AddSliceStats(SliceStats* stats) const override;

 private:
  friend class SlicedJudge;

  void SetModel(std::shared_ptr<const StabilityModel> model);

  std::shared_ptr<const StabilityModel> model_;
  InstanceView* view_;
  const Program& program_;
  MinOnesOptions min_ones_options_;

  mutable std::mutex stats_mu_;  // judges flush counters concurrently
  SliceStats slice_stats_;
};

/// Builds the repair space of one semantics over the view's current
/// state. The builder may scratch-mutate the view; the caller owns
/// snapshot/restore (CQA evaluation restores after building).
using RepairSpaceBuilder =
    std::function<std::unique_ptr<RepairSpace>(
        InstanceView* view, const Program& program,
        const RepairOptions& options, ExecContext* ctx)>;

/// Semantics name -> repair-space builder. Built-ins for the paper's
/// four semantics are registered on first use; additional semantics
/// register alongside their Semantics entry (thread-safe).
class CqaRegistry {
 public:
  static CqaRegistry& Global();

  /// `semantics_name` must be a primary SemanticsRegistry name.
  Status Register(std::string semantics_name, RepairSpaceBuilder builder);

  /// Lookup by semantics name or alias (aliases resolve through
  /// SemanticsRegistry); kNotFound when the semantics exists but has no
  /// CQA space provider, or does not exist at all.
  StatusOr<const RepairSpaceBuilder*> Get(const std::string& name) const;

 private:
  CqaRegistry();

  mutable std::mutex mu_;
  std::unordered_map<std::string, RepairSpaceBuilder> by_name_;
};

}  // namespace deltarepair

#endif  // DELTAREPAIR_CQA_REPAIR_SPACE_H_
