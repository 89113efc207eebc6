// Consistent query answering over repair semantics: which answers of a
// monotone query survive repair?
//
// The CqaRequest/CqaResult pair mirrors the RepairRequest/RepairOutcome
// serving surface: a request names a semantics (registry name), carries
// a query, and reuses RepairOptions for budgets, cancellation, solver
// knobs and batch threading. Evaluation grounds the query once over the
// live instance (answers + why-provenance), builds the semantics'
// repair space (cqa/repair_space.h), and decides per answer:
//
//  * certain  — the answer is in Q(D \ S) for *every* repair S;
//  * possible — the answer is in Q(D \ S) for *some* repair S;
//  * annotated mode adds, per non-certain answer, a minimal
//    counterexample deletion set killing it (Min-Ones machinery).
//
// Anytime contract: a budget or cancellation never invalidates emitted
// verdicts. Answers the run could not decide are reported with
// decided=false and the conservative bounds (certain=false,
// possible=true); the result's termination says why — including when
// the truncation came from an internal cap (the step space's state
// budget, the Min-Ones work/time limits) rather than the request's own
// budget, in which case termination reports kBudgetExhausted even
// though options.budget_seconds never tripped. When the budget trips
// during query grounding itself, the answer list may additionally be
// incomplete (kBudgetExhausted/kCancelled signals both cases).
#ifndef DELTAREPAIR_CQA_CQA_H_
#define DELTAREPAIR_CQA_CQA_H_

#include <string>
#include <vector>

#include "cqa/query.h"
#include "cqa/repair_space.h"
#include "repair/repair_engine.h"

namespace deltarepair {

/// One unit of CQA serving traffic.
struct CqaRequest {
  CqaRequest() = default;
  CqaRequest(std::string semantics_name, std::string query_text)
      : semantics(std::move(semantics_name)),
        query(std::move(query_text)) {}

  /// Registry name: "end", "stage", "step", "independent" (or an alias).
  std::string semantics = "independent";
  /// UCQ text (see cqa/query.h for the syntax).
  std::string query;
  /// Which verdicts to compute. Skipping one saves its solver calls;
  /// the skipped flag is reported with its conservative bound and
  /// certain_decided/possible_decided false (unless implied for free by
  /// the other verdict).
  bool certain = true;
  bool possible = true;
  /// Attach a minimal counterexample to every non-certain answer.
  bool annotate = false;
  /// Budget / cancellation / threads / solver knobs (shared shape with
  /// repair requests; step/record_provenance fields are ignored).
  RepairOptions options;
  /// Observability correlation id (0 = none); see RepairRequest.
  uint64_t trace_id = 0;
};

/// Verdicts for one answer tuple of Q(D).
struct CqaAnswer {
  Tuple values;
  bool certain = false;
  bool possible = false;
  /// Per-verdict proof status: false when the verdict was skipped by the
  /// request flags, left undecided by a budget/cancellation or an
  /// inexact repair space — certain/possible then carry the
  /// conservative bounds (certain=false, possible=true). One verdict
  /// can imply the other (certain ⇒ possible, impossible ⇒ not
  /// certain), so a skipped flag may still come back decided for free.
  bool certain_decided = false;
  bool possible_decided = false;
  /// Every verdict the request asked for is proven.
  bool decided = false;
  /// Distinct why-provenance monomials over the live instance.
  uint64_t derivations = 0;
  /// Annotated mode, non-certain answers: a smallest repair of the
  /// space under which the answer disappears (empty when none was
  /// found in budget).
  std::vector<TupleId> counterexample;
  /// True when `counterexample` is provably a minimum-size killing
  /// member of the space (for the independent space: the smallest
  /// stabilizing set killing the answer, proved by Min-Ones).
  bool counterexample_minimal = false;
};

/// Phase timing and work counters of one CQA evaluation.
struct CqaStats {
  double ground_seconds = 0;  // query grounding + provenance
  double space_seconds = 0;   // repair-space construction
  double entail_seconds = 0;  // per-answer certain/possible/annotate
  double total_seconds = 0;

  uint64_t answers = 0;
  uint64_t monomials = 0;        // total distinct monomials
  uint64_t certain_answers = 0;
  uint64_t possible_answers = 0;
  uint64_t undecided_answers = 0;

  /// Repair-space shape: number of explicitly enumerated repairs (0 for
  /// the symbolic independent space), uniform repair cardinality, and
  /// whether the space was exact.
  uint64_t space_repairs = 0;
  uint32_t repair_size = 0;
  bool space_exact = false;

  /// Aggregated engine counters: repair-space construction (grounding,
  /// CNF, Min-Ones) plus every CQA entailment solve — sat_solve_calls
  /// here covers the assumption-based certain/possible checks too.
  RepairStats repair;

  /// Cone-of-influence slicing layer: cone decomposition / slice build
  /// timers split out of space/entail time, slice sizes, how many
  /// solves ran on a slice, and how many counterexamples reran on the
  /// full CNF.
  SliceStats slice;
};

/// Status-or-result shape of one executed CQA request.
struct CqaResult {
  Status status;
  TerminationReason termination = TerminationReason::kComplete;
  std::string semantics;      // resolved primary registry name
  SemanticsKind kind = SemanticsKind::kEnd;
  std::string query_head;     // the query's output predicate
  /// Every answer of Q(D) (a superset of every repair's answers, by
  /// monotonicity), sorted by value; verdicts per CqaRequest flags.
  std::vector<CqaAnswer> answers;
  CqaStats stats;

  bool ok() const { return status.ok(); }

  /// Convenience extraction of the verdict sets.
  std::vector<Tuple> CertainAnswers() const;
  std::vector<Tuple> PossibleAnswers() const;
};

/// Executes one CQA request against the engine's resolved program and
/// canonical database state. The state is restored afterwards (CQA
/// never applies repairs).
CqaResult AnswerQuery(RepairEngine* engine, const CqaRequest& request);

/// Warm-path entry: evaluates `request` on the view's current live
/// state against a caller-prepared repair space (borrowed, not owned —
/// IncrementalEngine builds it once per database version; the cold entry
/// points above build spaces from the CqaRegistry per request instead).
/// The query is still parsed, resolved and grounded fresh, and every
/// answer is judged against the space. The view is only read.
CqaResult AnswerQueryWithSpace(InstanceView* view, const CqaRequest& request,
                               RepairSpace* space);

/// Executes one CQA request on a fresh snapshot view of the canonical
/// state, leaving it untouched. Safe to call from many threads at once
/// as long as nothing mutates storage or the canonical state meanwhile
/// — the server's concurrent read path.
CqaResult AnswerQueryOnSnapshot(RepairEngine* engine,
                                const CqaRequest& request);

/// Executes many CQA requests, each against the same initial state.
/// Worker count: the maximum options.threads across the requests
/// (fallback engine default); <= 1 runs sequentially. Workers evaluate
/// on thread-local snapshot views over shared storage, so outcomes are
/// order-preserving and — unbudgeted, uncancelled — identical to the
/// sequential path.
std::vector<CqaResult> AnswerQueryBatch(RepairEngine* engine,
                                        const std::vector<CqaRequest>& requests);
std::vector<CqaResult> AnswerQueryBatch(RepairEngine* engine,
                                        const std::vector<CqaRequest>& requests,
                                        int num_threads);

}  // namespace deltarepair

#endif  // DELTAREPAIR_CQA_CQA_H_
