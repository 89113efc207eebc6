#include "cqa/cqa.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "common/timer.h"
#include "obs/trace.h"
#include "relation/instance_view.h"

namespace deltarepair {

namespace {

/// One answer's pending verdict work (parallel evaluation slot).
struct AnswerTask {
  const Tuple* values = nullptr;
  const AnswerProvenance* prov = nullptr;
  CqaVerdict certain{false, false};
  CqaVerdict possible{true, false};
  std::optional<CqaCounterexample> cex;
};

/// Converts one finished task into its CqaAnswer and folds the
/// per-answer counters (sequential tail — keeps result order sorted).
void AppendAnswer(const CqaRequest& request, AnswerTask& task,
                  CqaResult* result) {
  CqaAnswer answer;
  answer.values = *task.values;
  answer.derivations = task.prov->monomials.size();
  result->stats.monomials += task.prov->monomials.size();
  answer.certain = task.certain.holds;
  answer.certain_decided = task.certain.decided;
  answer.possible = task.possible.holds;
  answer.possible_decided = task.possible.decided;
  answer.decided = (task.certain.decided || !request.certain) &&
                   (task.possible.decided || !request.possible);
  if (task.cex.has_value()) {
    answer.counterexample = std::move(task.cex->deleted);
    answer.counterexample_minimal = task.cex->minimal;
  }
  if (answer.certain) ++result->stats.certain_answers;
  if (answer.possible) ++result->stats.possible_answers;
  if (!answer.decided) ++result->stats.undecided_answers;
  result->answers.push_back(std::move(answer));
}

/// The per-answer verdict protocol, identical on every path: the
/// requested solver checks with the free implications (certain ⇒
/// possible, impossible ⇒ not certain), then the annotate
/// counterexample for non-certain answers.
template <typename Judge>
void EvaluateTask(const CqaRequest& request, Judge* judge, AnswerTask* task,
                  ExecContext* ctx) {
  Span span("cqa.judge_answer");
  span.SetArg("derivations", task->prov->monomials.size());
  if (request.certain) {
    task->certain = judge->Certain(*task->prov, ctx);
  }
  if (task->certain.decided && task->certain.holds) {
    // Certain implies possible (repair spaces are non-empty).
    task->possible = {true, true};
  }
  if (request.possible && !task->possible.decided) {
    task->possible = judge->Possible(*task->prov, ctx);
  }
  if (task->possible.decided && !task->possible.holds &&
      !task->certain.decided) {
    // Impossible answers are never certain.
    task->certain = {false, true};
  }
  if (request.annotate &&
      !(task->certain.decided && task->certain.holds)) {
    task->cex = judge->Counterexample(*task->prov, ctx);
  }
}

/// Phase 3, shared by the cold and warm paths: per-answer verdicts in
/// deterministic (sorted) order. When the space hands out judges and
/// options.threads > 1, the solver work fans out across workers (each
/// with its own judge); the answer list stays in sorted order, so the
/// report is identical to the sequential path.
void EvaluateAnswers(const CqaRequest& request,
                     std::map<Tuple, AnswerProvenance>& grounded,
                     RepairSpace* space, ExecContext* ctx,
                     CqaResult* result) {
  Span entail_span("cqa.entail");
  entail_span.SetArg("answers", grounded.size());
  ScopedTimer t(&result->stats.entail_seconds);
  result->answers.reserve(grounded.size());

  std::unique_ptr<AnswerJudge> main_judge = space->NewJudge();
  if (main_judge == nullptr) {
    // Enumerated spaces: direct sequential calls on the space.
    for (auto& [values, prov] : grounded) {
      AnswerTask task;
      task.values = &values;
      task.prov = &prov;
      EvaluateTask(request, space, &task, ctx);
      AppendAnswer(request, task, result);
    }
    return;
  }

  // Judge-based evaluation: one task slot per answer, in sorted order.
  std::vector<AnswerTask> tasks;
  tasks.reserve(grounded.size());
  for (auto& [values, prov] : grounded) {
    AnswerTask task;
    task.values = &values;
    task.prov = &prov;
    tasks.push_back(std::move(task));
  }

  size_t workers =
      request.options.threads > 1
          ? std::min<size_t>(request.options.threads, tasks.size())
          : 1;
  if (workers <= 1) {
    for (AnswerTask& task : tasks) {
      EvaluateTask(request, main_judge.get(), &task, ctx);
    }
  } else {
    // Fan the solver work out: workers claim tasks by atomic index,
    // each with its own judge and an ExecContext slaved to the main
    // budget/token. Verdicts land in their task slots; everything
    // order-sensitive happens after the join.
    double remaining = ctx->RemainingSeconds();
    RepairOptions worker_options = request.options;
    worker_options.budget_seconds =
        std::isinf(remaining) ? 0 : std::max(remaining, 1e-9);
    std::atomic<size_t> next{0};
    const uint64_t parent_trace_id = Trace::CurrentTraceId();
    auto work = [&, parent_trace_id]() {
      TraceIdScope trace_scope(parent_trace_id);
      std::unique_ptr<AnswerJudge> judge = space->NewJudge();
      ExecContext worker_ctx(worker_options);
      for (;;) {
        size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= tasks.size()) break;
        EvaluateTask(request, judge.get(), &tasks[i], &worker_ctx);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (size_t w = 0; w < workers; ++w) pool.emplace_back(work);
    for (std::thread& th : pool) th.join();
    ctx->ShouldStop();  // latch a budget/cancel that tripped meanwhile
  }

  // Sequential tail: the answer list, in sorted order.
  for (AnswerTask& task : tasks) AppendAnswer(request, task, result);
}

/// The sequential core: evaluates one request on `view` (restoring its
/// state before returning).
CqaResult AnswerQueryOnView(InstanceView* view, const Program& program,
                            const CqaRequest& request) {
  Span span("cqa.answer_query");
  WallTimer total;
  CqaResult result;

  StatusOr<const Semantics*> semantics =
      SemanticsRegistry::Global().Get(request.semantics);
  if (!semantics.ok()) {
    result.status = semantics.status();
    result.termination = TerminationReason::kInvalidProgram;
    return result;
  }
  result.semantics = semantics.value()->name();
  result.kind = semantics.value()->kind();
  StatusOr<const RepairSpaceBuilder*> builder =
      CqaRegistry::Global().Get(request.semantics);
  if (!builder.ok()) {
    result.status = builder.status();
    result.termination = TerminationReason::kInvalidProgram;
    return result;
  }
  StatusOr<Query> query = ParseQuery(request.query);
  if (!query.ok()) {
    result.status = query.status();
    result.termination = TerminationReason::kInvalidProgram;
    return result;
  }
  Status resolved = ResolveQuery(&query.value(), view->db());
  if (!resolved.ok()) {
    result.status = resolved;
    result.termination = TerminationReason::kInvalidProgram;
    return result;
  }
  result.query_head = query.value().head_name;

  ExecContext ctx(request.options);
  InstanceView::State snapshot = view->SaveState();

  // Phase 1: ground the query over the live instance. Monotonicity
  // makes Q(D) a superset of every repair's answer set, and each
  // answer's monomials are its survival DNF.
  std::map<Tuple, AnswerProvenance> grounded;
  {
    Span span("cqa.ground_query");
    ScopedTimer t(&result.stats.ground_seconds);
    grounded = GroundQuery(view, query.value(), &ctx);
  }

  // Phase 2: the semantics' repair space (builders may scratch-mutate
  // the view; restore to the grounding state afterwards).
  std::unique_ptr<RepairSpace> space;
  {
    Span span("cqa.build_space");
    ScopedTimer t(&result.stats.space_seconds);
    space = (*builder.value())(view, program, request.options, &ctx);
    view->RestoreState(snapshot);
  }
  result.stats.space_repairs = space->NumEnumerated();
  result.stats.repair_size = space->repair_size();
  result.stats.space_exact = space->exact();

  // Phase 3: per-answer verdicts, in deterministic (sorted) order.
  EvaluateAnswers(request, grounded, space.get(), &ctx, &result);
  space->AddStats(&result.stats.repair);
  space->AddSliceStats(&result.stats.slice);

  view->RestoreState(snapshot);
  result.stats.answers = result.answers.size();
  result.termination = ctx.reason();
  if (result.termination == TerminationReason::kComplete &&
      !result.stats.space_exact) {
    // An internal cap (the step space's state budget, the Min-Ones
    // work/time limits) truncated the space without tripping the
    // request's own budget; a kComplete report would claim verdicts
    // this run never proved.
    result.termination = TerminationReason::kBudgetExhausted;
  }
  result.stats.total_seconds = total.ElapsedSeconds();
  return result;
}

}  // namespace

CqaResult AnswerQueryWithSpace(InstanceView* view, const CqaRequest& request,
                               RepairSpace* space) {
  Span span("cqa.answer_query_warm");
  WallTimer total;
  CqaResult result;

  StatusOr<const Semantics*> semantics =
      SemanticsRegistry::Global().Get(request.semantics);
  if (!semantics.ok()) {
    result.status = semantics.status();
    result.termination = TerminationReason::kInvalidProgram;
    return result;
  }
  result.semantics = semantics.value()->name();
  result.kind = semantics.value()->kind();
  StatusOr<Query> query = ParseQuery(request.query);
  if (!query.ok()) {
    result.status = query.status();
    result.termination = TerminationReason::kInvalidProgram;
    return result;
  }
  Status resolved = ResolveQuery(&query.value(), view->db());
  if (!resolved.ok()) {
    result.status = resolved;
    result.termination = TerminationReason::kInvalidProgram;
    return result;
  }
  result.query_head = query.value().head_name;

  ExecContext ctx(request.options);

  // Grounding still runs fresh — it is cheap next to space
  // construction, which is exactly what the warm path amortizes.
  std::map<Tuple, AnswerProvenance> grounded;
  {
    Span ground_span("cqa.ground_query");
    ScopedTimer t(&result.stats.ground_seconds);
    grounded = GroundQuery(view, query.value(), &ctx);
  }
  result.stats.space_repairs = space->NumEnumerated();
  result.stats.repair_size = space->repair_size();
  result.stats.space_exact = space->exact();

  EvaluateAnswers(request, grounded, space, &ctx, &result);
  space->AddStats(&result.stats.repair);
  space->AddSliceStats(&result.stats.slice);

  result.stats.answers = result.answers.size();
  result.termination = ctx.reason();
  if (result.termination == TerminationReason::kComplete &&
      !result.stats.space_exact) {
    result.termination = TerminationReason::kBudgetExhausted;
  }
  result.stats.total_seconds = total.ElapsedSeconds();
  return result;
}

std::vector<Tuple> CqaResult::CertainAnswers() const {
  std::vector<Tuple> out;
  for (const CqaAnswer& a : answers) {
    if (a.certain) out.push_back(a.values);
  }
  return out;
}

std::vector<Tuple> CqaResult::PossibleAnswers() const {
  std::vector<Tuple> out;
  for (const CqaAnswer& a : answers) {
    if (a.possible) out.push_back(a.values);
  }
  return out;
}

CqaResult AnswerQuery(RepairEngine* engine, const CqaRequest& request) {
  return AnswerQueryOnView(&engine->db()->base_view(), engine->program(),
                           request);
}

CqaResult AnswerQueryOnSnapshot(RepairEngine* engine,
                                const CqaRequest& request) {
  InstanceView view = engine->db()->SnapshotView();
  return AnswerQueryOnView(&view, engine->program(), request);
}

std::vector<CqaResult> AnswerQueryBatch(
    RepairEngine* engine, const std::vector<CqaRequest>& requests) {
  int threads = engine->default_options().threads;
  for (const CqaRequest& request : requests) {
    threads = std::max(threads, request.options.threads);
  }
  return AnswerQueryBatch(engine, requests, threads);
}

std::vector<CqaResult> AnswerQueryBatch(
    RepairEngine* engine, const std::vector<CqaRequest>& requests,
    int num_threads) {
  std::vector<CqaResult> out(requests.size());
  if (requests.empty()) return out;
  size_t workers = num_threads > 1 ? static_cast<size_t>(num_threads) : 1;
  workers = std::min(workers, requests.size());

  // Same backbone as RepairEngine::RunBatch: thread-local snapshot
  // views over shared storage, dynamic request claiming, outcomes in
  // request order.
  std::atomic<size_t> next{0};
  auto work = [&]() {
    InstanceView view = engine->db()->SnapshotView();
    for (;;) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= requests.size()) break;
      if (workers > 1 && requests[i].options.threads > 1) {
        // The thread budget is spent on batch workers; a per-request
        // entailment worker pool on top would oversubscribe them.
        CqaRequest clamped = requests[i];
        clamped.options.threads = 1;
        out[i] = AnswerQueryOnView(&view, engine->program(), clamped);
      } else {
        out[i] = AnswerQueryOnView(&view, engine->program(), requests[i]);
      }
    }
  };

  if (workers <= 1) {
    work();
    return out;
  }
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (size_t w = 0; w < workers; ++w) pool.emplace_back(work);
  for (std::thread& t : pool) t.join();
  return out;
}

}  // namespace deltarepair
