#include "repair/stability_model.h"

#include <algorithm>

#include "common/timer.h"
#include "obs/trace.h"

namespace deltarepair {

namespace {

std::vector<uint64_t> PackedIds(const std::vector<TupleId>& tuples) {
  std::vector<uint64_t> ids;
  ids.reserve(tuples.size());
  for (const TupleId& t : tuples) ids.push_back(t.Pack());
  return ids;
}

}  // namespace

StabilityModel::StabilityModel(Cnf cnf, std::vector<TupleId> tuples,
                               const std::vector<bool>& min_model,
                               VarLookup var_of)
    : cnf_(std::move(cnf)),
      tuples_(std::move(tuples)),
      var_of_(std::move(var_of)),
      optimum_(static_cast<uint32_t>(
          std::count(min_model.begin(), min_model.end(), true))),
      slicer_(cnf_, min_model, PackedIds(tuples_)) {}

ReachableEval::ReachableEval(InstanceView* view, const Program& program)
    : program_(program),
      grounder_(view),
      marks_(view->num_relations()),
      frontier_(view->num_relations()) {
  for (uint32_t rel = 0; rel < marks_.size(); ++rel) {
    marks_[rel].assign(view->rel(rel).num_rows(), 0);
  }
}

void ReachableEval::MarkGrounded(TupleId t) {
  mark(t) = 1;
  round_ = 2;
}

void ReachableEval::Seed(TupleId t) {
  if (mark(t) == 0) Reach(t);
}

void ReachableEval::Reach(TupleId t) {
  mark(t) = round_;
  frontier_[t.relation].push_back(t.row);
}

bool ReachableEval::Accept(const GroundAssignment& ga,
                           const AssignmentCallback& emit) {
  ++assignments_;
  const std::vector<Atom>& body = ga.rule->body;
  for (size_t j = 0; j < body.size(); ++j) {
    if (!body[j].is_delta && mark(ga.body[j]) == 0) Reach(ga.body[j]);
  }
  return emit(ga);
}

bool ReachableEval::Run(bool delta_free_round, const AssignmentCallback& emit,
                        ExecContext* ctx) {
  const std::vector<Rule>& rules = program_.rules();
  auto has_delta = [](const Rule& rule) {
    return std::any_of(rule.body.begin(), rule.body.end(),
                       [](const Atom& a) { return a.is_delta; });
  };
  bool ok = true;
  if (delta_free_round) {
    ++rounds_;
    for (size_t r = 0; r < rules.size() && ok; ++r) {
      if (has_delta(rules[r])) continue;
      ok = grounder_.EnumerateRule(
          rules[r], static_cast<int>(r), BaseMatch::kLive,
          DeltaMatch::kHypothetical, [&](const GroundAssignment& ga) {
            return !ctx->Tick() && Accept(ga, emit);
          });
    }
  }
  std::vector<std::vector<uint32_t>> pivots(frontier_.size());
  auto frontier_empty = [this] {
    return std::all_of(frontier_.begin(), frontier_.end(),
                       [](const std::vector<uint32_t>& f) { return f.empty(); });
  };
  while (ok && !frontier_empty()) {
    // Round k pivots on the rows marked k; rows reached meanwhile are
    // marked k + 1 and wait for the next round.
    const uint32_t k = round_++;
    ++rounds_;
    pivots.swap(frontier_);
    for (std::vector<uint32_t>& rows : pivots) {
      std::sort(rows.begin(), rows.end());
    }
    for (size_t r = 0; r < rules.size() && ok; ++r) {
      const std::vector<Atom>& body = rules[r].body;
      for (size_t i = 0; i < body.size() && ok; ++i) {
        if (!body[i].is_delta) continue;
        const std::vector<uint32_t>& rows = pivots[body[i].relation_index];
        if (rows.empty()) continue;
        ok = grounder_.EnumerateRule(
            rules[r], static_cast<int>(r), BaseMatch::kLive,
            DeltaMatch::kHypothetical,
            [&](const GroundAssignment& ga) {
              if (ctx->Tick()) return false;
              // An assignment with several frontier rows at delta atoms
              // is emitted at the first of them.
              for (size_t j = 0; j < body.size(); ++j) {
                if (j == i || !body[j].is_delta) continue;
                const uint32_t m = mark(ga.body[j]);
                if (m == 0 || m > k || (j < i && m == k)) return true;
              }
              return Accept(ga, emit);
            },
            static_cast<int>(i), &rows);
      }
    }
    for (std::vector<uint32_t>& rows : pivots) rows.clear();
  }
  return ok && !ctx->stopped();
}

bool SolveStability(InstanceView* view, const Program& program,
                    const MinOnesOptions& options, ExecContext* ctx,
                    DeletionCnfBuilder* builder, MinOnesResult* solved,
                    RepairStats* stats) {
  // Phase 1 (Eval): enumerate the reachable hypothetical assignments
  // (line 1 of Algorithm 1, restricted as ReachableEval describes) and
  // store them as raw provenance — flat, so the Eval and Process Prov
  // phases of Figure 8 stay separately measurable, as in the paper's
  // prototype: per assignment its rule, and its body rows appended to
  // one array (the rule's body length delimits them).
  std::vector<const Rule*> stored_rules;
  std::vector<TupleId> stored_bodies;
  {
    Span span("repair.eval");
    ScopedTimer t(&stats->eval_seconds);
    ReachableEval eval(view, program);
    eval.Run(/*delta_free_round=*/true,
             [&](const GroundAssignment& ga) {
               stored_rules.push_back(ga.rule);
               stored_bodies.insert(stored_bodies.end(), ga.body.begin(),
                                    ga.body.end());
               return true;
             },
             ctx);
    stats->assignments = eval.assignments();
    span.SetArg("assignments", eval.assignments());
    span.SetArg("rounds", eval.rounds());
  }
  if (ctx->stopped()) {
    stats->optimal = false;
    return false;
  }
  return ProcessProvAndSolve(
      [&](Span*) {
        const TupleId* body = stored_bodies.data();
        for (const Rule* rule : stored_rules) {
          if (ctx->Tick()) break;
          builder->AddAssignment(*rule, body);
          body += rule->body.size();
        }
        // Encoded: free the raw provenance before Normalize and Min-Ones
        // allocate their own working memory.
        std::vector<const Rule*>().swap(stored_rules);
        std::vector<TupleId>().swap(stored_bodies);
      },
      options, ctx, builder, solved, stats);
}

bool ProcessProvAndSolve(const std::function<void(Span*)>& encode,
                         const MinOnesOptions& options, ExecContext* ctx,
                         DeletionCnfBuilder* builder, MinOnesResult* solved,
                         RepairStats* stats) {
  // Phase 2 (Process Prov): convert the stored provenance into the negated
  // CNF over deletion variables (lines 2-4), normalized once here.
  {
    Span span("repair.process_prov");
    ScopedTimer t(&stats->process_prov_seconds);
    encode(&span);
    if (!ctx->stopped()) builder->Normalize();
    span.SetArg("clauses", builder->cnf().num_clauses());
    span.SetArg("dup_clauses", builder->normalize_stats().duplicate_clauses);
    span.SetArg("subsumed_clauses",
                builder->normalize_stats().unit_subsumed_clauses);
  }
  if (ctx->stopped()) {
    stats->optimal = false;
    return false;
  }
  stats->cnf_vars = builder->num_vars();
  stats->cnf_clauses = builder->cnf().num_clauses();
  stats->cnf_dup_clauses = builder->normalize_stats().duplicate_clauses;
  stats->cnf_subsumed_clauses =
      builder->normalize_stats().unit_subsumed_clauses;

  // Phase 3 (Solve): Min-Ones SAT (line 5). The remaining wall-clock
  // budget caps the solver's own deadline, and the cancel flag reaches
  // its bounded-search loop; either way the anytime incumbent is a
  // model of the full CNF, i.e. still a stabilizing set.
  {
    ScopedTimer t(&stats->solve_seconds);
    MinOnesOptions solver_options = options;
    solver_options.time_limit_seconds = std::min(
        solver_options.time_limit_seconds, ctx->RemainingSeconds());
    if (ctx->cancel_token() != nullptr) {
      solver_options.cancel = ctx->cancel_token()->flag();
    }
    *solved = MinOnesSat(builder->cnf(), solver_options);
  }
  stats->optimal = solved->optimal;
  stats->AddSolver(solved->solver);
  return true;
}

std::shared_ptr<const StabilityModel> MakeStabilityModel(
    std::shared_ptr<DeletionCnfBuilder> builder,
    const std::vector<bool>& min_model) {
  std::vector<TupleId> tuples(builder->num_vars());
  for (uint32_t v = 0; v < tuples.size(); ++v) {
    tuples[v] = builder->TupleOfVar(v);
  }
  // The model takes the clauses; the builder stays behind only as the
  // tuple -> variable map.
  Cnf cnf = std::move(builder->mutable_cnf());
  return std::make_shared<const StabilityModel>(
      std::move(cnf), std::move(tuples), min_model,
      [builder](TupleId t) { return builder->FindVar(t); });
}

std::shared_ptr<const StabilityModel> BuildStabilityModel(
    InstanceView* view, const Program& program,
    const MinOnesOptions& options, ExecContext* ctx, RepairStats* stats) {
  auto builder = std::make_shared<DeletionCnfBuilder>();
  MinOnesResult solved;
  if (!SolveStability(view, program, options, ctx, builder.get(), &solved,
                      stats) ||
      !solved.satisfiable || !solved.optimal || ctx->ShouldStop()) {
    stats->optimal = false;
    return nullptr;
  }
  return MakeStabilityModel(std::move(builder), solved.model);
}

}  // namespace deltarepair
