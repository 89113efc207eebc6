#include "repair/step_semantics.h"

#include <algorithm>
#include <memory>

#include "common/hash.h"
#include "common/timer.h"
#include "provenance/prov_graph.h"
#include "repair/fixpoint.h"
#include "repair/stability.h"

namespace deltarepair {

namespace {

/// Greedy traversal state over the provenance graph (Algorithm 2 lines
/// 4-9). A delta node dies ("is pruned") when every assignment deriving it
/// is dead; an assignment dies when it uses a chosen tuple as a non-self
/// base tuple, or a pruned delta tuple. Chosen tuples' own delta nodes are
/// never pruned — they are exactly what remains at the end. All state is
/// in arrays indexed by node or assignment id.
class GreedyTraversal {
 public:
  GreedyTraversal(const ProvenanceGraph& graph, StepOrdering ordering,
                  uint64_t seed)
      : graph_(graph), ordering_(ordering), seed_(seed) {
    const uint32_t n = static_cast<uint32_t>(graph.num_delta_nodes());
    live_derivations_.resize(n);
    for (uint32_t node = 0; node < n; ++node) {
      live_derivations_[node] =
          static_cast<uint32_t>(graph.Derivations(node).size());
    }
    assignment_dead_.assign(graph.num_assignments(), 0);
    chosen_.assign(n, 0);
    pruned_.assign(n, 0);
  }

  std::vector<TupleId> Run(ExecContext* ctx) {
    // Visit order: layer by layer; within a layer max benefit first, then
    // smallest tuple id (determinism). Benefits are fixed up front, so
    // one sort replaces a per-layer heap with lazy invalidation.
    struct Entry {
      int layer;
      int64_t key;
      uint64_t packed;
      uint32_t node;
    };
    std::vector<Entry> order;
    order.reserve(graph_.num_delta_nodes());
    for (uint32_t node = 0; node < graph_.num_delta_nodes(); ++node) {
      const uint64_t packed = graph_.node_tuple(node).Pack();
      // Ablation: arbitrary ordering ranks everything equally (smallest
      // id order), or — under a nonzero seed — by a seeded hash, i.e. a
      // reproducible shuffle.
      int64_t key;
      if (ordering_ == StepOrdering::kMaxBenefit) {
        key = graph_.Benefit(node);
      } else if (seed_ != 0) {
        key = static_cast<int64_t>(Mix64(packed ^ seed_) >> 1);
      } else {
        key = 0;
      }
      order.push_back(Entry{graph_.node_layer(node), key, packed, node});
    }
    std::sort(order.begin(), order.end(), [](const Entry& a, const Entry& b) {
      if (a.layer != b.layer) return a.layer < b.layer;
      if (a.key != b.key) return a.key > b.key;
      return a.packed < b.packed;
    });
    for (const Entry& e : order) {
      if (ctx->Tick()) break;
      if (pruned_[e.node] || chosen_[e.node]) continue;
      Choose(e.node);
    }
    std::vector<TupleId> out;
    for (uint32_t node = 0; node < chosen_.size(); ++node) {
      if (chosen_[node]) out.push_back(graph_.node_tuple(node));
    }
    return out;
  }

 private:
  void Choose(uint32_t node) {
    chosen_[node] = 1;
    // Assignments using t as a base tuple die — except those deriving
    // ∆(t) itself (the "t' != tk" exception of line 9).
    for (uint32_t id : graph_.BaseUses(node)) {
      if (graph_.head_node(id) == node) continue;
      KillAssignment(id);
    }
  }

  void KillAssignment(uint32_t id) {
    if (assignment_dead_[id]) return;
    assignment_dead_[id] = 1;
    const uint32_t head = graph_.head_node(id);
    if (chosen_[head]) return;  // chosen nodes are never pruned
    if (--live_derivations_[head] == 0) PruneNode(head);
  }

  void PruneNode(uint32_t node) {
    if (pruned_[node]) return;
    pruned_[node] = 1;
    // ∆(t') is no longer derivable: assignments consuming it die too.
    for (uint32_t id : graph_.DeltaUses(node)) KillAssignment(id);
  }

  const ProvenanceGraph& graph_;
  StepOrdering ordering_;
  uint64_t seed_;
  std::vector<uint32_t> live_derivations_;  // per node
  std::vector<uint8_t> assignment_dead_;    // per assignment
  std::vector<uint8_t> chosen_;             // per node: in S
  std::vector<uint8_t> pruned_;             // per node
};

}  // namespace

RepairResult StepSemantics::Run(InstanceView* view, const Program& program,
                                const RepairOptions& options,
                                ExecContext* ctx) const {
  WallTimer total;
  RepairResult result;
  result.semantics = SemanticsKind::kStep;

  // Phase 1 (Eval): end-semantics evaluation with provenance recording.
  InstanceView::State snapshot = view->SaveState();
  ProvenanceGraph graph;
  {
    ScopedTimer t(&result.stats.eval_seconds);
    RunSemiNaiveFixpoint(view, program, /*delete_between_rounds=*/false,
                         &graph, &result.stats, ctx);
  }
  view->RestoreState(snapshot);

  // Phase 2 (Process Prov): traversal state construction.
  result.stats.graph_nodes = graph.num_delta_nodes();
  result.stats.graph_layers = static_cast<uint64_t>(graph.num_layers());
  std::unique_ptr<GreedyTraversal> traversal;
  {
    ScopedTimer t(&result.stats.process_prov_seconds);
    traversal = std::make_unique<GreedyTraversal>(graph,
                                                  options.step.ordering,
                                                  options.seed);
  }

  // Phase 3 (Traverse): greedy max-benefit selection per layer. On an
  // interrupted run the traversal covers a prefix of the layers only.
  {
    ScopedTimer t(&result.stats.traverse_seconds);
    result.deleted = traversal->Run(ctx);
  }
  traversal.reset();

  for (const TupleId& t : result.deleted) view->MarkDeleted(t);
  if (ctx->stopped() &&
      ctx->reason() == TerminationReason::kBudgetExhausted) {
    // Interrupted mid-derivation or mid-traversal: the chosen prefix need
    // not stabilize on its own; degrade to the anytime fallback.
    TrivialStabilizingCompletion(view, program, &result);
  }
  CanonicalizeResult(&result);
  result.stats.optimal = false;  // greedy heuristic: minimal, not certified
  result.stats.total_seconds = total.ElapsedSeconds();
  return result;
}

}  // namespace deltarepair
