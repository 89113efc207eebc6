#include "repair/explain.h"

#include "common/string_util.h"

namespace deltarepair {

namespace {

/// Depth-first construction; emits steps in dependency order. `visited`
/// is indexed by delta node.
bool Explain(const ProvenanceGraph& graph, TupleId t,
             std::vector<uint8_t>* visited, Explanation* out) {
  const uint32_t node = graph.FindDeltaNode(t);
  if (node == ProvenanceGraph::kNoNode) return false;
  if ((*visited)[node]) return true;  // already explained
  (*visited)[node] = 1;
  // The first recorded derivation is the earliest (lowest layer): a
  // minimal-depth proof under semi-naive evaluation.
  const uint32_t a = graph.Derivations(node).front();
  ExplanationStep step;
  step.rule_index = graph.rule_index(a);
  step.derived = t;
  for (size_t i = 0; i < graph.body_size(a); ++i) {
    if (graph.body_is_delta(a, i)) {
      step.deltas.push_back(graph.body(a, i));
    } else {
      step.bases.push_back(graph.body(a, i));
    }
  }
  // Explain supporting deletions first (dependency order).
  for (const TupleId& d : step.deltas) {
    if (!Explain(graph, d, visited, out)) return false;
  }
  out->steps.push_back(std::move(step));
  return true;
}

}  // namespace

std::optional<Explanation> ExplainDeletion(const ProvenanceGraph& graph,
                                           TupleId t) {
  Explanation out;
  std::vector<uint8_t> visited(graph.num_delta_nodes(), 0);
  if (!Explain(graph, t, &visited, &out)) return std::nullopt;
  return out;
}

std::string RenderExplanation(const Database& db,
                              const Explanation& explanation) {
  std::string out;
  for (const ExplanationStep& step : explanation.steps) {
    out += StrFormat("%s deleted by rule %d",
                     db.TupleToStr(step.derived).c_str(), step.rule_index);
    if (!step.bases.empty()) {
      out += " using [";
      for (size_t i = 0; i < step.bases.size(); ++i) {
        if (i) out += ", ";
        out += db.TupleToStr(step.bases[i]);
      }
      out += "]";
    }
    if (!step.deltas.empty()) {
      out += " and deletions [";
      for (size_t i = 0; i < step.deltas.size(); ++i) {
        if (i) out += ", ";
        out += "~" + db.TupleToStr(step.deltas[i]);
      }
      out += "]";
    }
    out += "\n";
  }
  return out;
}

}  // namespace deltarepair
