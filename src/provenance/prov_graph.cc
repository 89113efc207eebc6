#include "provenance/prov_graph.h"

#include <algorithm>

#include "common/string_util.h"

namespace deltarepair {

namespace {

uint64_t AssignmentKey(const GroundAssignment& ga) {
  uint64_t h = Mix64(static_cast<uint64_t>(ga.rule_index) + 0x5151);
  for (const TupleId& t : ga.body) h = HashCombine(h, t.Pack());
  return h;
}

/// Turns per-node counts (stored at index node+1) into CSR offsets.
void PrefixSum(std::vector<uint32_t>* begin) {
  for (size_t i = 1; i < begin->size(); ++i) (*begin)[i] += (*begin)[i - 1];
}

}  // namespace

int64_t ProvenanceGraph::AddAssignment(const GroundAssignment& ga, int layer) {
  DR_CHECK_MSG(ga.rule != nullptr && ga.rule_index >= 0,
               "provenance needs a delta rule");
  const uint64_t key = AssignmentKey(ga);
  for (uint32_t id = dedupe_.Head(key); id != RowHashTable::kNone;
       id = dedupe_.Next(id)) {
    if (rule_of_[id] == ga.rule_index && body_size(id) == ga.body.size() &&
        std::equal(ga.body.begin(), ga.body.end(),
                   bodies_.begin() + body_begin_[id])) {
      // Duplicate derivation found in a later round: the layer of the
      // head stays the earliest round, which callers ensure by recording
      // rounds in order.
      return -1;
    }
  }
  const uint32_t id = static_cast<uint32_t>(num_assignments());
  dedupe_.Add(key, id);
  const size_t rule = static_cast<size_t>(ga.rule_index);
  if (rule >= rule_delta_.size()) rule_delta_.resize(rule + 1);
  if (rule_delta_[rule].empty()) {
    for (const Atom& atom : ga.rule->body) {
      rule_delta_[rule].push_back(atom.is_delta ? 1 : 0);
    }
  }
  DR_CHECK_MSG(rule_delta_[rule].size() == ga.body.size(),
               "assignment does not match its rule");
  bodies_.insert(bodies_.end(), ga.body.begin(), ga.body.end());
  body_begin_.push_back(static_cast<uint32_t>(bodies_.size()));
  rule_of_.push_back(ga.rule_index);
  head_node_.push_back(InternNode(ga.head, layer));
  return id;
}

uint32_t ProvenanceGraph::InternNode(TupleId t, int layer) {
  if (t.relation >= node_of_.size()) node_of_.resize(t.relation + 1);
  std::vector<uint32_t>& rows = node_of_[t.relation];
  if (t.row >= rows.size()) rows.resize(t.row + 1, kNoNode);
  if (rows[t.row] != kNoNode) return rows[t.row];
  const uint32_t n = static_cast<uint32_t>(node_tuple_.size());
  rows[t.row] = n;
  node_tuple_.push_back(t);
  node_layer_.push_back(layer);
  num_layers_ = std::max(num_layers_, layer);
  return n;
}

uint32_t ProvenanceGraph::FindDeltaNode(TupleId t) const {
  if (t.relation >= node_of_.size()) return kNoNode;
  const std::vector<uint32_t>& rows = node_of_[t.relation];
  return t.row < rows.size() ? rows[t.row] : kNoNode;
}

void ProvenanceGraph::EnsureCsr() const {
  const size_t m = num_assignments();
  const size_t n = num_delta_nodes();
  if (csr_assignments_ == m && deriv_begin_.size() == n + 1) return;
  // Pass 1: count per node, remembering each body entry's node.
  std::vector<uint32_t> entry_node(bodies_.size());
  deriv_begin_.assign(n + 1, 0);
  base_begin_.assign(n + 1, 0);
  delta_begin_.assign(n + 1, 0);
  for (uint32_t a = 0; a < m; ++a) {
    ++deriv_begin_[head_node_[a] + 1];
    const std::vector<uint8_t>& is_delta = rule_delta_[rule_of_[a]];
    for (uint32_t k = body_begin_[a]; k < body_begin_[a + 1]; ++k) {
      const uint32_t node = FindDeltaNode(bodies_[k]);
      entry_node[k] = node;
      if (node == kNoNode) continue;
      ++(is_delta[k - body_begin_[a]] ? delta_begin_ : base_begin_)[node + 1];
    }
  }
  PrefixSum(&deriv_begin_);
  PrefixSum(&base_begin_);
  PrefixSum(&delta_begin_);
  // Pass 2: fill in assignment order, so every list is ascending.
  deriv_.resize(m);
  base_uses_.resize(base_begin_[n]);
  delta_uses_.resize(delta_begin_[n]);
  std::vector<uint32_t> deriv_at(deriv_begin_.begin(), deriv_begin_.end() - 1);
  std::vector<uint32_t> base_at(base_begin_.begin(), base_begin_.end() - 1);
  std::vector<uint32_t> delta_at(delta_begin_.begin(), delta_begin_.end() - 1);
  for (uint32_t a = 0; a < m; ++a) {
    deriv_[deriv_at[head_node_[a]]++] = a;
    const std::vector<uint8_t>& is_delta = rule_delta_[rule_of_[a]];
    for (uint32_t k = body_begin_[a]; k < body_begin_[a + 1]; ++k) {
      const uint32_t node = entry_node[k];
      if (node == kNoNode) continue;
      if (is_delta[k - body_begin_[a]]) {
        delta_uses_[delta_at[node]++] = a;
      } else {
        base_uses_[base_at[node]++] = a;
      }
    }
  }
  csr_assignments_ = m;
}

IdRange ProvenanceGraph::Derivations(uint32_t n) const {
  EnsureCsr();
  return {deriv_.data() + deriv_begin_[n], deriv_.data() + deriv_begin_[n + 1]};
}

IdRange ProvenanceGraph::BaseUses(uint32_t n) const {
  EnsureCsr();
  return {base_uses_.data() + base_begin_[n],
          base_uses_.data() + base_begin_[n + 1]};
}

IdRange ProvenanceGraph::DeltaUses(uint32_t n) const {
  EnsureCsr();
  return {delta_uses_.data() + delta_begin_[n],
          delta_uses_.data() + delta_begin_[n + 1]};
}

std::string ProvenanceGraph::ToString(const Database& db) const {
  std::string out;
  // Group delta nodes by layer.
  std::vector<std::pair<int, uint64_t>> by_layer;
  by_layer.reserve(num_delta_nodes());
  for (uint32_t n = 0; n < num_delta_nodes(); ++n) {
    by_layer.emplace_back(node_layer_[n], node_tuple_[n].Pack());
  }
  std::sort(by_layer.begin(), by_layer.end());
  int current_layer = -1;
  for (const auto& [layer, packed] : by_layer) {
    if (layer != current_layer) {
      out += StrFormat("layer %d:\n", layer);
      current_layer = layer;
    }
    const TupleId head = TupleId::Unpack(packed);
    out += "  ~" + db.TupleToStr(head) + "  derived by:\n";
    for (uint32_t a : Derivations(FindDeltaNode(head))) {
      out += StrFormat("    rule %d: ", rule_of_[a]);
      for (size_t i = 0; i < body_size(a); ++i) {
        if (i) out += ", ";
        if (body_is_delta(a, i)) out += "~";
        out += db.TupleToStr(body(a, i));
      }
      out += "\n";
    }
  }
  return out;
}

}  // namespace deltarepair
