// The provenance graph of Sec. 5.2 (Figure 5): nodes are derived delta
// tuples; each recorded assignment is a hyperedge from its participating
// tuples to the derived delta tuple. Delta nodes carry the layer
// (derivation round) at which they were first derived and the benefit
// b_t = (#assignments t participates in as a base tuple) − (#assignments
// ∆(t) participates in as a delta tuple), the greedy ordering key of
// Algorithm 2.
//
// Layout (dense, no hash container keyed by tuple):
//  * assignments are stored flat — one TupleId array of bodies plus
//    per-assignment offsets, rule index and head node; which body
//    positions are delta atoms is kept once per rule;
//  * delta nodes get dense ids in first-derivation order, reached from a
//    tuple through a per-relation row → node array;
//  * per node, the deriving assignments and the assignments using the
//    tuple at a base or at a delta position are CSR arrays, built in one
//    pass over the assignments at the first query after recording (and
//    rebuilt if recording resumes). Use lists cover node tuples only —
//    the tuples Algorithm 2 can choose or prune.
//
// Not thread-safe: a graph is filled and then read by one thread (queries
// may build the CSR arrays).
#ifndef DELTAREPAIR_PROVENANCE_PROV_GRAPH_H_
#define DELTAREPAIR_PROVENANCE_PROV_GRAPH_H_

#include <string>
#include <vector>

#include "datalog/grounder.h"
#include "relation/relation.h"

namespace deltarepair {

/// A run of assignment ids in one of the graph's CSR arrays, ascending.
struct IdRange {
  const uint32_t* first = nullptr;
  const uint32_t* last = nullptr;

  const uint32_t* begin() const { return first; }
  const uint32_t* end() const { return last; }
  size_t size() const { return static_cast<size_t>(last - first); }
  bool empty() const { return first == last; }
  uint32_t front() const { return *first; }
};

class ProvenanceGraph {
 public:
  static constexpr uint32_t kNoNode = UINT32_MAX;

  ProvenanceGraph() = default;

  /// Records an assignment unless an identical one (same rule, same body
  /// rows) was already recorded; `ga` is copied, so a grounder callback
  /// may pass its transient assignment. `layer` is the derivation round
  /// of the head (kept as the first recorded, i.e. the minimum when
  /// rounds are recorded in order). Returns the assignment id or -1 for
  /// duplicates. The graph outlives the Program: no Rule pointer is kept.
  int64_t AddAssignment(const GroundAssignment& ga, int layer);

  // --- Assignments (hyperedges), ids in recording order. ---
  size_t num_assignments() const { return rule_of_.size(); }
  int rule_index(uint32_t a) const { return rule_of_[a]; }
  /// The delta node the assignment derives.
  uint32_t head_node(uint32_t a) const { return head_node_[a]; }
  size_t body_size(uint32_t a) const {
    return body_begin_[a + 1] - body_begin_[a];
  }
  /// Row bound to body atom `i` (base or delta per body_is_delta).
  TupleId body(uint32_t a, size_t i) const {
    return bodies_[body_begin_[a] + i];
  }
  bool body_is_delta(uint32_t a, size_t i) const {
    return rule_delta_[rule_of_[a]][i] != 0;
  }

  // --- Delta nodes, dense ids in first-derivation order. ---
  size_t num_delta_nodes() const { return node_tuple_.size(); }
  /// Node of ∆(t), or kNoNode if ∆(t) was never derived.
  uint32_t FindDeltaNode(TupleId t) const;
  TupleId node_tuple(uint32_t n) const { return node_tuple_[n]; }
  int node_layer(uint32_t n) const { return node_layer_[n]; }
  /// Assignments deriving node `n`; front() is the earliest recorded.
  IdRange Derivations(uint32_t n) const;
  /// Assignments in which node `n`'s tuple participates as a base tuple.
  IdRange BaseUses(uint32_t n) const;
  /// Assignments in which ∆(node `n`'s tuple) participates as a delta.
  IdRange DeltaUses(uint32_t n) const;
  /// Benefit b_t of Algorithm 2.
  int64_t Benefit(uint32_t n) const {
    return static_cast<int64_t>(BaseUses(n).size()) -
           static_cast<int64_t>(DeltaUses(n).size());
  }
  /// Benefit of tuple `t`; 0 when ∆(t) was never derived.
  int64_t Benefit(TupleId t) const {
    const uint32_t n = FindDeltaNode(t);
    return n == kNoNode ? 0 : Benefit(n);
  }

  /// Highest layer among delta nodes (L in Algorithm 2).
  int num_layers() const { return num_layers_; }

  /// Debug rendering in the spirit of Figure 5 (small graphs).
  std::string ToString(const Database& db) const;

 private:
  uint32_t InternNode(TupleId t, int layer);
  /// Brings the CSR arrays up to date with the recorded assignments.
  void EnsureCsr() const;

  // Assignments: body rows of a are bodies_[body_begin_[a] ..
  // body_begin_[a+1]).
  std::vector<TupleId> bodies_;
  std::vector<uint32_t> body_begin_{0};
  std::vector<int> rule_of_;
  std::vector<uint32_t> head_node_;
  // Per rule index: 1 at each delta body position.
  std::vector<std::vector<uint8_t>> rule_delta_;
  // Content hash of (rule, body) -> assignment ids; chains are compared
  // body by body, so a hash collision never drops a derivation.
  RowHashTable dedupe_;

  // Delta nodes.
  std::vector<TupleId> node_tuple_;
  std::vector<int> node_layer_;
  std::vector<std::vector<uint32_t>> node_of_;  // [relation][row]
  int num_layers_ = 0;

  // CSR arrays over nodes (offsets have num_delta_nodes()+1 entries),
  // valid for the first csr_assignments_ assignments.
  mutable size_t csr_assignments_ = 0;
  mutable std::vector<uint32_t> deriv_begin_, deriv_;
  mutable std::vector<uint32_t> base_begin_, base_uses_;
  mutable std::vector<uint32_t> delta_begin_, delta_uses_;
};

}  // namespace deltarepair

#endif  // DELTAREPAIR_PROVENANCE_PROV_GRAPH_H_
