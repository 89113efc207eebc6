#include "repair/fixpoint.h"

#include <unordered_set>

#include "obs/trace.h"

namespace deltarepair {

namespace {

uint64_t Mix(uint64_t h, uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL + h;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t DerivationKey(int rule_index, const std::vector<TupleId>& body) {
  uint64_t h = Mix(0, static_cast<uint64_t>(rule_index) + 1);
  for (const TupleId& t : body) h = Mix(h, t.Pack());
  return h;
}

// Records `ga` into the cache unless an identical derivation is already
// present. Returns ids through the cache only; callers drive pending
// separately.
void RecordDerivation(FixpointCache* cache, const GroundAssignment& ga) {
  const uint64_t key = DerivationKey(ga.rule_index, ga.body);
  std::vector<uint32_t>& chain = cache->dedupe[key];
  for (uint32_t id : chain) {
    const FixpointCache::Derivation& have = cache->derivations[id];
    if (have.rule_index == ga.rule_index && have.body == ga.body) {
      // Tombstoned ids are removed from the chain, so a hit is active.
      return;
    }
  }
  const uint32_t id = static_cast<uint32_t>(cache->derivations.size());
  chain.push_back(id);
  FixpointCache::Derivation d;
  d.rule_index = ga.rule_index;
  d.head = ga.head;
  d.body = ga.body;
  for (size_t i = 0; i < d.body.size(); ++i) {
    cache->by_row[d.body[i].Pack()].push_back(id);
    if (ga.rule->body[i].is_delta)
      cache->by_delta_use[d.body[i].Pack()].push_back(id);
  }
  cache->derivations.push_back(std::move(d));
  cache->active.push_back(1);
}

/// Heads derived in the current round but not yet applied (snapshot
/// evaluation: rounds never observe same-round derivations), deduplicated
/// by per-relation row marks.
class PendingHeads {
 public:
  explicit PendingHeads(const InstanceView& view)
      : marks_(view.num_relations()) {
    for (uint32_t rel = 0; rel < marks_.size(); ++rel) {
      marks_[rel].assign(view.relation(rel).num_rows(), 0);
    }
  }

  void Add(TupleId t) {
    uint8_t& mark = marks_[t.relation][t.row];
    if (mark) return;
    mark = 1;
    heads_.push_back(t);
  }

  bool empty() const { return heads_.empty(); }
  const std::vector<TupleId>& heads() const { return heads_; }

  void Clear() {
    for (const TupleId& t : heads_) marks_[t.relation][t.row] = 0;
    heads_.clear();
  }

 private:
  std::vector<std::vector<uint8_t>> marks_;
  std::vector<TupleId> heads_;
};

}  // namespace

void FixpointCache::Clear() {
  valid = false;
  derivations.clear();
  active.clear();
  by_row.clear();
  by_delta_use.clear();
  dedupe.clear();
  derived.clear();
}

bool RunSemiNaiveFixpoint(InstanceView* view, const Program& program,
                          bool delete_between_rounds, ProvenanceGraph* prov,
                          RepairStats* stats, ExecContext* ctx,
                          FixpointCache* cache) {
  DR_CHECK_MSG(cache == nullptr || !delete_between_rounds,
               "fixpoint cache is end-mode only");
  Span fixpoint_span("fixpoint.semi_naive");
  if (cache != nullptr) cache->Clear();
  Grounder grounder(view);
  const auto& rules = program.rules();

  PendingHeads pending(*view);
  int round = 1;

  auto handle = [&](const GroundAssignment& ga) {
    if (ctx->Tick()) return false;  // budget/cancel: stop enumerating
    if (prov != nullptr) prov->AddAssignment(ga, round);
    if (cache != nullptr) RecordDerivation(cache, ga);
    if (!view->delta(ga.head)) pending.Add(ga.head);
    return true;
  };

  // Round 1: seed rules only — delta-consuming rules cannot fire yet.
  {
    Span round_span("fixpoint.round");
    round_span.SetArg("round", 1);
    for (size_t i = 0; i < rules.size(); ++i) {
      if (rules[i].NumDeltaBodyAtoms() > 0) continue;
      grounder.EnumerateRule(rules[i], static_cast<int>(i), BaseMatch::kLive,
                             DeltaMatch::kCurrent, handle);
    }
  }

  // Recent deltas (added in the previous round), per relation, for pivots.
  std::vector<std::vector<uint32_t>> recent(view->num_relations());
  while (!pending.empty() && !ctx->ShouldStop()) {
    for (auto& v : recent) v.clear();
    for (const TupleId& t : pending.heads()) {
      if (delete_between_rounds) {
        view->MarkDeleted(t);  // stage: D^t = D^{t-1} \ ∆^t
      } else {
        view->SetDelta(t);  // end: base stays frozen
      }
      recent[t.relation].push_back(t.row);
    }
    pending.Clear();
    ++round;

    Span round_span("fixpoint.round");
    round_span.SetArg("round", static_cast<uint64_t>(round));
    for (size_t i = 0; i < rules.size(); ++i) {
      const Rule& rule = rules[i];
      if (rule.NumDeltaBodyAtoms() == 0) continue;
      // Pivot over each delta body atom whose relation gained deltas; any
      // new assignment must use at least one newly derived delta tuple
      // (base relations only shrink, delta relations only grow).
      for (size_t a = 0; a < rule.body.size(); ++a) {
        if (!rule.body[a].is_delta) continue;
        const auto& rows =
            recent[static_cast<uint32_t>(rule.body[a].relation_index)];
        if (rows.empty()) continue;
        grounder.EnumerateRule(rule, static_cast<int>(i), BaseMatch::kLive,
                               DeltaMatch::kCurrent, handle,
                               static_cast<int>(a), &rows);
      }
    }
  }
  stats->iterations = static_cast<uint64_t>(round);
  stats->assignments += grounder.assignments_enumerated();
  fixpoint_span.SetArg("rounds", static_cast<uint64_t>(round));
  fixpoint_span.SetArg("assignments", grounder.assignments_enumerated());
  if (cache != nullptr && !ctx->stopped()) {
    cache->derived = view->DeltaTupleIds();
    cache->valid = true;
  }
  return !ctx->stopped();
}

bool RunSemiNaiveFixpoint(InstanceView* view, const Program& program,
                          const Delta& delta, FixpointCache* cache,
                          RepairStats* stats, ExecContext* ctx) {
  DR_CHECK_MSG(cache != nullptr && cache->valid,
               "incremental fixpoint needs a valid prior fixpoint");
  Span span("fixpoint.incremental");

  // Phase 1 — tombstone every cached derivation binding a deleted row.
  // A deleted row invalidates derivations binding it at base positions
  // (the row is gone from the frozen base) and at delta positions alike
  // (its own derivations die with the self atom, so the tuple leaves the
  // delta; transitive effects flow through support counting below).
  for (uint32_t rel = 0; rel < delta.rels.size(); ++rel) {
    for (uint32_t r : delta.rels[rel].deleted) {
      auto it = cache->by_row.find(TupleId{rel, r}.Pack());
      if (it == cache->by_row.end()) continue;
      for (uint32_t id : it->second) {
        if (!cache->active[id]) continue;
        cache->active[id] = 0;
        // Drop from the dedupe chain so an identical derivation can be
        // re-recorded after a future re-insert.
        const FixpointCache::Derivation& d = cache->derivations[id];
        auto& chain = cache->dedupe[DerivationKey(d.rule_index, d.body)];
        for (size_t k = 0; k < chain.size(); ++k) {
          if (chain[k] == id) {
            chain[k] = chain.back();
            chain.pop_back();
            break;
          }
        }
      }
    }
  }

  // Phase 2 — recompute the least fixpoint supported by the surviving
  // derivations (delete-rederive's rederivation step, done by support
  // counting over the cached hypergraph instead of re-joining).
  const size_t n = cache->derivations.size();
  std::vector<uint32_t> unmet(n, 0);
  std::vector<uint32_t> worklist;
  std::unordered_set<uint64_t> proven;
  for (uint32_t id = 0; id < n; ++id) {
    if (!cache->active[id]) continue;
    const FixpointCache::Derivation& d = cache->derivations[id];
    const Rule& rule = program.rules()[d.rule_index];
    uint32_t need = 0;
    for (size_t i = 0; i < d.body.size(); ++i)
      if (rule.body[i].is_delta) ++need;
    unmet[id] = need;
    if (need == 0) worklist.push_back(id);
  }
  auto prove = [&](uint32_t id, auto&& prove_ref) -> void {
    const TupleId h = cache->derivations[id].head;
    if (!proven.insert(h.Pack()).second) return;
    auto it = cache->by_delta_use.find(h.Pack());
    if (it == cache->by_delta_use.end()) return;
    for (uint32_t consumer : it->second) {
      if (!cache->active[consumer]) continue;
      if (--unmet[consumer] == 0) prove_ref(consumer, prove_ref);
    }
  };
  for (uint32_t id : worklist) prove(id, prove);

  // Install the surviving fixpoint into the (delta-empty) view.
  for (const TupleId& t : cache->derived) {
    if (proven.count(t.Pack())) view->SetDelta(t);
  }

  // Phase 3 — insert-driven continuation: new derivations must bind at
  // least one inserted row; everything else is already cached. Semi-
  // naive rounds then extend over newly derived heads as usual.
  Grounder grounder(view);
  const auto& rules = program.rules();
  PendingHeads pending(*view);
  int round = 1;
  bool interrupted = false;

  auto handle = [&](const GroundAssignment& ga) {
    if (ctx->Tick()) return false;
    RecordDerivation(cache, ga);
    if (!view->delta(ga.head)) pending.Add(ga.head);
    return true;
  };

  std::vector<std::vector<uint32_t>> inserted(view->num_relations());
  bool any_inserted = false;
  for (uint32_t rel = 0;
       rel < delta.rels.size() && rel < inserted.size(); ++rel) {
    inserted[rel] = delta.rels[rel].inserted;
    any_inserted |= !inserted[rel].empty();
  }
  if (any_inserted) {
    for (size_t i = 0; i < rules.size(); ++i) {
      if (!grounder.EnumerateRuleDelta(rules[i], static_cast<int>(i),
                                       BaseMatch::kLive, DeltaMatch::kCurrent,
                                       inserted, handle)) {
        interrupted = true;
        break;
      }
    }
  }

  std::vector<std::vector<uint32_t>> recent(view->num_relations());
  while (!pending.empty() && !ctx->ShouldStop() && !interrupted) {
    for (auto& v : recent) v.clear();
    for (const TupleId& t : pending.heads()) {
      view->SetDelta(t);
      recent[t.relation].push_back(t.row);
    }
    pending.Clear();
    ++round;
    for (size_t i = 0; i < rules.size(); ++i) {
      const Rule& rule = rules[i];
      if (rule.NumDeltaBodyAtoms() == 0) continue;
      for (size_t a = 0; a < rule.body.size(); ++a) {
        if (!rule.body[a].is_delta) continue;
        const auto& rows =
            recent[static_cast<uint32_t>(rule.body[a].relation_index)];
        if (rows.empty()) continue;
        grounder.EnumerateRule(rule, static_cast<int>(i), BaseMatch::kLive,
                               DeltaMatch::kCurrent, handle,
                               static_cast<int>(a), &rows);
      }
    }
  }

  stats->iterations += static_cast<uint64_t>(round);
  stats->assignments += grounder.assignments_enumerated();
  if (ctx->stopped() || interrupted) {
    cache->valid = false;
    return false;
  }
  cache->derived = view->DeltaTupleIds();
  return true;
}

}  // namespace deltarepair
