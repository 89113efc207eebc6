#include "datalog/ground_cache.h"

#include <algorithm>

#include "repair/repair_options.h"

namespace deltarepair {

namespace {
// splitmix64 finalizer: the dedupe key mixes rule index and packed body
// ids; collisions are resolved by content comparison on the chain.
uint64_t Mix(uint64_t h, uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL + h;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

uint64_t GroundProgramCache::KeyOf(const GroundRule& gr) {
  uint64_t h = Mix(0, static_cast<uint64_t>(gr.rule_index) + 1);
  for (const TupleId& t : gr.body) h = Mix(h, t.Pack());
  return h;
}

bool GroundProgramCache::Record(const GroundAssignment& ga) {
  GroundRule gr;
  gr.rule_index = ga.rule_index;
  gr.head = ga.head;
  gr.body = ga.body;
  const uint64_t key = KeyOf(gr);
  std::vector<uint32_t>& chain = dedupe_[key];
  for (uint32_t id : chain) {
    const GroundRule& have = rules_[id];
    if (have.rule_index != gr.rule_index || have.body != gr.body) continue;
    if (active_[id]) return false;  // duplicate pivot emission
    // Revival: the same assignment became valid again
    // (delete-then-reinsert). The id is reused in place.
    active_[id] = 1;
    ++num_active_;
    return true;
  }
  const uint32_t id = static_cast<uint32_t>(rules_.size());
  chain.push_back(id);
  for (const TupleId& t : gr.body) by_row_[t.Pack()].push_back(id);
  rules_.push_back(std::move(gr));
  active_.push_back(1);
  ++num_active_;
  return true;
}

bool GroundProgramCache::Build(InstanceView* view, const Program& program,
                               ExecContext* ctx) {
  valid_ = false;
  rules_.clear();
  active_.clear();
  num_active_ = 0;
  dedupe_.clear();
  by_row_.clear();
  Grounder grounder(view);
  for (size_t i = 0; i < program.rules().size(); ++i) {
    bool ok = grounder.EnumerateRule(
        program.rules()[i], static_cast<int>(i), BaseMatch::kLive,
        DeltaMatch::kHypothetical, [&](const GroundAssignment& ga) {
          if (ctx != nullptr && ctx->Tick()) return false;
          Record(ga);
          return true;
        });
    if (!ok) return false;
  }
  valid_ = true;
  return true;
}

bool GroundProgramCache::ApplyDelta(InstanceView* view, const Program& program,
                                    const Delta& delta, bool* changed,
                                    ExecContext* ctx) {
  *changed = false;
  if (!valid_) return false;

  // Retract every ground rule whose body binds a deleted row.
  for (uint32_t rel = 0; rel < delta.rels.size(); ++rel) {
    for (uint32_t r : delta.rels[rel].deleted) {
      auto it = by_row_.find(TupleId{rel, r}.Pack());
      if (it == by_row_.end()) continue;
      for (uint32_t id : it->second) {
        if (!active_[id]) continue;
        active_[id] = 0;
        --num_active_;
        *changed = true;
      }
    }
  }

  // New ground rules must bind at least one inserted row: pivoted
  // enumeration per body atom, deduped by content against the cache.
  std::vector<std::vector<uint32_t>> rows_by_relation(
      view->num_relations());
  bool any_inserted = false;
  for (uint32_t rel = 0;
       rel < delta.rels.size() && rel < rows_by_relation.size(); ++rel) {
    rows_by_relation[rel] = delta.rels[rel].inserted;
    any_inserted |= !rows_by_relation[rel].empty();
  }
  if (any_inserted) {
    Grounder grounder(view);
    for (size_t i = 0; i < program.rules().size(); ++i) {
      bool ok = grounder.EnumerateRuleDelta(
          program.rules()[i], static_cast<int>(i), BaseMatch::kLive,
          DeltaMatch::kHypothetical, rows_by_relation,
          [&](const GroundAssignment& ga) {
            if (ctx != nullptr && ctx->Tick()) return false;
            *changed |= Record(ga);
            return true;
          });
      if (!ok) {
        valid_ = false;
        return false;
      }
    }
  }
  return true;
}

std::vector<uint32_t> GroundProgramCache::ReachableRules(
    const Program& program) const {
  // Per ground rule: its delta positions whose tuple is still unreached.
  std::vector<uint32_t> pending(rules_.size(), 0);
  std::vector<uint32_t> fired;  // the worklist, each rule queued once
  size_t waiting = 0;           // active rules not fired yet
  for (uint32_t id = 0; id < rules_.size(); ++id) {
    if (!active_[id]) continue;
    for (const Atom& atom : program.rules()[rules_[id].rule_index].body) {
      pending[id] += atom.is_delta ? 1 : 0;
    }
    if (pending[id] == 0) {
      fired.push_back(id);
    } else {
      ++waiting;
    }
  }
  // Per relation and row: reached yet.
  std::vector<std::vector<uint8_t>> reached;
  for (size_t next = 0; next < fired.size() && waiting > 0; ++next) {
    const GroundRule& gr = rules_[fired[next]];
    const std::vector<Atom>& body = program.rules()[gr.rule_index].body;
    for (size_t i = 0; i < body.size(); ++i) {
      const TupleId t = gr.body[i];
      if (body[i].is_delta) continue;
      if (t.relation >= reached.size()) reached.resize(t.relation + 1);
      std::vector<uint8_t>& rows = reached[t.relation];
      if (t.row >= rows.size()) rows.resize(t.row + 1, 0);
      if (rows[t.row]) continue;
      rows[t.row] = 1;
      auto it = by_row_.find(t.Pack());
      if (it == by_row_.end()) continue;
      // Record lists a rule once per position binding the row, and those
      // entries are adjacent: visit each rule once.
      uint32_t previous = UINT32_MAX;
      for (uint32_t holder : it->second) {
        if (holder == previous || !active_[holder]) continue;
        previous = holder;
        if (pending[holder] == 0) continue;
        const GroundRule& h = rules_[holder];
        const std::vector<Atom>& hbody = program.rules()[h.rule_index].body;
        for (size_t j = 0; j < hbody.size(); ++j) {
          if (hbody[j].is_delta && h.body[j] == t && --pending[holder] == 0) {
            fired.push_back(holder);
            --waiting;
          }
        }
      }
    }
  }
  std::sort(fired.begin(), fired.end());
  return fired;
}

}  // namespace deltarepair
