#include "provenance/incremental_cnf.h"

#include <algorithm>

namespace deltarepair {

namespace {

uint64_t Mix(uint64_t h, uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL + h;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Second, independent mixer (murmur3 finalizer constants) so a
// component key is two unrelated 64-bit hashes.
uint64_t Mix2(uint64_t h, uint64_t x) {
  x += 0xff51afd7ed558ccdULL + (h << 1);
  x = (x ^ (x >> 33)) * 0xc4ceb9fe1a85ec53ULL;
  x = (x ^ (x >> 29)) * 0xff51afd7ed558ccdULL;
  return x ^ (x >> 32);
}

// Union-find over dense var ids (lazily grown flat array — the
// per-solve grouping walks every active clause, so map overhead here
// would dominate warm solves on large CNFs).
class Dsu {
 public:
  uint32_t Find(uint32_t v) {
    if (v >= parent_.size()) {
      parent_.resize(v + 1, kUnset);
    }
    if (parent_[v] == kUnset) parent_[v] = v;
    uint32_t root = v;
    while (parent_[root] != root) root = parent_[root];
    while (parent_[v] != root) {  // path compression
      uint32_t next = parent_[v];
      parent_[v] = root;
      v = next;
    }
    return root;
  }
  void Union(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a != b) parent_[a] = b;
  }

 private:
  static constexpr uint32_t kUnset = 0xffffffffu;
  std::vector<uint32_t> parent_;
};

}  // namespace

uint32_t IncrementalDeletionCnf::VarOf(TupleId t) {
  if (t.relation >= var_of_.size()) var_of_.resize(t.relation + 1);
  std::vector<uint32_t>& rows = var_of_[t.relation];
  if (t.row >= rows.size()) rows.resize(t.row + 1, kNoVar);
  if (rows[t.row] == kNoVar) {
    rows[t.row] = static_cast<uint32_t>(tuple_of_.size());
    tuple_of_.push_back(t);
  }
  return rows[t.row];
}

int64_t IncrementalDeletionCnf::FindVar(TupleId t) const {
  if (t.relation >= var_of_.size()) return -1;
  const std::vector<uint32_t>& rows = var_of_[t.relation];
  if (t.row >= rows.size() || rows[t.row] == kNoVar) return -1;
  return rows[t.row];
}

void IncrementalDeletionCnf::Encode(const Program& program,
                                    const GroundProgramCache& cache,
                                    uint32_t id) {
  if (clauses_.size() <= id) clauses_.resize(id + 1);
  RuleClause& rc = clauses_[id];
  if (rc.active) return;
  const GroundProgramCache::GroundRule& gr = cache.rule(id);
  if (rc.lits.empty() && !rc.tautology) {
    // First encoding of this ground rule: base body tuples contribute
    // positive deletion literals, delta body tuples negative ones
    // (mirrors DeletionCnfBuilder::AddAssignment).
    const Rule& rule = program.rules()[gr.rule_index];
    std::vector<Lit> lits;
    lits.reserve(gr.body.size());
    for (size_t i = 0; i < gr.body.size(); ++i) {
      uint32_t v = VarOf(gr.body[i]);
      Lit l = rule.body[i].is_delta ? NegLit(v) : PosLit(v);
      bool dup = false;
      for (Lit have : lits) {
        if (have == l) dup = true;
        if (have == -l) rc.tautology = true;
      }
      if (!dup) lits.push_back(l);
    }
    if (!rc.tautology) {
      rc.lits = std::move(lits);
      rc.h1 = Mix(0, rc.lits.size());
      rc.h2 = Mix2(0, rc.lits.size());
      for (Lit l : rc.lits) {
        // Hash tuple content, not the variable number: component keys
        // then survive full rebuilds.
        const uint64_t x =
            tuple_of_[LitVar(l)].Pack() * 2 + (LitSign(l) ? 1 : 0);
        rc.h1 = Mix(rc.h1, x);
        rc.h2 = Mix2(rc.h2, x);
      }
    }
  }
  rc.active = true;
  ++active_rules_;
}

void IncrementalDeletionCnf::Retire(uint32_t id) {
  if (id >= clauses_.size()) return;
  RuleClause& rc = clauses_[id];
  if (!rc.active) return;
  rc.active = false;
  --active_rules_;
}

void IncrementalDeletionCnf::Build(const Program& program,
                                   const GroundProgramCache& cache) {
  var_of_.clear();
  tuple_of_.clear();
  clauses_.clear();
  active_rules_ = 0;
  component_cache_.clear();
  solved_epoch_ = UINT64_MAX;
  for (uint32_t id = 0; id < cache.num_rules(); ++id) {
    if (cache.active(id)) Encode(program, cache, id);
  }
  ++epoch_;
}

void IncrementalDeletionCnf::ApplyPatch(
    const Program& program, const GroundProgramCache& cache,
    const GroundProgramCache::Patch& patch) {
  if (patch.empty()) return;
  for (uint32_t id : patch.retracted) Retire(id);
  for (uint32_t id : patch.added) Encode(program, cache, id);
  ++epoch_;
}

WarmMinOnesResult IncrementalDeletionCnf::SolveMinOnes(
    const MinOnesOptions& options) {
  WarmMinOnesResult out;

  // Group the active clause set into connected components.
  std::vector<uint32_t> active_ids;
  active_ids.reserve(active_rules_);
  Dsu dsu;
  for (uint32_t id = 0; id < clauses_.size(); ++id) {
    const RuleClause& rc = clauses_[id];
    if (!rc.active || rc.tautology) continue;
    active_ids.push_back(id);
    for (size_t i = 1; i < rc.lits.size(); ++i)
      dsu.Union(LitVar(rc.lits[0]), LitVar(rc.lits[i]));
  }
  struct Comp {
    std::vector<uint32_t> clause_ids;
    std::vector<uint32_t> vars;
  };
  std::unordered_map<uint32_t, Comp> comps;
  for (uint32_t id : active_ids)
    comps[dsu.Find(LitVar(clauses_[id].lits[0]))].clause_ids.push_back(id);
  for (uint32_t v = 0; v < num_vars(); ++v) {
    auto it = comps.find(dsu.Find(v));
    // Vars never unioned map to themselves; only roots owning clauses
    // form components. Unconstrained vars stay outside every component.
    if (it != comps.end()) it->second.vars.push_back(v);
  }

  out.satisfiable = true;
  out.optimal = true;

  // Deterministic component order (by smallest var) so solving order —
  // and thus budget distribution — does not depend on hash iteration.
  std::vector<Comp*> ordered;
  ordered.reserve(comps.size());
  for (auto& [root, comp] : comps) ordered.push_back(&comp);
  for (Comp* c : ordered) std::sort(c->vars.begin(), c->vars.end());
  std::sort(ordered.begin(), ordered.end(),
            [](const Comp* a, const Comp* b) {
              return a->vars.front() < b->vars.front();
            });

  std::vector<bool> global_true(tuple_of_.size(), false);
  for (Comp* comp : ordered) {
    // Content key over tuple content: per-clause hashes (fixed at
    // encode time) combined *commutatively* across clauses, so no
    // canonical clause order — and no per-solve re-hash of the CNF — is
    // needed. A colliding key only costs a cache miss (the reuse path
    // re-verifies the model below).
    std::vector<const std::vector<Lit>*> cls;
    cls.reserve(comp->clause_ids.size());
    ComponentKey key{0x1234567890abcdefULL, 0xfedcba0987654321ULL};
    for (uint32_t id : comp->clause_ids) {
      const RuleClause& rc = clauses_[id];
      cls.push_back(&rc.lits);
      key.first += rc.h1;
      key.second += rc.h2;
    }

    uint64_t num_true = 0;
    auto cached = component_cache_.find(key);
    bool reused = false;
    if (cached != component_cache_.end()) {
      // Re-verify the cached optimum against the actual clauses — a key
      // collision then costs a cache miss, never a wrong answer.
      std::vector<bool> model(tuple_of_.size(), false);
      bool in_comp = true;
      for (uint32_t v : cached->second.true_vars) {
        if (!std::binary_search(comp->vars.begin(), comp->vars.end(), v)) {
          in_comp = false;
          break;
        }
        model[v] = true;
      }
      bool sat = in_comp;
      if (sat) {
        for (const auto* c : cls) {
          bool ok = false;
          for (Lit l : *c) {
            if (LitSign(l) ? model[LitVar(l)] : !model[LitVar(l)]) {
              ok = true;
              break;
            }
          }
          if (!ok) {
            sat = false;
            break;
          }
        }
      }
      if (sat) {
        reused = true;
        ++out.reused_components;
        num_true = cached->second.num_true;
        for (uint32_t v : cached->second.true_vars) global_true[v] = true;
      }
    }

    if (!reused) {
      // Dense sub-CNF over this component's vars, solved cold.
      std::unordered_map<uint32_t, uint32_t> dense;
      dense.reserve(comp->vars.size());
      for (uint32_t i = 0; i < comp->vars.size(); ++i)
        dense[comp->vars[i]] = i;
      Cnf cnf(static_cast<uint32_t>(comp->vars.size()));
      for (const auto* c : cls) {
        std::vector<Lit> mapped;
        mapped.reserve(c->size());
        for (Lit l : *c) {
          uint32_t dv = dense[LitVar(l)];
          mapped.push_back(LitSign(l) ? PosLit(dv) : NegLit(dv));
        }
        cnf.AddClause(std::move(mapped));
      }
      MinOnesResult res = MinOnesSat(cnf, options);
      ++out.solved_components;
      if (!res.satisfiable) {
        out.satisfiable = false;
        out.optimal = false;
        break;
      }
      out.optimal &= res.optimal;
      CachedComponent cc;
      cc.num_true = res.num_true;
      for (uint32_t i = 0; i < comp->vars.size(); ++i) {
        if (i < res.model.size() && res.model[i]) {
          cc.true_vars.push_back(comp->vars[i]);
          global_true[comp->vars[i]] = true;
        }
      }
      num_true = cc.num_true;
      if (res.optimal) component_cache_[key] = std::move(cc);
    }

    out.num_true += num_true;
  }

  if (out.satisfiable) {
    for (uint32_t v = 0; v < num_vars(); ++v) {
      if (global_true[v]) out.deleted.push_back(tuple_of_[v]);
    }
    solved_epoch_ = epoch_;
  }
  out.num_components = ordered.size();
  return out;
}

Cnf IncrementalDeletionCnf::ExtractActiveCnf(
    std::vector<TupleId>* tuples) const {
  *tuples = tuple_of_;
  Cnf cnf(num_vars());
  for (const RuleClause& rc : clauses_) {
    if (rc.active && !rc.tautology) cnf.AddClause(rc.lits);
  }
  return cnf;
}

}  // namespace deltarepair
