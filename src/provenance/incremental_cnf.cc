#include "provenance/incremental_cnf.h"

#include <algorithm>

#include "common/status.h"
#include "sat/totalizer.h"

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

// Union-find over dense solver var ids (lazily grown flat array — the
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

IncrementalDeletionCnf::IncrementalDeletionCnf()
    : solver_(new CdclSolver()) {
  // Clause addition between Solves requires all vars to stay present;
  // inprocessing is also a measured loss on this already-normalized CNF
  // (see the CQA entailment solver's scope note).
  solver_->mutable_options()->inprocessing = false;
}

uint32_t IncrementalDeletionCnf::VarOf(TupleId t) {
  auto [it, added] = var_of_.emplace(t.Pack(), 0);
  if (added) {
    uint32_t v = solver_->NewVar();
    it->second = v;
    if (tuple_of_.size() <= v) tuple_of_.resize(v + 1);
    tuple_of_[v] = t;
    deletion_vars_.push_back(v);
  }
  return it->second;
}

int64_t IncrementalDeletionCnf::FindVar(TupleId t) const {
  auto it = var_of_.find(t.Pack());
  return it == var_of_.end() ? -1 : static_cast<int64_t>(it->second);
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
        // Hash tuple content, not the solver var id: component keys
        // then survive the dense renumbering of Scrub.
        const uint64_t x =
            tuple_of_[LitVar(l)].Pack() * 2 + (LitSign(l) ? 1 : 0);
        rc.h1 = Mix(rc.h1, x);
        rc.h2 = Mix2(rc.h2, x);
      }
    }
  }
  rc.active = true;
  ++active_rules_;
  if (rc.tautology) return;  // always satisfied: no clause, no selector
  rc.sel = solver_->NewVar();
  std::vector<Lit> guarded = rc.lits;
  guarded.push_back(NegLit(rc.sel));
  solver_->AddClause(std::move(guarded));
}

void IncrementalDeletionCnf::Retire(uint32_t id) {
  if (id >= clauses_.size()) return;
  RuleClause& rc = clauses_[id];
  if (!rc.active) return;
  rc.active = false;
  --active_rules_;
  if (rc.sel != UINT32_MAX) {
    solver_->AddClause({NegLit(rc.sel)});
    rc.sel = UINT32_MAX;
    ++retired_selectors_;
  }
}

void IncrementalDeletionCnf::Build(const Program& program,
                                   const GroundProgramCache& cache) {
  solver_.reset(new CdclSolver());
  solver_->mutable_options()->inprocessing = false;
  var_of_.clear();
  tuple_of_.clear();
  deletion_vars_.clear();
  clauses_.clear();
  active_rules_ = 0;
  retired_selectors_ = 0;
  component_cache_.clear();
  totalizer_cache_.clear();
  comp_key_of_var_.clear();
  live_components_.clear();
  solved_epoch_ = UINT64_MAX;
  assumptions_epoch_ = UINT64_MAX;
  phase_by_slot_.clear();
  // scrub_runs_/clauses_reclaimed_/vars_reclaimed_ are lifetime gauges
  // and deliberately survive rebuilds.
  for (uint32_t id = 0; id < cache.num_rules(); ++id) {
    if (cache.active(id)) Encode(program, cache, id);
  }
  ++epoch_;
}

void IncrementalDeletionCnf::Scrub() {
  const uint64_t old_vars = solver_->num_vars();
  const uint64_t old_clauses = solver_->num_problem_clauses();

  // Deletion var -> dense slot. deletion_vars_ only ever appends, so
  // slot order equals creation order and every dense extraction taken
  // before the scrub maps onto the same tuples afterwards.
  const uint32_t num_deletion = static_cast<uint32_t>(deletion_vars_.size());
  std::unordered_map<uint32_t, uint32_t> remap;
  remap.reserve(num_deletion);
  for (uint32_t i = 0; i < num_deletion; ++i) remap[deletion_vars_[i]] = i;

  solver_.reset(new CdclSolver());
  solver_->mutable_options()->inprocessing = false;
  solver_->EnsureVars(num_deletion);

  // Remap every encoded rule clause — retired ones included, so a later
  // revival re-adds them with the new numbering — and re-emit only the
  // active ones under fresh selectors. The unit-retired selector
  // clauses (and the retired selectors themselves) simply never reach
  // the new solver; that is the reclamation.
  retired_selectors_ = 0;
  for (RuleClause& rc : clauses_) {
    if (rc.lits.empty()) {
      rc.sel = UINT32_MAX;
      continue;
    }
    for (Lit& l : rc.lits) {
      const uint32_t nv = remap.at(LitVar(l));
      l = LitSign(l) ? PosLit(nv) : NegLit(nv);
    }
    if (rc.active && !rc.tautology) {
      rc.sel = solver_->NewVar();
      std::vector<Lit> guarded = rc.lits;
      guarded.push_back(NegLit(rc.sel));
      solver_->AddClause(std::move(guarded));
    } else {
      rc.sel = UINT32_MAX;
    }
  }

  // Variable tables follow the renumbering.
  std::vector<TupleId> new_tuple_of(num_deletion);
  for (uint32_t i = 0; i < num_deletion; ++i) {
    new_tuple_of[i] = tuple_of_[deletion_vars_[i]];
  }
  tuple_of_ = std::move(new_tuple_of);
  var_of_.clear();
  var_of_.reserve(num_deletion);
  for (uint32_t i = 0; i < num_deletion; ++i) {
    var_of_[tuple_of_[i].Pack()] = i;
    deletion_vars_[i] = i;
  }

  // Warm Min-Ones artifacts: keys are content-stable, models are var
  // lists — remap them instead of throwing the work away.
  for (auto& [key, cc] : component_cache_) {
    (void)key;
    for (uint32_t& v : cc.true_vars) v = remap.at(v);
  }
  for (LiveComponent& lc : live_components_) {
    for (uint32_t& v : lc.vars) v = remap.at(v);
  }
  std::unordered_map<uint32_t, ComponentKey> new_comp_key;
  new_comp_key.reserve(comp_key_of_var_.size());
  for (const auto& [v, key] : comp_key_of_var_) new_comp_key[remap.at(v)] = key;
  comp_key_of_var_ = std::move(new_comp_key);

  // Totalizer outputs lived on the old solver; entail_assumptions()
  // re-lays them lazily from live_components_.
  totalizer_cache_.clear();
  assumptions_epoch_ = UINT64_MAX;

  // Re-seed the saved optimum's phases (slot i is var i now).
  for (uint32_t i = 0;
       i < phase_by_slot_.size() && i < num_deletion; ++i) {
    solver_->SetPhase(i, phase_by_slot_[i]);
  }

  // The epoch is untouched: the active clause *set* is unchanged, so a
  // solved-at-current-epoch state (and every layer keyed on it) stays
  // valid.
  ++scrub_runs_;
  const uint64_t new_vars = solver_->num_vars();
  const uint64_t new_clauses = solver_->num_problem_clauses();
  if (old_vars > new_vars) vars_reclaimed_ += old_vars - new_vars;
  if (old_clauses > new_clauses) clauses_reclaimed_ += old_clauses - new_clauses;
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
  for (uint32_t v : deletion_vars_) {
    auto it = comps.find(dsu.Find(v));
    // Vars never unioned map to themselves; only roots owning clauses
    // form components. Unconstrained vars stay outside every component.
    if (it != comps.end()) it->second.vars.push_back(v);
  }

  comp_key_of_var_.clear();
  live_components_.clear();
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
    // Content key over stable var ids: per-clause hashes (fixed at
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

    LiveComponent live;
    live.key = key;
    live.vars = comp->vars;

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
        live.num_true = cached->second.num_true;
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
      live.num_true = cc.num_true;
      if (res.optimal) component_cache_[key] = std::move(cc);
    }

    out.num_true += live.num_true;
    for (uint32_t v : comp->vars) comp_key_of_var_[v] = key;
    live_components_.push_back(std::move(live));
  }

  if (out.satisfiable) {
    phase_by_slot_.assign(deletion_vars_.size(), false);
    for (size_t i = 0; i < deletion_vars_.size(); ++i) {
      const uint32_t v = deletion_vars_[i];
      if (global_true[v]) out.deleted.push_back(tuple_of_[v]);
      // Phase saving: seed the long-lived solver's polarity with the
      // latest optimum so entailment solves start near a model. Saved
      // by slot so Scrub can re-seed its fresh solver.
      phase_by_slot_[i] = global_true[v];
      solver_->SetPhase(v, global_true[v]);
    }
    solved_epoch_ = epoch_;
    assumptions_epoch_ = UINT64_MAX;  // rebuilt lazily
  }
  out.num_components = ordered.size();
  return out;
}

const std::vector<Lit>& IncrementalDeletionCnf::entail_assumptions(
    uint64_t max_totalizer_area) {
  DR_CHECK_MSG(solved_epoch_ == epoch_,
               "entail_assumptions needs SolveMinOnes at the current epoch");
  if (assumptions_epoch_ == epoch_ &&
      assumptions_area_ == max_totalizer_area) {
    return entail_assumptions_;
  }
  entail_assumptions_.clear();
  uncapped_.clear();
  for (const RuleClause& rc : clauses_) {
    if (rc.active && rc.sel != UINT32_MAX)
      entail_assumptions_.push_back(PosLit(rc.sel));
  }
  for (const LiveComponent& comp : live_components_) {
    if (comp.num_true == 0) {
      // Zero-cost component: no tuple of it is deleted in any minimum
      // repair. Pinned by assumption (not a hard unit) so the component
      // can grow a positive minimum later.
      for (uint32_t v : comp.vars)
        entail_assumptions_.push_back(NegLit(v));
    } else if (comp.num_true < comp.vars.size()) {
      if (comp.vars.size() * (comp.num_true + 1) > max_totalizer_area) {
        uncapped_.insert(comp.key);  // too wide to count
        continue;
      }
      auto it = totalizer_cache_.find(comp.key);
      if (it == totalizer_cache_.end()) {
        std::vector<Lit> inputs;
        inputs.reserve(comp.vars.size());
        for (uint32_t v : comp.vars) inputs.push_back(PosLit(v));
        std::vector<Lit> outputs = BuildTotalizer(
            solver_.get(), inputs,
            static_cast<uint32_t>(comp.num_true) + 1);
        it = totalizer_cache_.emplace(comp.key, std::move(outputs)).first;
      }
      if (it->second.size() > comp.num_true)
        entail_assumptions_.push_back(-it->second[comp.num_true]);
    }
  }
  // Deletion vars outside every component can never be deleted by a
  // minimum repair.
  for (uint32_t v : deletion_vars_) {
    if (!comp_key_of_var_.count(v))
      entail_assumptions_.push_back(NegLit(v));
  }
  assumptions_epoch_ = epoch_;
  assumptions_area_ = max_totalizer_area;
  return entail_assumptions_;
}

bool IncrementalDeletionCnf::CapSkipped(uint32_t var) const {
  auto it = comp_key_of_var_.find(var);
  return it != comp_key_of_var_.end() && uncapped_.count(it->second) != 0;
}

Cnf IncrementalDeletionCnf::ExtractActiveCnf(
    std::vector<TupleId>* tuples) const {
  std::unordered_map<uint32_t, uint32_t> dense;
  dense.reserve(deletion_vars_.size());
  tuples->clear();
  tuples->reserve(deletion_vars_.size());
  for (uint32_t i = 0; i < deletion_vars_.size(); ++i) {
    dense[deletion_vars_[i]] = i;
    tuples->push_back(tuple_of_[deletion_vars_[i]]);
  }
  Cnf cnf(static_cast<uint32_t>(deletion_vars_.size()));
  for (const RuleClause& rc : clauses_) {
    if (!rc.active || rc.tautology) continue;
    std::vector<Lit> mapped;
    mapped.reserve(rc.lits.size());
    for (Lit l : rc.lits) {
      uint32_t dv = dense[LitVar(l)];
      mapped.push_back(LitSign(l) ? PosLit(dv) : NegLit(dv));
    }
    cnf.AddClause(std::move(mapped));
  }
  return cnf;
}

ComponentKey IncrementalDeletionCnf::ComponentKeyOf(uint32_t var) const {
  auto it = comp_key_of_var_.find(var);
  return it == comp_key_of_var_.end() ? ComponentKey{0, 0} : it->second;
}

}  // namespace deltarepair
