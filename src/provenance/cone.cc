#include "provenance/cone.h"

#include <algorithm>
#include <numeric>

#include "common/timer.h"
#include "obs/trace.h"

namespace deltarepair {
namespace {

// Hash step for the slice memo key (GetSlice).
uint64_t Mix1(uint64_t h, uint64_t v) {
  h = (h ^ v) * 0x00000100000001b3ULL;
  h ^= h >> 32;
  return h;
}

// Union-find with path halving, over open variables.
class Dsu {
 public:
  explicit Dsu(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }
  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a != b) parent_[std::max(a, b)] = std::min(a, b);
  }

 private:
  std::vector<uint32_t> parent_;
};

}  // namespace

void SliceStats::Add(const SliceStats& o) {
  cone_seconds += o.cone_seconds;
  slice_seconds += o.slice_seconds;
  cone_vars += o.cone_vars;
  cone_clauses += o.cone_clauses;
  sliced_solve_calls += o.sliced_solve_calls;
  slice_fallbacks += o.slice_fallbacks;
}

ConeSlicer::ConeSlicer(const Cnf& cnf, const std::vector<bool>& min_model) {
  Span span("cone.decompose");
  span.SetArg("vars", cnf.num_vars());
  ScopedTimer timer(&build_stats_.cone_seconds);
  num_vars_ = cnf.num_vars();
  if (!Preprocess(cnf, min_model)) return;
  BuildComponents(min_model);
  valid_ = true;
}

bool ConeSlicer::Preprocess(const Cnf& cnf,
                            const std::vector<bool>& min_model) {
  // -1 unassigned, 0 forced false (kept), 1 forced true (deleted).
  std::vector<int8_t> assigned(num_vars_, -1);
  const auto& clauses = cnf.clauses();
  std::vector<bool> satisfied(clauses.size(), false);

  bool changed = true;
  while (changed) {
    changed = false;
    // Unit propagation to fixpoint: a forced literal holds in every
    // model of the CNF.
    bool bcp = true;
    while (bcp) {
      bcp = false;
      for (size_t ci = 0; ci < clauses.size(); ++ci) {
        if (satisfied[ci]) continue;
        Lit unit = 0;
        int open = 0;
        bool sat = false;
        for (Lit l : clauses[ci]) {
          int8_t a = assigned[LitVar(l)];
          if (a < 0) {
            ++open;
            unit = l;
          } else if ((a == 1) == LitSign(l)) {
            sat = true;
            break;
          }
        }
        if (sat) {
          satisfied[ci] = true;
          continue;
        }
        if (open == 0) return false;  // conflict: inconsistent input
        if (open == 1) {
          assigned[LitVar(unit)] = LitSign(unit) ? 1 : 0;
          satisfied[ci] = true;
          bcp = changed = true;
        }
      }
    }
    // Pure-negative elimination: a variable with no positive occurrence
    // in any unsatisfied clause is false in every minimum model
    // (flipping it false keeps all clauses satisfied and strictly
    // shrinks the deletion set). Vars absent from every unsatisfied
    // clause qualify too.
    std::vector<bool> pos_occ(num_vars_, false);
    for (size_t ci = 0; ci < clauses.size(); ++ci) {
      if (satisfied[ci]) continue;
      for (Lit l : clauses[ci]) {
        if (LitSign(l) && assigned[LitVar(l)] < 0) pos_occ[LitVar(l)] = true;
      }
    }
    for (uint32_t v = 0; v < num_vars_; ++v) {
      if (assigned[v] < 0 && !pos_occ[v]) {
        assigned[v] = 0;
        changed = true;
      }
    }
  }

  // The supplied minimum model must agree with every pinned variable —
  // a mismatch means it was not a model or not minimal, and slicing on
  // top of it would be unsound.
  for (uint32_t v = 0; v < num_vars_; ++v) {
    if (assigned[v] < 0) continue;
    bool model_true = v < min_model.size() && min_model[v];
    if (model_true != (assigned[v] == 1)) return false;
  }

  state_.assign(num_vars_, VarState::kOpen);
  for (uint32_t v = 0; v < num_vars_; ++v) {
    if (assigned[v] == 1) {
      state_[v] = VarState::kForcedDeleted;
      forced_deleted_.push_back(v);
    } else if (assigned[v] == 0) {
      state_[v] = VarState::kForcedKept;
    }
  }
  for (size_t ci = 0; ci < clauses.size(); ++ci) {
    if (satisfied[ci]) continue;
    std::vector<Lit> reduced;
    for (Lit l : clauses[ci]) {
      if (assigned[LitVar(l)] < 0) reduced.push_back(l);
    }
    residual_.push_back(std::move(reduced));
  }
  return true;
}

void ConeSlicer::BuildComponents(const std::vector<bool>& min_model) {
  Dsu dsu(num_vars_);
  for (const auto& clause : residual_) {
    for (size_t i = 1; i < clause.size(); ++i) {
      dsu.Union(LitVar(clause[0]), LitVar(clause[i]));
    }
  }
  // Components numbered in order of their smallest variable, for a
  // deterministic layout.
  comp_of_.assign(num_vars_, UINT32_MAX);
  std::unordered_map<uint32_t, uint32_t> comp_of_root;
  for (uint32_t v = 0; v < num_vars_; ++v) {
    if (state_[v] != VarState::kOpen) continue;
    uint32_t root = dsu.Find(v);
    auto it = comp_of_root.find(root);
    if (it == comp_of_root.end()) {
      it = comp_of_root.emplace(root, static_cast<uint32_t>(comps_.size()))
               .first;
      comps_.emplace_back();
    }
    comp_of_[v] = it->second;
    Component& comp = comps_[it->second];
    comp.vars.push_back(v);
    // The global optimum restricted to a component is that component's
    // optimum: k_i and a witness come for free from the model.
    if (v < min_model.size() && min_model[v]) {
      comp.true_vars.push_back(v);
      ++comp.cost;
    }
  }
  for (size_t ci = 0; ci < residual_.size(); ++ci) {
    uint32_t c = comp_of_[LitVar(residual_[ci][0])];
    comps_[c].clauses.push_back(static_cast<uint32_t>(ci));
  }
}

ConeSlicer::ReducedAnswer ConeSlicer::Reduce(
    const std::vector<std::vector<TupleId>>& monomials,
    const std::function<int64_t(TupleId)>& var_of) const {
  ReducedAnswer out;
  for (const auto& mono : monomials) {
    bool has_var = false;
    bool dead = false;
    std::vector<uint32_t> open;
    for (TupleId tid : mono) {
      int64_t v = var_of(tid);
      if (v < 0) continue;  // kept by every minimum repair
      has_var = true;
      VarState s = state_[static_cast<uint32_t>(v)];
      if (s == VarState::kForcedDeleted) {
        dead = true;
        break;
      }
      if (s == VarState::kOpen) open.push_back(static_cast<uint32_t>(v));
    }
    if (dead) continue;  // this derivation dies in every minimum repair
    if (!has_var) {
      // No minimum repair deletes a tuple of this derivation: a tuple
      // without a variable lies outside the reachable part of Algorithm
      // 1's CNF. A larger stabilizing set still may.
      return ReducedAnswer{true, false, false, {}, {}};
    }
    if (open.empty()) {
      out.alive = true;  // survives every minimum repair as-is
      continue;
    }
    std::sort(open.begin(), open.end());
    open.erase(std::unique(open.begin(), open.end()), open.end());
    out.monomials.push_back(std::move(open));
  }
  if (out.alive) {
    out.monomials.clear();
    return out;
  }
  if (out.monomials.empty()) {
    out.no_survivor = true;
    return out;
  }
  for (const auto& mono : out.monomials) {
    out.seeds.insert(out.seeds.end(), mono.begin(), mono.end());
  }
  std::sort(out.seeds.begin(), out.seeds.end());
  out.seeds.erase(std::unique(out.seeds.begin(), out.seeds.end()),
                  out.seeds.end());
  return out;
}

const ConeSlicer::Slice& ConeSlicer::GetSlice(
    const std::vector<uint32_t>& seed_open_vars) {
  std::vector<uint32_t> comps;
  comps.reserve(seed_open_vars.size());
  for (uint32_t v : seed_open_vars) comps.push_back(comp_of_[v]);
  std::sort(comps.begin(), comps.end());
  comps.erase(std::unique(comps.begin(), comps.end()), comps.end());

  size_t total_vars = 0;
  for (uint32_t c : comps) total_vars += comps_[c].vars.size();

  uint64_t key = Mix1(0xfedcba0987654321ULL, comps.size());
  for (uint32_t c : comps) key = Mix1(key, c);

  std::lock_guard<std::mutex> lock(mu_);
  auto it = slices_.find(key);
  if (it != slices_.end() && it->second->comps == comps) {
    return *it->second;
  }

  Span span("cone.slice");
  span.SetArg("vars", total_vars);
  span.SetArg("components", comps.size());
  ScopedTimer timer(&build_stats_.slice_seconds);
  auto slice = std::make_unique<Slice>();
  slice->comps = comps;
  slice->global_of_local.reserve(total_vars);
  for (uint32_t c : comps) {
    for (uint32_t v : comps_[c].vars) {
      slice->local_of_global.emplace(
          v, static_cast<uint32_t>(slice->global_of_local.size()));
      slice->global_of_local.push_back(v);
    }
  }
  slice->cnf.set_num_vars(static_cast<uint32_t>(total_vars));
  for (uint32_t c : comps) {
    const Component& comp = comps_[c];
    slice->cone_cost += comp.cost;
    for (uint32_t ci : comp.clauses) {
      std::vector<Lit> local;
      local.reserve(residual_[ci].size());
      for (Lit l : residual_[ci]) {
        uint32_t lv = slice->local_of_global.at(LitVar(l));
        local.push_back(LitSign(l) ? PosLit(lv) : NegLit(lv));
      }
      slice->cnf.AddClause(std::move(local));
    }
    // Cap this component's local deletions at its share of the global
    // optimum (vacuous when every variable is deleted — skip).
    if (comp.cost < comp.vars.size()) {
      Slice::Cap cap;
      cap.bound = comp.cost;
      cap.inputs.reserve(comp.vars.size());
      for (uint32_t v : comp.vars) {
        cap.inputs.push_back(PosLit(slice->local_of_global.at(v)));
      }
      slice->caps.push_back(std::move(cap));
    }
  }
  build_stats_.cone_vars += total_vars;
  build_stats_.cone_clauses += slice->cnf.num_clauses();
  const Slice& result = *slice;
  // A 64-bit key collision between distinct component sets would serve
  // the wrong slice; keep the old entry and hand out this one unmemoized.
  if (it == slices_.end()) slices_[key] = std::move(slice);
  else orphaned_.push_back(std::move(slice));
  return result;
}

std::vector<uint32_t> ConeSlicer::ComposeKiller(
    const Slice& slice, const std::vector<bool>& local_model) const {
  std::vector<uint32_t> out = forced_deleted_;
  std::vector<bool> in_cone(comps_.size(), false);
  for (uint32_t c : slice.comps) in_cone[c] = true;
  for (uint32_t c = 0; c < comps_.size(); ++c) {
    if (in_cone[c]) continue;
    out.insert(out.end(), comps_[c].true_vars.begin(),
               comps_[c].true_vars.end());
  }
  for (uint32_t lv = 0; lv < slice.global_of_local.size(); ++lv) {
    if (lv < local_model.size() && local_model[lv]) {
      out.push_back(slice.global_of_local[lv]);
    }
  }
  return out;
}

SliceStats ConeSlicer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return build_stats_;
}

}  // namespace deltarepair
