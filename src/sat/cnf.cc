#include "sat/cnf.h"

#include <algorithm>
#include <set>

#include "common/status.h"

namespace deltarepair {

bool Cnf::AddClause(std::vector<Lit> lits) {
  std::sort(lits.begin(), lits.end(),
            [](Lit a, Lit b) {
              return LitVar(a) != LitVar(b) ? LitVar(a) < LitVar(b) : a < b;
            });
  // Compact in place: lits[0, kept) is the clause so far.
  size_t kept = 0;
  for (size_t i = 0; i < lits.size(); ++i) {
    const Lit l = lits[i];
    DR_CHECK(l != 0);
    Touch(LitVar(l));
    if (kept > 0 && lits[kept - 1] == l) continue;  // duplicate literal
    if (kept > 0 && LitVar(lits[kept - 1]) == LitVar(l)) {
      return false;  // x and ¬x together: tautology, drop the clause
    }
    lits[kept++] = l;
  }
  lits.resize(kept);
  clauses_.push_back(std::move(lits));
  return true;
}

Cnf::NormalizeStats Cnf::Normalize() {
  NormalizeStats stats;
  const size_t m = clauses_.size();
  // Duplicate detection without per-clause key copies: clauses are
  // already in canonical literal order (AddClause sorts), so sorting
  // clause *indices* lexicographically puts duplicates side by side.
  std::vector<uint32_t> order(m);
  for (size_t i = 0; i < m; ++i) order[i] = static_cast<uint32_t>(i);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return clauses_[a] < clauses_[b];
  });
  std::vector<char> drop(m, 0);
  for (size_t i = 1; i < m; ++i) {
    if (clauses_[order[i]] == clauses_[order[i - 1]]) {
      drop[order[i]] = 1;
      ++stats.duplicate_clauses;
    }
  }
  // Unit literals subsume every wider clause that contains them.
  std::vector<Lit> units;
  for (size_t i = 0; i < m; ++i) {
    if (!drop[i] && clauses_[i].size() == 1) units.push_back(clauses_[i][0]);
  }
  if (!units.empty()) {
    std::sort(units.begin(), units.end());
    for (size_t i = 0; i < m; ++i) {
      if (drop[i] || clauses_[i].size() <= 1) continue;
      for (Lit l : clauses_[i]) {
        if (std::binary_search(units.begin(), units.end(), l)) {
          drop[i] = 1;
          ++stats.unit_subsumed_clauses;
          break;
        }
      }
    }
  }
  if (stats.duplicate_clauses + stats.unit_subsumed_clauses > 0) {
    size_t keep = 0;
    for (size_t i = 0; i < m; ++i) {
      if (!drop[i]) {
        if (keep != i) clauses_[keep] = std::move(clauses_[i]);
        ++keep;
      }
    }
    clauses_.resize(keep);
  }
  return stats;
}

bool Cnf::IsSatisfiedBy(const std::vector<bool>& model) const {
  for (const auto& clause : clauses_) {
    bool sat = false;
    for (Lit l : clause) {
      uint32_t v = LitVar(l);
      bool val = v < model.size() ? model[v] : false;
      if (val == LitSign(l)) {
        sat = true;
        break;
      }
    }
    if (!sat) return false;
  }
  return true;
}

std::string Cnf::ToString() const {
  std::string out = "p cnf " + std::to_string(num_vars_) + " " +
                    std::to_string(clauses_.size()) + "\n";
  for (const auto& clause : clauses_) {
    for (Lit l : clause) {
      out += std::to_string(l);
      out += ' ';
    }
    out += "0\n";
  }
  return out;
}

}  // namespace deltarepair
