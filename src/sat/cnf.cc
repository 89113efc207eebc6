#include "sat/cnf.h"

#include <algorithm>
#include <cstring>

#include "common/hash.h"
#include "common/status.h"

namespace deltarepair {

bool Cnf::AddClause(std::vector<Lit> lits) {
  lits_.insert(lits_.end(), lits.begin(), lits.end());
  return EndClause();
}

bool Cnf::EndClause() {
  if (starts_.empty()) starts_.push_back(0);
  // The open clause is the pool's tail past the last clause's end.
  Lit* const begin = lits_.data() + starts_.back();
  Lit* const end = lits_.data() + lits_.size();
  std::sort(begin, end, [](Lit a, Lit b) {
    return LitVar(a) != LitVar(b) ? LitVar(a) < LitVar(b) : a < b;
  });
  // Compact in place: [begin, kept) is the clause so far.
  Lit* kept = begin;
  for (const Lit* it = begin; it != end; ++it) {
    const Lit l = *it;
    DR_CHECK(l != 0);
    Touch(LitVar(l));
    if (kept != begin && kept[-1] == l) continue;  // duplicate literal
    if (kept != begin && LitVar(kept[-1]) == LitVar(l)) {
      lits_.resize(starts_.back());
      return false;  // x and ¬x together: tautology, drop the clause
    }
    *kept++ = l;
  }
  lits_.resize(static_cast<size_t>(kept - lits_.data()));
  starts_.push_back(static_cast<uint32_t>(lits_.size()));
  normalized_ = false;
  return true;
}

Cnf::NormalizeStats Cnf::Normalize() {
  NormalizeStats stats;
  const size_t m = num_clauses();
  normalized_ = true;
  if (m == 0) return stats;
  const ClauseRange clauses = this->clauses();
  // Duplicates: clauses are in canonical literal order (EndClause sorts),
  // so equal clauses are equal literal runs. One pass in clause order over
  // an open-addressed table of (hash, clause) slots keeps each clause's
  // first occurrence; a later clause with the same hash is compared
  // literal by literal before it is dropped.
  size_t capacity = 16;
  while (capacity < 2 * m) capacity <<= 1;
  const size_t mask = capacity - 1;
  struct Slot {
    uint32_t hash;
    uint32_t clause_plus_one;  // 0 = empty
  };
  std::vector<Slot> table(capacity, Slot{0, 0});
  std::vector<char> drop(m, 0);
  for (size_t i = 0; i < m; ++i) {
    const Clause clause = clauses[i];
    uint64_t h = Mix64(clause.size());
    for (Lit l : clause) h = HashCombine(h, static_cast<uint32_t>(l));
    const uint32_t tag = static_cast<uint32_t>(h >> 32);
    for (size_t pos = h & mask;; pos = (pos + 1) & mask) {
      Slot& slot = table[pos];
      if (slot.clause_plus_one == 0) {
        slot = Slot{tag, static_cast<uint32_t>(i + 1)};
        break;
      }
      if (slot.hash != tag) continue;
      const Clause first = clauses[slot.clause_plus_one - 1];
      if (first.size() == clause.size() &&
          std::equal(clause.begin(), clause.end(), first.begin())) {
        drop[i] = 1;
        ++stats.duplicate_clauses;
        break;
      }
    }
  }
  std::vector<Slot>().swap(table);
  // Unit literals subsume every wider clause that contains them.
  std::vector<Lit> units;
  for (size_t i = 0; i < m; ++i) {
    if (!drop[i] && clauses[i].size() == 1) units.push_back(clauses[i][0]);
  }
  if (!units.empty()) {
    std::sort(units.begin(), units.end());
    for (size_t i = 0; i < m; ++i) {
      const Clause clause = clauses[i];
      if (drop[i] || clause.size() <= 1) continue;
      for (Lit l : clause) {
        if (std::binary_search(units.begin(), units.end(), l)) {
          drop[i] = 1;
          ++stats.unit_subsumed_clauses;
          break;
        }
      }
    }
  }
  if (stats.duplicate_clauses + stats.unit_subsumed_clauses > 0) {
    // Compact the survivors to the front of the pool, in order.
    size_t keep = 0;
    size_t write = 0;
    for (size_t i = 0; i < m; ++i) {
      if (drop[i]) continue;
      const uint32_t begin = starts_[i];
      const uint32_t size = starts_[i + 1] - begin;
      if (write != begin) {
        std::memmove(lits_.data() + write, lits_.data() + begin,
                     size * sizeof(Lit));
      }
      starts_[keep++] = static_cast<uint32_t>(write);
      write += size;
    }
    starts_[keep] = static_cast<uint32_t>(write);
    starts_.resize(keep + 1);
    lits_.resize(write);
  }
  return stats;
}

bool Cnf::IsSatisfiedBy(const std::vector<bool>& model) const {
  for (const Clause clause : clauses()) {
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
                    std::to_string(num_clauses()) + "\n";
  for (const Clause clause : clauses()) {
    for (Lit l : clause) {
      out += std::to_string(l);
      out += ' ';
    }
    out += "0\n";
  }
  return out;
}

}  // namespace deltarepair
