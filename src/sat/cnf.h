// CNF formulas over Boolean variables. Literals use DIMACS conventions:
// +(v+1) for variable v, -(v+1) for its negation. This is the target
// representation of Algorithm 1: the negated provenance formula ¬F is a
// conjunction of clauses, one per possible rule assignment (Sec. 5.1).
#ifndef DELTAREPAIR_SAT_CNF_H_
#define DELTAREPAIR_SAT_CNF_H_

#include <cstdint>
#include <string>
#include <vector>

namespace deltarepair {

using Lit = int32_t;

inline Lit PosLit(uint32_t var) { return static_cast<Lit>(var) + 1; }
inline Lit NegLit(uint32_t var) { return -(static_cast<Lit>(var) + 1); }
inline uint32_t LitVar(Lit l) { return static_cast<uint32_t>((l < 0 ? -l : l) - 1); }
inline bool LitSign(Lit l) { return l > 0; }  // true = positive

/// A CNF formula: conjunction of clauses, each a disjunction of literals.
class Cnf {
 public:
  Cnf() = default;
  explicit Cnf(uint32_t num_vars) : num_vars_(num_vars) {}

  uint32_t num_vars() const { return num_vars_; }
  void set_num_vars(uint32_t n) { num_vars_ = n; }

  /// Ensures the variable exists; returns it unchanged.
  uint32_t Touch(uint32_t var) {
    if (var >= num_vars_) num_vars_ = var + 1;
    return var;
  }

  /// Adds a clause. Duplicate literals are removed; tautological clauses
  /// (x ∨ ¬x) are dropped. Returns true if the clause was kept.
  bool AddClause(std::vector<Lit> lits);

  size_t num_clauses() const { return clauses_.size(); }
  const std::vector<std::vector<Lit>>& clauses() const { return clauses_; }

  /// Moves the clauses out, leaving no clauses (num_vars is kept).
  std::vector<std::vector<Lit>> TakeClauses() {
    std::vector<std::vector<Lit>> out;
    out.swap(clauses_);
    return out;
  }

  /// What Normalize() dropped (satisfiability-preserving).
  struct NormalizeStats {
    uint64_t duplicate_clauses = 0;    // textually identical repeats
    uint64_t unit_subsumed_clauses = 0;  // wider clauses containing a unit
  };

  /// Normalizes the clause set before solving: drops duplicate clauses
  /// and clauses subsumed by a unit clause (any clause containing the
  /// unit's literal is implied by it). Repeated ground assignments emit
  /// exactly these shapes, so the counters are worth reporting.
  NormalizeStats Normalize();

  /// True if `model` (indexed by variable) satisfies every clause.
  bool IsSatisfiedBy(const std::vector<bool>& model) const;

  /// DIMACS-ish rendering for debugging.
  std::string ToString() const;

 private:
  uint32_t num_vars_ = 0;
  std::vector<std::vector<Lit>> clauses_;
};

}  // namespace deltarepair

#endif  // DELTAREPAIR_SAT_CNF_H_
