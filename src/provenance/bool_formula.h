// Boolean provenance for Algorithm 1 (Sec. 5.1).
//
// The provenance of each possible delta tuple is a DNF formula: one
// conjunct per assignment, where a base tuple t appears as the literal x_t
// ("t is present") and a delta tuple ∆(s) as ¬x_s ("s was deleted"). The
// disjunction F over all delta tuples is negated into a CNF ¬F whose
// satisfying assignments are exactly the stabilizing sets; flipping
// polarity (v_t := ¬x_t = "t is deleted") yields a Min-Ones instance whose
// optimum is Ind(P, D). Producers feed it only the reachable assignments
// (ReachableEval, repair/stability_model.h): the ones whose delta tuples
// the delta-free rules can trigger. That CNF has the same minimum models,
// and its variables are exactly the tuples some minimum repair could
// delete; a tuple without a variable is kept by every minimum repair.
//
// DeletionCnfBuilder constructs ¬F directly in deletion-variable polarity:
// each assignment α with base tuples {t1..tk} and delta tuples {s1..sj}
// contributes the clause (v_t1 ∨ … ∨ v_tk ∨ ¬v_s1 ∨ … ∨ ¬v_sj).
// Assignments using the same tuple as both base and delta are vacuous
// (tautological clause) and dropped.
//
// Each clause is written straight into the CNF's flat clause arena and
// put in canonical order in place (sat/cnf.h), with no vector per clause.
// Normalize() runs once, after the last assignment; the CNF then carries
// its normalized flag into Min-Ones, which skips a second pass.
#ifndef DELTAREPAIR_PROVENANCE_BOOL_FORMULA_H_
#define DELTAREPAIR_PROVENANCE_BOOL_FORMULA_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/grounder.h"
#include "sat/cnf.h"

namespace deltarepair {

class DeletionCnfBuilder {
 public:
  DeletionCnfBuilder() = default;

  /// Adds the clause of one (hypothetical) assignment, appended to the
  /// CNF's pool and canonicalized there.
  void AddAssignment(const GroundAssignment& ga) {
    DR_CHECK_MSG(ga.body.size() == ga.rule->body.size(),
                 "assignment does not match its rule");
    AddAssignment(*ga.rule, ga.body.data());
  }
  /// Same, for an assignment stored flat: `body` holds one row per atom of
  /// `rule`'s body, in body order.
  void AddAssignment(const Rule& rule, const TupleId* body);

  /// The accumulated CNF ¬F (deletion polarity).
  const Cnf& cnf() const { return cnf_; }
  Cnf& mutable_cnf() { return cnf_; }

  /// Normalizes the accumulated CNF before handing it to the solver:
  /// deduplicates identical clauses (repeated ground assignments emit
  /// them; the first occurrence survives) and drops clauses subsumed by a
  /// unit clause. Returns what was dropped; the counters stay readable
  /// via normalize_stats(), and they are the ones reports carry.
  const Cnf::NormalizeStats& Normalize() {
    normalize_stats_ = cnf_.Normalize();
    return normalize_stats_;
  }
  const Cnf::NormalizeStats& normalize_stats() const {
    return normalize_stats_;
  }

  /// Number of deletion variables (tuples of the assignments added).
  uint32_t num_vars() const { return static_cast<uint32_t>(tuple_of_.size()); }

  /// The tuple represented by variable v.
  TupleId TupleOfVar(uint32_t v) const { return tuple_of_[v]; }

  /// Variable of tuple `t`, creating it if new.
  uint32_t VarOf(TupleId t);

  /// Variable of tuple `t`, or -1 if the tuple never appears.
  int64_t FindVar(TupleId t) const;

  /// Renders the negated formula for small instances, mirroring the
  /// paper's Example 5.1, e.g. "(¬g2) ∧ (¬a2 ∨ ¬ag2 ∨ g2) ∧ …" — here in
  /// deletion polarity "(g2) ∧ (a2 ∨ ag2 ∨ ¬g2) ∧ …".
  std::string Render(const Database& db, size_t max_clauses = 64) const;

 private:
  Cnf cnf_;
  Cnf::NormalizeStats normalize_stats_;
  static constexpr uint32_t kNoVar = UINT32_MAX;

  std::vector<std::vector<uint32_t>> var_of_;  // [relation][row] -> var
  std::vector<TupleId> tuple_of_;
};

}  // namespace deltarepair

#endif  // DELTAREPAIR_PROVENANCE_BOOL_FORMULA_H_
