// AST for delta programs (Sec. 3.1 of the paper).
//
// A delta rule has the form
//     ∆i(X) :- Ri(X), Q1(Y1), ..., Ql(Yl), comparisons
// where each Qj is a base relation or a delta relation. The body must
// contain the "self atom" Ri(X) — the base atom over the head's relation
// with exactly the head's argument vector — so only existing tuples are
// ever deleted (Def. 3.1).
#ifndef DELTAREPAIR_DATALOG_AST_H_
#define DELTAREPAIR_DATALOG_AST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "relation/database.h"

namespace deltarepair {

/// A rule argument: variable or constant.
struct Term {
  enum class Kind : uint8_t { kVar, kConst };
  Kind kind = Kind::kVar;
  uint32_t var = 0;  // valid when kind == kVar
  Value constant;    // valid when kind == kConst

  static Term MakeVar(uint32_t v) {
    Term t;
    t.kind = Kind::kVar;
    t.var = v;
    return t;
  }
  static Term MakeConst(Value c) {
    Term t;
    t.kind = Kind::kConst;
    t.constant = std::move(c);
    return t;
  }
  bool is_var() const { return kind == Kind::kVar; }
  bool is_const() const { return kind == Kind::kConst; }

  bool operator==(const Term& o) const {
    if (kind != o.kind) return false;
    return is_var() ? var == o.var : constant == o.constant;
  }
};

/// Comparison operators allowed in rule bodies (the ◦ of Sec. 3.6).
enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CmpOpName(CmpOp op);

/// Evaluates `lhs op rhs` over concrete values.
bool EvalCmp(const Value& lhs, CmpOp op, const Value& rhs);

/// `op` applied to a three-way comparison result (<0, 0, >0).
bool CmpHolds(CmpOp op, int three_way);

/// Evaluates `lhs op rhs` over cell codes of `dict`; agrees with EvalCmp
/// on the decoded values. `=` and `!=` compare the codes alone.
inline bool EvalCmp(const ValueDict& dict, Code lhs, CmpOp op, Code rhs) {
  if (op == CmpOp::kEq) return lhs == rhs;
  if (op == CmpOp::kNe) return lhs != rhs;
  return CmpHolds(op, dict.Compare(lhs, rhs));
}

/// A comparison body item, e.g. "n = 'ERC'" or "pid < c".
struct Comparison {
  Term lhs;
  CmpOp op = CmpOp::kEq;
  Term rhs;
};

/// A relational body/head item: ∆R(terms) when is_delta, else R(terms).
struct Atom {
  std::string relation;
  int relation_index = -1;  // resolved against a Database by ResolveProgram
  bool is_delta = false;
  std::vector<Term> terms;
};

/// One delta rule. `self_atom` (set during validation) is the index of the
/// mandatory body atom Ri(X) matching the head.
struct Rule {
  Atom head;
  std::vector<Atom> body;
  std::vector<Comparison> comparisons;
  int self_atom = -1;
  uint32_t num_vars = 0;
  std::vector<std::string> var_names;  // by var id; may be synthesized

  /// Number of delta atoms in the body.
  int NumDeltaBodyAtoms() const;
  /// True if no body atom is a delta atom (rule can fire on the initial
  /// database: a seed / constraint rule).
  bool IsSeed() const { return NumDeltaBodyAtoms() == 0; }

  std::string ToString() const;
};

/// A delta program: a set of delta rules (Sec. 3.1).
class Program {
 public:
  Program() = default;
  explicit Program(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  void AddRule(Rule r) { rules_.push_back(std::move(r)); }
  const std::vector<Rule>& rules() const { return rules_; }
  std::vector<Rule>& rules() { return rules_; }
  size_t size() const { return rules_.size(); }

  std::string ToString() const;

 private:
  std::string name_;
  std::vector<Rule> rules_;
};

/// Structural validation of one rule per Def. 3.1 (head is delta; self atom
/// exists; variables used in head/comparisons appear in the body). Sets
/// rule->self_atom and rule->num_vars.
Status ValidateRule(Rule* rule);

/// Resolves every atom against `db` (relation existence + arity) and
/// validates every rule. Must be called before evaluation.
Status ResolveProgram(Program* program, const Database& db);

}  // namespace deltarepair

#endif  // DELTAREPAIR_DATALOG_AST_H_
