#include "provenance/bool_formula.h"

namespace deltarepair {

uint32_t DeletionCnfBuilder::VarOf(TupleId t) {
  if (t.relation >= var_of_.size()) var_of_.resize(t.relation + 1);
  std::vector<uint32_t>& rows = var_of_[t.relation];
  if (t.row >= rows.size()) rows.resize(t.row + 1, kNoVar);
  if (rows[t.row] == kNoVar) {
    rows[t.row] = static_cast<uint32_t>(tuple_of_.size());
    tuple_of_.push_back(t);
    cnf_.Touch(rows[t.row]);
  }
  return rows[t.row];
}

int64_t DeletionCnfBuilder::FindVar(TupleId t) const {
  if (t.relation >= var_of_.size()) return -1;
  const std::vector<uint32_t>& rows = var_of_[t.relation];
  if (t.row >= rows.size() || rows[t.row] == kNoVar) return -1;
  return rows[t.row];
}

void DeletionCnfBuilder::AddAssignment(const Rule& rule, const TupleId* body) {
  for (size_t i = 0; i < rule.body.size(); ++i) {
    uint32_t v = VarOf(body[i]);
    cnf_.PushLit(rule.body[i].is_delta ? NegLit(v) : PosLit(v));
  }
  cnf_.EndClause();  // canonical form in place; drops tautologies
}

std::string DeletionCnfBuilder::Render(const Database& db,
                                       size_t max_clauses) const {
  std::string out;
  size_t shown = 0;
  for (const Cnf::Clause clause : cnf_.clauses()) {
    if (shown == max_clauses) {
      out += " ∧ …";
      break;
    }
    if (shown) out += " ∧ ";
    out += "(";
    for (size_t i = 0; i < clause.size(); ++i) {
      if (i) out += " ∨ ";
      if (!LitSign(clause[i])) out += "¬";
      out += db.TupleToStr(tuple_of_[LitVar(clause[i])]);
    }
    out += ")";
    ++shown;
  }
  return out;
}

}  // namespace deltarepair
