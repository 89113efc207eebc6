#include "datalog/ast.h"

#include <unordered_set>

#include "common/string_util.h"

namespace deltarepair {

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

bool EvalCmp(const Value& lhs, CmpOp op, const Value& rhs) {
  switch (op) {
    case CmpOp::kEq:
      return lhs == rhs;
    case CmpOp::kNe:
      return lhs != rhs;
    case CmpOp::kLt:
      return lhs < rhs;
    case CmpOp::kLe:
      return lhs <= rhs;
    case CmpOp::kGt:
      return lhs > rhs;
    case CmpOp::kGe:
      return lhs >= rhs;
  }
  return false;
}

bool CmpHolds(CmpOp op, int three_way) {
  switch (op) {
    case CmpOp::kEq:
      return three_way == 0;
    case CmpOp::kNe:
      return three_way != 0;
    case CmpOp::kLt:
      return three_way < 0;
    case CmpOp::kLe:
      return three_way <= 0;
    case CmpOp::kGt:
      return three_way > 0;
    case CmpOp::kGe:
      return three_way >= 0;
  }
  return false;
}

int Rule::NumDeltaBodyAtoms() const {
  int n = 0;
  for (const auto& a : body) n += a.is_delta ? 1 : 0;
  return n;
}

namespace {

std::string TermToString(const Term& t, const std::vector<std::string>& names) {
  if (t.is_const()) return t.constant.ToString();
  if (t.var < names.size() && !names[t.var].empty()) return names[t.var];
  return StrFormat("v%u", t.var);
}

std::string AtomToString(const Atom& a, const std::vector<std::string>& names) {
  std::string out = a.is_delta ? "~" + a.relation : a.relation;
  out += "(";
  for (size_t i = 0; i < a.terms.size(); ++i) {
    if (i) out += ", ";
    out += TermToString(a.terms[i], names);
  }
  out += ")";
  return out;
}

}  // namespace

std::string Rule::ToString() const {
  std::string out = AtomToString(head, var_names) + " :- ";
  bool first = true;
  for (const auto& a : body) {
    if (!first) out += ", ";
    first = false;
    out += AtomToString(a, var_names);
  }
  for (const auto& c : comparisons) {
    if (!first) out += ", ";
    first = false;
    out += TermToString(c.lhs, var_names);
    out += " ";
    out += CmpOpName(c.op);
    out += " ";
    out += TermToString(c.rhs, var_names);
  }
  out += ".";
  return out;
}

std::string Program::ToString() const {
  std::string out;
  if (!name_.empty()) out += "% program: " + name_ + "\n";
  for (const auto& r : rules_) {
    out += r.ToString();
    out += "\n";
  }
  return out;
}

Status ValidateRule(Rule* rule) {
  if (!rule->head.is_delta) {
    return Status::InvalidArgument("rule head must be a delta atom: " +
                                   rule->head.relation);
  }
  for (const auto& a : rule->body) {
    if (a.relation.empty()) {
      return Status::InvalidArgument("body atom with empty relation");
    }
  }
  // Locate the self atom: a non-delta body atom over the head's relation
  // with exactly the head's terms (Def. 3.1).
  rule->self_atom = -1;
  for (size_t i = 0; i < rule->body.size(); ++i) {
    const Atom& a = rule->body[i];
    if (a.is_delta || a.relation != rule->head.relation) continue;
    if (a.terms.size() != rule->head.terms.size()) continue;
    bool same = true;
    for (size_t j = 0; j < a.terms.size(); ++j) {
      if (!(a.terms[j] == rule->head.terms[j])) {
        same = false;
        break;
      }
    }
    if (same) {
      rule->self_atom = static_cast<int>(i);
      break;
    }
  }
  if (rule->self_atom < 0) {
    return Status::InvalidArgument(
        "delta rule must contain the base atom R(X) matching its head "
        "~R(X): " +
        rule->head.relation);
  }
  // Collect body variables; compute num_vars; check comparison safety.
  std::unordered_set<uint32_t> body_vars;
  uint32_t max_var = 0;
  bool any_var = false;
  for (const auto& a : rule->body) {
    for (const auto& t : a.terms) {
      if (t.is_var()) {
        body_vars.insert(t.var);
        max_var = std::max(max_var, t.var);
        any_var = true;
      }
    }
  }
  for (const auto& t : rule->head.terms) {
    if (t.is_var() && !body_vars.count(t.var)) {
      return Status::InvalidArgument("unsafe head variable in rule for " +
                                     rule->head.relation);
    }
  }
  for (const auto& c : rule->comparisons) {
    for (const Term* t : {&c.lhs, &c.rhs}) {
      if (t->is_var() && !body_vars.count(t->var)) {
        return Status::InvalidArgument(
            "comparison uses a variable not bound in the body");
      }
    }
  }
  rule->num_vars = any_var ? max_var + 1 : 0;
  if (rule->var_names.size() < rule->num_vars) {
    rule->var_names.resize(rule->num_vars);
  }
  return Status::OK();
}

Status ResolveProgram(Program* program, const Database& db) {
  for (auto& rule : program->rules()) {
    DR_RETURN_IF_ERROR(ValidateRule(&rule));
    auto resolve_atom = [&](Atom* a) -> Status {
      int idx = db.RelationIndex(a->relation);
      if (idx < 0) {
        return Status::NotFound("unknown relation: " + a->relation);
      }
      if (db.relation(static_cast<uint32_t>(idx)).arity() != a->terms.size()) {
        return Status::InvalidArgument(StrFormat(
            "arity mismatch for %s: schema %zu vs atom %zu",
            a->relation.c_str(), db.relation(static_cast<uint32_t>(idx)).arity(),
            a->terms.size()));
      }
      a->relation_index = idx;
      return Status::OK();
    };
    DR_RETURN_IF_ERROR(resolve_atom(&rule.head));
    for (auto& a : rule.body) {
      DR_RETURN_IF_ERROR(resolve_atom(&a));
    }
  }
  return Status::OK();
}

}  // namespace deltarepair
