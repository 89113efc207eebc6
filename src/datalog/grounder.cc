#include "datalog/grounder.h"

#include <algorithm>

#include "obs/trace.h"

namespace deltarepair {

namespace {

/// `op` with its sides swapped: a < b exactly when b > a.
CmpOp Mirror(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return CmpOp::kGt;
    case CmpOp::kLe:
      return CmpOp::kGe;
    case CmpOp::kGt:
      return CmpOp::kLt;
    case CmpOp::kGe:
      return CmpOp::kLe;
    default:
      return op;
  }
}

}  // namespace

Grounder::Plan Grounder::MakePlan(const Rule& rule, int pivot_atom) const {
  const ValueDict& dict = view_->db().dict();
  const size_t n = rule.body.size();
  Plan plan;
  std::vector<PlanStep>& steps = plan.steps;
  std::vector<uint8_t> chosen(n, 0);
  std::vector<uint8_t> var_bound(rule.num_vars, 0);
  steps.reserve(n);

  auto bind_atom_vars = [&](int atom) {
    for (const auto& t : rule.body[atom].terms) {
      if (t.is_var()) var_bound[t.var] = 1;
    }
  };
  auto bound_score = [&](int atom) {
    int score = 0;
    for (const auto& t : rule.body[atom].terms) {
      if (t.is_const() || var_bound[t.var]) ++score;
    }
    return score;
  };

  if (pivot_atom >= 0) {
    PlanStep step;
    step.atom = pivot_atom;
    steps.push_back(std::move(step));
    chosen[pivot_atom] = 1;
    bind_atom_vars(pivot_atom);
  }
  while (steps.size() < n) {
    int best = -1;
    int best_score = -1;
    size_t best_rows = 0;
    for (size_t i = 0; i < n; ++i) {
      if (chosen[i]) continue;
      int score = bound_score(static_cast<int>(i));
      // Tie-break on the *live* cardinality: late in a deletion cascade
      // most row slots can be dead, and counting them would order the
      // join by a stale size.
      size_t rows =
          view_->rel(static_cast<uint32_t>(rule.body[i].relation_index))
              .live_count();
      if (score > best_score || (score == best_score && rows < best_rows)) {
        best = static_cast<int>(i);
        best_score = score;
        best_rows = rows;
      }
    }
    PlanStep step;
    step.atom = best;
    steps.push_back(std::move(step));
    chosen[best] = 1;
    bind_atom_vars(best);
  }

  // `var = constant` comparisons fix their variable to the constant's
  // code. The comparison is then implied by the probe key of the step
  // that first binds the variable, and is not checked again.
  std::vector<uint8_t> cmp_done(rule.comparisons.size(), 0);
  auto fixed_code = [&](uint32_t var) -> const Code* {
    for (const auto& [v, code] : plan.fixed) {
      if (v == var) return &code;
    }
    return nullptr;
  };
  for (size_t c = 0; c < rule.comparisons.size(); ++c) {
    const Comparison& cmp = rule.comparisons[c];
    if (cmp.op != CmpOp::kEq || cmp.lhs.is_var() == cmp.rhs.is_var()) {
      continue;
    }
    const uint32_t var = cmp.lhs.is_var() ? cmp.lhs.var : cmp.rhs.var;
    const Value& constant =
        cmp.lhs.is_var() ? cmp.rhs.constant : cmp.lhs.constant;
    Code code;
    const Code* fixed = fixed_code(var);
    if (!dict.Find(constant, &code) || (fixed != nullptr && *fixed != code)) {
      plan.empty = true;
      return plan;
    }
    if (fixed == nullptr) plan.fixed.emplace_back(var, code);
    cmp_done[c] = 1;
  }

  // Per step: the column ops and probe mask, and each comparison attached
  // to the earliest plan step at which both sides are bound. All depend
  // only on the binding *order*, never on row values, so they are fixed
  // here instead of being recomputed in the hot join loop.
  // Constant-only comparisons are checked once per EnumerateRule call.
  std::fill(var_bound.begin(), var_bound.end(), 0);
  for (PlanStep& step : steps) {
    const Atom& atom = rule.body[step.atom];
    for (size_t c = 0; c < atom.terms.size(); ++c) {
      const Term& t = atom.terms[c];
      ColumnOp op;
      op.column = static_cast<uint32_t>(c);
      if (t.is_const()) {
        op.kind = ColumnOp::kConst;
        // A constant without a code matches no stored cell.
        if (!dict.Find(t.constant, &op.constant)) {
          plan.empty = true;
          return plan;
        }
      } else if (fixed_code(t.var) != nullptr && var_bound[t.var] != 1) {
        // First bound at this step: every column holding it is a key
        // column with the fixed code.
        op.kind = ColumnOp::kConst;
        op.constant = *fixed_code(t.var);
        var_bound[t.var] = 2;
      } else {
        op.var = t.var;
        op.kind = var_bound[t.var] ? ColumnOp::kCheck : ColumnOp::kBind;
        // 2 = bound by an earlier column of this atom: checked against
        // that cell, but not known at probe time, so not part of the key.
        if (!var_bound[t.var]) var_bound[t.var] = 2;
      }
      if (op.kind == ColumnOp::kConst || var_bound[op.var] == 1) {
        step.mask |= (1ULL << c);
        step.key.push_back(op);
      }
      step.ops.push_back(op);
    }
    for (const auto& t : atom.terms) {
      if (t.is_var()) var_bound[t.var] = 1;
    }
    for (size_t c = 0; c < rule.comparisons.size(); ++c) {
      if (cmp_done[c]) continue;
      const Comparison& cmp = rule.comparisons[c];
      auto side_ok = [&](const Term& t) {
        return t.is_const() || var_bound[t.var];
      };
      if (!side_ok(cmp.lhs) || !side_ok(cmp.rhs)) continue;
      cmp_done[c] = 1;
      if (cmp.lhs.is_const() && cmp.rhs.is_const()) continue;
      CmpCheck check;
      check.op = cmp.op;
      const Term* lhs = &cmp.lhs;
      const Term* rhs = &cmp.rhs;
      // Keep a constant without a code on the right-hand side; a
      // constant left on the left has its code in check.lhs.code.
      if (lhs->is_const() && !dict.Find(lhs->constant, &check.lhs.code)) {
        std::swap(lhs, rhs);
        check.op = Mirror(check.op);
      }
      check.lhs.is_var = lhs->is_var();
      if (lhs->is_var()) check.lhs.var = lhs->var;
      check.rhs.is_var = rhs->is_var();
      if (rhs->is_var()) {
        check.rhs.var = rhs->var;
      } else if (!dict.Find(rhs->constant, &check.rhs.code)) {
        // No cell equals it: `!=` always holds (`=` made the plan empty).
        if (check.op == CmpOp::kNe) continue;
        check.foreign = &rhs->constant;
      }
      step.cmp_checks.push_back(check);
    }
  }
  return plan;
}

bool Grounder::EnumerateRule(const Rule& rule, int rule_index, BaseMatch bm,
                             DeltaMatch dm, const AssignmentCallback& cb,
                             int pivot_atom,
                             const std::vector<uint32_t>* pivot_rows) {
  // Delta rules carry a validated self atom; query rules (cqa) have a
  // plain head, self_atom == -1, and ground with an invalid head id.
  DR_CHECK_MSG(rule.self_atom >= 0 || !rule.head.is_delta,
               "rule not validated");
  Span span("ground.enumerate_rule");
  span.SetArg("rule", static_cast<uint64_t>(rule_index));
  const uint64_t assignments_before = assignments_enumerated_;
  uint64_t probes = 0;
  uint64_t rows_visited = 0;
  Plan plan = MakePlan(rule, pivot_atom);
  std::vector<PlanStep>& steps = plan.steps;
  const ValueDict& dict = view_->db().dict();
  // Bindings: the code each variable is bound to.
  std::vector<Code> values(rule.num_vars, 0);
  for (const auto& [var, code] : plan.fixed) values[var] = code;
  // The one assignment every leaf overwrites: body[i] is the row bound to
  // atom i (set when its plan step binds it).
  GroundAssignment ga;
  ga.rule = &rule;
  ga.rule_index = rule_index;
  ga.body.resize(rule.body.size());

  // Comparisons between two constants never depend on bindings; check once.
  bool satisfiable = !plan.empty;
  for (const auto& cmp : rule.comparisons) {
    if (cmp.lhs.is_const() && cmp.rhs.is_const() &&
        !EvalCmp(cmp.lhs.constant, cmp.op, cmp.rhs.constant)) {
      satisfiable = false;
    }
  }

  bool keep_going = true;
  auto side = [&](const CmpCheck::Side& s) {
    return s.is_var ? values[s.var] : s.code;
  };

  // Depth-first join over plan steps.
  auto recurse = [&](auto&& self, size_t depth) -> void {
    if (depth == steps.size()) {
      ga.head = rule.self_atom >= 0 ? ga.body[rule.self_atom] : TupleId{};
      ++assignments_enumerated_;
      if (!cb(ga)) keep_going = false;
      return;
    }
    PlanStep& step = steps[depth];
    const Atom& atom = rule.body[step.atom];
    const uint32_t rel_index = static_cast<uint32_t>(atom.relation_index);
    const Relation& rel = view_->relation(rel_index);
    const RelationView& rel_view = view_->rel(rel_index);

    auto member_ok = [&](uint32_t r) {
      if (atom.is_delta) {
        // Hypothetical mode: any tuple of the current instance D could be
        // deleted (∆(D) of Algorithm 1), so delta atoms range over live
        // rows; operational mode matches actual delta membership.
        return dm == DeltaMatch::kHypothetical ? rel_view.live(r)
                                               : rel_view.delta(r);
      }
      // kAllRows still respects the view's horizon: row slots interned
      // after the view was created are not part of its instance.
      return bm == BaseMatch::kAllRows ? r < rel_view.num_rows()
                                       : rel_view.live(r);
    };

    auto try_row = [&](uint32_t r) {
      ++rows_visited;
      if (!member_ok(r)) return;
      const Code* row = rel.codes(r);
      // Verify constants and earlier bindings, bind the rest. A variable
      // bound here is simply overwritten by the next candidate row, so
      // backtracking has nothing to undo.
      for (const ColumnOp& op : step.ops) {
        const Code cell = row[op.column];
        switch (op.kind) {
          case ColumnOp::kConst:
            if (cell != op.constant) return;
            break;
          case ColumnOp::kCheck:
            if (cell != values[op.var]) return;
            break;
          case ColumnOp::kBind:
            values[op.var] = cell;
            break;
        }
      }
      for (const CmpCheck& cmp : step.cmp_checks) {
        const Code lhs = side(cmp.lhs);
        const bool holds =
            cmp.foreign != nullptr
                ? CmpHolds(cmp.op, dict.Compare(lhs, *cmp.foreign))
                : EvalCmp(dict, lhs, cmp.op, side(cmp.rhs));
        if (!holds) return;
      }
      ga.body[step.atom] = TupleId{rel_index, r};
      self(self, depth + 1);
    };

    if (depth == 0 && pivot_atom >= 0) {
      DR_CHECK(pivot_rows != nullptr);
      for (uint32_t r : *pivot_rows) {
        if (!keep_going) break;
        try_row(r);
      }
    } else if (step.mask != 0) {
      if (step.index == nullptr) step.index = rel.EnsureIndex(step.mask);
      // Hash the probe key straight from the constants and bindings.
      uint64_t h = Relation::KeyHashSeed(step.mask);
      for (const ColumnOp& op : step.key) {
        h = HashCombine(h, dict.Hash(op.kind == ColumnOp::kConst
                                         ? op.constant
                                         : values[op.var]));
      }
      ++probes;
      for (uint32_t r = step.index->Head(h);
           r != Relation::Index::kNone && keep_going;
           r = step.index->Next(r)) {
        try_row(r);
      }
    } else {
      const uint32_t n = static_cast<uint32_t>(rel_view.num_rows());
      for (uint32_t r = 0; r < n && keep_going; ++r) try_row(r);
    }
  };

  if (satisfiable) recurse(recurse, 0);
  span.SetArg("assignments", assignments_enumerated_ - assignments_before);
  span.SetArg("probes", probes);
  span.SetArg("rows_visited", rows_visited);
  return keep_going;
}

bool Grounder::EnumerateRuleDelta(
    const Rule& rule, int rule_index, BaseMatch bm, DeltaMatch dm,
    const std::vector<std::vector<uint32_t>>& rows_by_relation,
    const AssignmentCallback& cb) {
  for (int atom = 0; atom < static_cast<int>(rule.body.size()); ++atom) {
    const int rel = rule.body[atom].relation_index;
    if (rel < 0 || rel >= static_cast<int>(rows_by_relation.size())) continue;
    const std::vector<uint32_t>& rows = rows_by_relation[rel];
    if (rows.empty()) continue;
    if (!EnumerateRule(rule, rule_index, bm, dm, cb, atom, &rows))
      return false;
  }
  return true;
}

bool Grounder::AnyAssignment(const Program& program, BaseMatch bm,
                             DeltaMatch dm) {
  for (size_t i = 0; i < program.rules().size(); ++i) {
    bool found = false;
    EnumerateRule(program.rules()[i], static_cast<int>(i), bm, dm,
                  [&](const GroundAssignment&) {
                    found = true;
                    return false;  // stop after the first witness
                  });
    if (found) return true;
  }
  return false;
}

}  // namespace deltarepair
