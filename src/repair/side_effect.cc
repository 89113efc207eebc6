#include "repair/side_effect.h"

#include <unordered_set>

#include "common/string_util.h"
#include "common/timer.h"
#include "provenance/bool_formula.h"

namespace deltarepair {

namespace {

/// Builds the probe rule used to enumerate the view body (head = delta of
/// the first atom, as for DC probing — the head plays no role).
Rule MakeProbeRule(const ViewQuery& query) {
  Rule rule;
  rule.head = query.atoms[0];
  rule.head.is_delta = true;
  rule.body = query.atoms;
  rule.comparisons = query.comparisons;
  rule.var_names = query.var_names;
  DR_CHECK(ValidateRule(&rule).ok());
  return rule;
}

/// Reconstructs the value bound to `var` from an assignment.
Value BindingOf(const Database& db, const GroundAssignment& ga,
                uint32_t var) {
  for (size_t a = 0; a < ga.rule->body.size(); ++a) {
    const Atom& atom = ga.rule->body[a];
    for (size_t c = 0; c < atom.terms.size(); ++c) {
      if (atom.terms[c].is_var() && atom.terms[c].var == var) {
        return db.cell(ga.body[a], c);
      }
    }
  }
  DR_CHECK_MSG(false, "unbound head variable in view");
  return Value();
}

}  // namespace

std::string ViewQuery::ToString() const {
  std::string out;
  for (size_t i = 0; i < head_vars.size(); ++i) {
    if (i) out += ", ";
    out += head_vars[i] < var_names.size() && !var_names[head_vars[i]].empty()
               ? var_names[head_vars[i]]
               : StrFormat("v%u", head_vars[i]);
  }
  out += " <- ";
  Rule fake;
  fake.body = atoms;
  fake.comparisons = comparisons;
  fake.var_names = var_names;
  std::string rendered = fake.ToString();
  size_t pos = rendered.find(":- ");
  out += pos == std::string::npos ? rendered : rendered.substr(pos + 3);
  return out;
}

StatusOr<ViewQuery> ParseViewQuery(std::string_view text) {
  size_t arrow = text.find("<-");
  if (arrow == std::string_view::npos) {
    return Status::InvalidArgument("view query needs '<-': head <- body");
  }
  StatusOr<ParsedBody> body = ParseBody(text.substr(arrow + 2));
  if (!body.ok()) return body.status();
  ViewQuery query;
  query.atoms = std::move(body->atoms);
  query.comparisons = std::move(body->comparisons);
  query.var_names = std::move(body->var_names);
  for (const Atom& a : query.atoms) {
    if (a.is_delta) {
      return Status::InvalidArgument("views may not contain delta atoms");
    }
  }
  if (query.atoms.empty()) {
    return Status::InvalidArgument("view body needs at least one atom");
  }
  // Head: comma-separated variable names, resolved against the body's
  // variable table.
  for (const std::string& raw :
       Split(std::string(text.substr(0, arrow)), ',')) {
    std::string name = std::string(Trim(raw));
    if (name.empty()) {
      return Status::InvalidArgument("empty head variable");
    }
    int found = -1;
    for (size_t v = 0; v < query.var_names.size(); ++v) {
      if (query.var_names[v] == name) {
        found = static_cast<int>(v);
        break;
      }
    }
    if (found < 0) {
      return Status::InvalidArgument("head variable '" + name +
                                     "' does not appear in the body");
    }
    query.head_vars.push_back(static_cast<uint32_t>(found));
  }
  if (query.head_vars.empty()) {
    return Status::InvalidArgument("view needs at least one head variable");
  }
  return query;
}

Status ResolveViewQuery(ViewQuery* query, const Database& db) {
  for (Atom& a : query->atoms) {
    int idx = db.RelationIndex(a.relation);
    if (idx < 0) return Status::NotFound("unknown relation: " + a.relation);
    if (db.relation(static_cast<uint32_t>(idx)).arity() != a.terms.size()) {
      return Status::InvalidArgument("arity mismatch for " + a.relation);
    }
    a.relation_index = idx;
  }
  return Status::OK();
}

std::vector<Tuple> EvaluateView(Database* db, const ViewQuery& query) {
  Rule rule = MakeProbeRule(query);
  Grounder grounder(db);
  std::vector<Tuple> out;
  std::unordered_set<uint64_t> seen;
  grounder.EnumerateRule(rule, 0, BaseMatch::kLive, DeltaMatch::kCurrent,
                         [&](const GroundAssignment& ga) {
                           Tuple t;
                           t.reserve(query.head_vars.size());
                           for (uint32_t v : query.head_vars) {
                             t.push_back(BindingOf(*db, ga, v));
                           }
                           if (seen.insert(HashTuple(t)).second) {
                             out.push_back(std::move(t));
                           }
                           return true;
                         });
  return out;
}

StatusOr<SideEffectResult> MinimalSourceSideEffect(
    Database* db, const ViewQuery& query, const Tuple& target,
    const Program& delta_program, const MinOnesOptions& options) {
  if (target.size() != query.head_vars.size()) {
    return Status::InvalidArgument(
        StrFormat("target arity %zu != view arity %zu", target.size(),
                  query.head_vars.size()));
  }
  WallTimer total;
  SideEffectResult result;
  DeletionCnfBuilder builder;

  // (1) Derivation-breaking clauses: for every assignment whose head
  // projection equals the target, at least one supporting tuple must go.
  {
    ScopedTimer t(&result.stats.eval_seconds);
    Rule rule = MakeProbeRule(query);
    Grounder grounder(db);
    grounder.EnumerateRule(
        rule, 0, BaseMatch::kLive, DeltaMatch::kCurrent,
        [&](const GroundAssignment& ga) {
          for (size_t i = 0; i < query.head_vars.size(); ++i) {
            if (!(BindingOf(*db, ga, query.head_vars[i]) == target[i])) {
              return true;  // different view tuple
            }
          }
          ++result.derivations;
          Cnf& cnf = builder.mutable_cnf();
          for (const TupleId& t : ga.body) {
            cnf.PushLit(PosLit(builder.VarOf(t)));
          }
          cnf.EndClause();
          return true;
        });

    // (2) Stability clauses of the delta program (Algorithm 1).
    for (size_t i = 0; i < delta_program.rules().size(); ++i) {
      grounder.EnumerateRule(delta_program.rules()[i], static_cast<int>(i),
                             BaseMatch::kLive, DeltaMatch::kHypothetical,
                             [&](const GroundAssignment& ga) {
                               builder.AddAssignment(ga);
                               return true;
                             });
    }
    result.stats.assignments = grounder.assignments_enumerated();
  }
  {
    ScopedTimer t(&result.stats.process_prov_seconds);
    builder.Normalize();
  }
  result.stats.cnf_vars = builder.num_vars();
  result.stats.cnf_clauses = builder.cnf().num_clauses();
  result.stats.cnf_dup_clauses = builder.normalize_stats().duplicate_clauses;
  result.stats.cnf_subsumed_clauses =
      builder.normalize_stats().unit_subsumed_clauses;

  MinOnesResult solved;
  {
    ScopedTimer t(&result.stats.solve_seconds);
    solved = MinOnesSat(builder.cnf(), options);
  }
  if (!solved.satisfiable) {
    return Status::Internal("side-effect encoding unsatisfiable");
  }
  result.optimal = solved.optimal;
  result.stats.optimal = solved.optimal;
  result.stats.AddSolver(solved.solver);
  for (uint32_t v = 0; v < builder.num_vars(); ++v) {
    if (solved.model[v]) result.deleted.push_back(builder.TupleOfVar(v));
  }
  std::sort(result.deleted.begin(), result.deleted.end());
  result.stats.total_seconds = total.ElapsedSeconds();
  return result;
}

}  // namespace deltarepair
