#include "cqa/query.h"

#include <algorithm>

#include "common/string_util.h"
#include "datalog/grounder.h"
#include "datalog/parser.h"
#include "relation/instance_view.h"
#include "repair/repair_options.h"

namespace deltarepair {

namespace {

/// Where each head term's value comes from in a ground assignment: a
/// constant's code, or (body atom, column) of the variable's first
/// occurrence.
struct HeadSource {
  bool is_const = false;
  Code constant = 0;
  int atom = -1;
  int column = -1;
};

/// Answer codes of one GroundQuery call. A head constant the dictionary
/// lacks gets a call-local code past the dictionary's ids (the database
/// is read-only while grounding, so no stored cell can take it).
class AnswerCodes {
 public:
  explicit AnswerCodes(const ValueDict& dict) : dict_(dict) {}

  Code Encode(const Value& v) {
    Code code;
    if (dict_.Find(v, &code)) return code;
    size_t k = 0;
    while (k < foreign_.size() && !(foreign_[k] == v)) ++k;
    if (k == foreign_.size()) foreign_.push_back(v);
    return (static_cast<Code>(dict_.size() + k) << 1) | 1;
  }

  Value Decode(Code c) const {
    if (!ValueDict::IsInline(c) && (c >> 1) >= dict_.size()) {
      return foreign_[(c >> 1) - dict_.size()];
    }
    return dict_.Decode(c);
  }

 private:
  const ValueDict& dict_;
  std::vector<Value> foreign_;
};

std::vector<HeadSource> HeadPlan(const Rule& rule, AnswerCodes* codes) {
  std::vector<HeadSource> plan;
  plan.reserve(rule.head.terms.size());
  for (const Term& t : rule.head.terms) {
    HeadSource src;
    if (t.is_const()) {
      src.is_const = true;
      src.constant = codes->Encode(t.constant);
    } else {
      for (size_t a = 0; a < rule.body.size() && src.atom < 0; ++a) {
        const auto& terms = rule.body[a].terms;
        for (size_t c = 0; c < terms.size(); ++c) {
          if (terms[c].is_var() && terms[c].var == t.var) {
            src.atom = static_cast<int>(a);
            src.column = static_cast<int>(c);
            break;
          }
        }
      }
      // ParseQueryRules guarantees head variables are body-bound.
      DR_CHECK_MSG(src.atom >= 0, "unsafe query head variable");
    }
    plan.push_back(src);
  }
  return plan;
}

/// Distinct answers keyed by their codes: a flat code array, `arity`
/// codes per answer, indexed by a hash of the codes.
class AnswerTable {
 public:
  explicit AnswerTable(size_t arity) : arity_(arity) {}

  size_t size() const { return provs_.size(); }
  const Code* codes(uint32_t a) const { return codes_.data() + a * arity_; }
  AnswerProvenance& prov(uint32_t a) { return provs_[a]; }

  /// The provenance of the answer with codes `key`, added when new.
  AnswerProvenance& FindOrAdd(const Code* key) {
    uint64_t h = 0x616e73ULL;
    for (size_t i = 0; i < arity_; ++i) h = HashCombine(h, key[i]);
    for (uint32_t a = index_.Head(h); a != RowHashTable::kNone;
         a = index_.Next(a)) {
      if (std::equal(key, key + arity_, codes(a))) return provs_[a];
    }
    const uint32_t a = static_cast<uint32_t>(provs_.size());
    codes_.insert(codes_.end(), key, key + arity_);
    index_.Add(h, a);
    provs_.emplace_back();
    return provs_.back();
  }

 private:
  size_t arity_;
  std::vector<Code> codes_;
  RowHashTable index_;
  std::vector<AnswerProvenance> provs_;
};

std::vector<TupleId> MonomialOf(const GroundAssignment& ga) {
  std::vector<TupleId> m = ga.body;
  std::sort(m.begin(), m.end());
  m.erase(std::unique(m.begin(), m.end()), m.end());
  return m;
}

}  // namespace

std::string Query::ToString() const {
  std::string out;
  for (const Rule& r : rules) {
    out += r.ToString();
    out += "\n";
  }
  return out;
}

StatusOr<Query> ParseQuery(std::string_view text) {
  StatusOr<std::vector<Rule>> rules = ParseQueryRules(text);
  if (!rules.ok()) return rules.status();
  Query query;
  query.head_name = rules.value().front().head.relation;
  query.arity = rules.value().front().head.terms.size();
  for (const Rule& r : rules.value()) {
    if (r.head.relation != query.head_name) {
      return Status::InvalidArgument(
          "query rules must share one head predicate: " + query.head_name +
          " vs " + r.head.relation);
    }
    if (r.head.terms.size() != query.arity) {
      return Status::InvalidArgument(StrFormat(
          "query head arity mismatch for %s: %zu vs %zu",
          query.head_name.c_str(), query.arity, r.head.terms.size()));
    }
  }
  query.rules = std::move(rules).value();
  return query;
}

Status ResolveQuery(Query* query, const Database& db) {
  for (Rule& rule : query->rules) {
    for (Atom& a : rule.body) {
      int idx = db.RelationIndex(a.relation);
      if (idx < 0) {
        return Status::NotFound("unknown relation in query: " + a.relation);
      }
      if (db.relation(static_cast<uint32_t>(idx)).arity() !=
          a.terms.size()) {
        return Status::InvalidArgument(StrFormat(
            "arity mismatch for %s: schema %zu vs atom %zu",
            a.relation.c_str(),
            db.relation(static_cast<uint32_t>(idx)).arity(),
            a.terms.size()));
      }
      a.relation_index = idx;
    }
  }
  return Status::OK();
}

std::map<Tuple, AnswerProvenance> GroundQuery(InstanceView* view,
                                              const Query& query,
                                              ExecContext* ctx) {
  AnswerCodes answer_codes(view->db().dict());
  AnswerTable table(query.arity);
  std::vector<Code> key(query.arity);
  Grounder grounder(view);
  for (size_t i = 0; i < query.rules.size(); ++i) {
    if (ctx != nullptr && ctx->stopped()) break;
    const Rule& rule = query.rules[i];
    std::vector<HeadSource> plan = HeadPlan(rule, &answer_codes);
    grounder.EnumerateRule(
        rule, static_cast<int>(i), BaseMatch::kLive, DeltaMatch::kCurrent,
        [&](const GroundAssignment& ga) {
          if (ctx != nullptr && ctx->Tick()) return false;
          for (size_t k = 0; k < plan.size(); ++k) {
            const HeadSource& src = plan[k];
            if (src.is_const) {
              key[k] = src.constant;
            } else {
              const TupleId t = ga.body[src.atom];
              key[k] = view->relation(t.relation).codes(t.row)[src.column];
            }
          }
          table.FindOrAdd(key.data()).monomials.push_back(MonomialOf(ga));
          return true;
        });
  }
  // Decode each distinct answer once; Tuple keys order the result.
  std::map<Tuple, AnswerProvenance> answers;
  for (uint32_t a = 0; a < table.size(); ++a) {
    Tuple answer;
    answer.reserve(query.arity);
    for (size_t k = 0; k < query.arity; ++k) {
      answer.push_back(answer_codes.Decode(table.codes(a)[k]));
    }
    AnswerProvenance& prov = table.prov(a);
    std::sort(prov.monomials.begin(), prov.monomials.end());
    prov.monomials.erase(
        std::unique(prov.monomials.begin(), prov.monomials.end()),
        prov.monomials.end());
    answers.emplace(std::move(answer), std::move(prov));
  }
  return answers;
}

std::vector<Tuple> EvalQuery(InstanceView* view, const Query& query) {
  std::map<Tuple, AnswerProvenance> grounded =
      GroundQuery(view, query, nullptr);
  std::vector<Tuple> out;
  out.reserve(grounded.size());
  for (auto& [answer, prov] : grounded) out.push_back(answer);
  return out;
}

}  // namespace deltarepair
