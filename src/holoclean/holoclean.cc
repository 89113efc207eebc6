#include "holoclean/holoclean.h"

#include <map>
#include <unordered_map>
#include <unordered_set>

#include "common/timer.h"
#include "datalog/grounder.h"

namespace deltarepair {

namespace {

/// Column of the first occurrence of variable `var` in `atoms`, as
/// (atom index, column), or (-1, -1).
std::pair<int, int> FindVar(const std::vector<Atom>& atoms, uint32_t var) {
  for (size_t a = 0; a < atoms.size(); ++a) {
    for (size_t c = 0; c < atoms[a].terms.size(); ++c) {
      const Term& t = atoms[a].terms[c];
      if (t.is_var() && t.var == var) {
        return {static_cast<int>(a), static_cast<int>(c)};
      }
    }
  }
  return {-1, -1};
}

struct ValueKey {
  uint64_t hash;
  bool operator==(const ValueKey& o) const { return hash == o.hash; }
};

}  // namespace

Database MakeSingleTableDb(const RelationSchema& schema,
                           const std::vector<Tuple>& rows) {
  Database db;
  uint32_t rel = db.AddRelation(schema);
  for (const Tuple& t : rows) db.Insert(rel, t);
  return db;
}

HoloCleanReport RunHoloClean(Database* db, const std::string& relation,
                             const std::vector<DenialConstraint>& dcs,
                             const HoloCleanOptions& options) {
  WallTimer total;
  HoloCleanReport report;
  int rel_index = db->RelationIndex(relation);
  DR_CHECK_MSG(rel_index >= 0, "unknown relation: " + relation);
  const Relation* rel = &db->relation(static_cast<uint32_t>(rel_index));
  const RelationView& rel_view =
      db->base_view().rel(static_cast<uint32_t>(rel_index));
  const size_t arity = rel->arity();

  // Working copy of the table.
  report.rows.reserve(rel->num_rows());
  for (uint32_t r = 0; r < rel->num_rows(); ++r) {
    if (rel_view.live(r)) report.rows.push_back(rel->DecodeRow(r));
  }
  const size_t n = report.rows.size();

  std::unordered_set<uint64_t> noisy;  // packed (row << 8 | column)
  std::unordered_set<size_t> touched_rows;
  auto cell_key = [](size_t row, size_t col) {
    return (static_cast<uint64_t>(row) << 8) | static_cast<uint64_t>(col);
  };

  for (int round = 0; round < options.rounds; ++round) {
    // ---- 1. Error detection over the current working table. -------------
    noisy.clear();
    {
      ScopedTimer t(&report.detect_seconds);
      Database work = MakeSingleTableDb(rel->schema(), report.rows);
      for (const DenialConstraint& dc : dcs) {
        // Wrap as a probe rule and enumerate violating assignments.
        Rule rule;
        rule.head = dc.atoms[0];
        rule.head.is_delta = true;
        rule.body = dc.atoms;
        rule.comparisons = dc.comparisons;
        rule.var_names = dc.var_names;
        DR_CHECK(ValidateRule(&rule).ok());
        Program probe("hc-probe");
        probe.AddRule(std::move(rule));
        DR_CHECK(ResolveProgram(&probe, work).ok());
        Grounder grounder(&work);
        grounder.EnumerateRule(
            probe.rules()[0], 0, BaseMatch::kLive, DeltaMatch::kCurrent,
            [&](const GroundAssignment& ga) {
              // Cells behind inequality predicates are the noisy ones.
              for (const Comparison& cmp : dc.comparisons) {
                if (cmp.op == CmpOp::kEq) continue;
                for (const Term* term : {&cmp.lhs, &cmp.rhs}) {
                  if (!term->is_var()) continue;
                  auto [atom, col] = FindVar(dc.atoms, term->var);
                  if (atom < 0) continue;
                  noisy.insert(cell_key(ga.body[atom].row,
                                        static_cast<size_t>(col)));
                }
              }
              return true;
            });
      }
    }
    if (round == 0) report.noisy_cells = noisy.size();
    if (noisy.empty()) break;

    // ---- 2+3. Domain generation + voting inference. ----------------------
    ScopedTimer t(&report.infer_seconds);
    // Co-occurrence statistics: for each ordered attribute pair (A, B),
    // count[A][B][value_B] -> multiset of values of A.
    // Stored as: stats[a][b] : map key(value_b) -> map key(value_a) -> count
    using Counter = std::unordered_map<uint64_t, uint32_t>;
    using PairStats = std::unordered_map<uint64_t, Counter>;
    std::vector<std::vector<PairStats>> stats(
        arity, std::vector<PairStats>(arity));
    // Value dictionary so candidate values can be materialized back.
    std::unordered_map<uint64_t, Value> dict;
    auto vkey = [&](const Value& v) {
      uint64_t h = v.Hash();
      dict.emplace(h, v);
      return h;
    };
    // Marginal counts per (attribute, value).
    std::vector<Counter> marginal(arity);
    for (size_t r = 0; r < n; ++r) {
      for (size_t a = 0; a < arity; ++a) {
        uint64_t ka = vkey(report.rows[r][a]);
        ++marginal[a][ka];
        for (size_t b = 0; b < arity; ++b) {
          if (a == b) continue;
          ++stats[a][b][vkey(report.rows[r][b])][ka];
        }
      }
    }

    size_t repairs_this_round = 0;
    for (uint64_t key : noisy) {
      size_t r = static_cast<size_t>(key >> 8);
      size_t a = static_cast<size_t>(key & 0xff);
      const Value current = report.rows[r][a];
      // Candidate domain: values of attribute a co-occurring with this
      // row's other attribute values. The row's own (b, a) pair is
      // excluded — a noisy cell must not vote for itself.
      std::unordered_map<uint64_t, double> scores;
      for (size_t b = 0; b < arity; ++b) {
        if (a == b) continue;
        uint64_t kb = report.rows[r][b].Hash();
        auto it = stats[a][b].find(kb);
        if (it == stats[a][b].end()) continue;
        double denom = -1.0;  // self-exclusion
        for (const auto& [cand, cnt] : it->second) denom += cnt;
        if (denom <= 0) continue;
        for (const auto& [cand, cnt] : it->second) {
          double effective =
              static_cast<double>(cnt) - (cand == current.Hash() ? 1.0 : 0.0);
          if (effective > 0) scores[cand] += effective / denom;
        }
      }
      if (scores.empty()) continue;
      // Keep the top max_candidates by score (the rest are noise).
      std::vector<std::pair<double, uint64_t>> ranked;
      ranked.reserve(scores.size());
      for (const auto& [cand, s] : scores) ranked.emplace_back(s, cand);
      std::sort(ranked.rbegin(), ranked.rend());
      if (ranked.size() > static_cast<size_t>(options.max_candidates)) {
        ranked.resize(static_cast<size_t>(options.max_candidates));
      }
      double current_score = 0;
      auto cit = scores.find(current.Hash());
      if (cit != scores.end()) current_score = cit->second;
      const auto& best = ranked.front();
      if (best.second != current.Hash() &&
          best.first > (1.0 + options.confidence_margin) * current_score) {
        report.rows[r][a] = dict.at(best.second);
        ++repairs_this_round;
        touched_rows.insert(r);
      }
    }
    report.repaired_cells += repairs_this_round;
    if (repairs_this_round == 0) break;
  }

  report.repaired_rows = touched_rows.size();
  report.total_seconds = total.ElapsedSeconds();
  return report;
}

}  // namespace deltarepair
