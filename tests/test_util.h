// Shared helpers for the test suite.
#ifndef DELTAREPAIR_TESTS_TEST_UTIL_H_
#define DELTAREPAIR_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <string>
#include <vector>

#include "datalog/parser.h"
#include "relation/database.h"
#include "repair/semantics.h"

namespace deltarepair {

/// Parses a program or aborts (test fixture convenience).
inline Program MustParseProgram(const std::string& text) {
  StatusOr<Program> p = ParseProgram(text);
  if (!p.ok()) {
    std::fprintf(stderr, "parse failure: %s\n", p.status().ToString().c_str());
    std::abort();
  }
  return std::move(p).value();
}

/// Fills `db` with a hub author A(1) writing `papers` papers W(1, 100+i)
/// and returns a program deleting either side of every authorship. The
/// independent stability CNF is one component of papers + 1 variables
/// whose minimum repair deletes only the author.
inline Program MakeHubAuthorInstance(Database* db, int papers) {
  uint32_t w = db->AddRelation(MakeIntSchema("W", {"a", "p"}));
  uint32_t a = db->AddRelation(MakeIntSchema("A", {"x"}));
  for (int i = 0; i < papers; ++i) {
    db->Insert(w, {Value(int64_t{1}), Value(int64_t{100 + i})});
  }
  db->Insert(a, {Value(int64_t{1})});
  return MustParseProgram(
      "~A(x) :- A(x), W(x, p).\n"
      "~W(x, p) :- A(x), W(x, p).\n");
}

/// Sorted TupleId set from a list.
inline std::vector<TupleId> IdSet(std::vector<TupleId> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

/// Renders a deleted-set for diagnostics.
inline std::string RenderSet(const Database& db,
                             const std::vector<TupleId>& ids) {
  std::string out = "{";
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i) out += ", ";
    out += db.TupleToStr(ids[i]);
  }
  out += "}";
  return out;
}

}  // namespace deltarepair

#endif  // DELTAREPAIR_TESTS_TEST_UTIL_H_
