#include "relation/tuple.h"

namespace deltarepair {

uint64_t HashTuple(const Tuple& t) {
  uint64_t h = kHashTupleSeed;
  for (const Value& v : t) h = HashCombine(h, v.Hash());
  return h;
}

std::string TupleToString(const Tuple& t) {
  std::string out = "(";
  for (size_t i = 0; i < t.size(); ++i) {
    if (i) out += ", ";
    out += t[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace deltarepair
