// Tuples and stable tuple identifiers. A TupleId names a tuple for its
// whole lifetime (relation index + row slot); deletion flips membership
// flags but never moves rows, so ids — and any index built over rows —
// remain valid across repair evaluation.
#ifndef DELTAREPAIR_RELATION_TUPLE_H_
#define DELTAREPAIR_RELATION_TUPLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.h"
#include "relation/value.h"

namespace deltarepair {

/// Row payload: a fixed-arity vector of values.
using Tuple = std::vector<Value>;

/// Order-sensitive hash over a tuple's values: kHashTupleSeed folded
/// with each value's Value::Hash() by HashCombine.
uint64_t HashTuple(const Tuple& t);
inline constexpr uint64_t kHashTupleSeed = 0x74757065ULL;

/// Rendering: "(1, 'ERC')".
std::string TupleToString(const Tuple& t);

/// Stable identity of a tuple within a Database.
struct TupleId {
  uint32_t relation = UINT32_MAX;
  uint32_t row = UINT32_MAX;

  bool valid() const { return relation != UINT32_MAX; }

  bool operator==(const TupleId& o) const {
    return relation == o.relation && row == o.row;
  }
  bool operator!=(const TupleId& o) const { return !(*this == o); }
  bool operator<(const TupleId& o) const {
    return relation != o.relation ? relation < o.relation : row < o.row;
  }

  /// Packs into one 64-bit key (hashing, map keys).
  uint64_t Pack() const {
    return (static_cast<uint64_t>(relation) << 32) | row;
  }
  static TupleId Unpack(uint64_t packed) {
    return TupleId{static_cast<uint32_t>(packed >> 32),
                   static_cast<uint32_t>(packed & 0xffffffffULL)};
  }
};

struct TupleIdHash {
  size_t operator()(const TupleId& id) const {
    return static_cast<size_t>(Mix64(id.Pack()));
  }
};

}  // namespace deltarepair

#endif  // DELTAREPAIR_RELATION_TUPLE_H_
