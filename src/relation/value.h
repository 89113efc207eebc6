// Value: a typed scalar (null / int64 / string) — the cell type of the
// relational engine. Total order across types (type tag first) so Values
// are usable as index keys; comparison predicates in delta rules use the
// same ordering within a type.
#ifndef DELTAREPAIR_RELATION_VALUE_H_
#define DELTAREPAIR_RELATION_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/hash.h"

namespace deltarepair {

enum class ValueType : uint8_t { kNull = 0, kInt = 1, kString = 2 };

/// Immutable scalar cell value.
class Value {
 public:
  Value() : type_(ValueType::kNull), int_(0) {}
  explicit Value(int64_t v) : type_(ValueType::kInt), int_(v) {}
  explicit Value(std::string v)
      : type_(ValueType::kString), int_(0), str_(std::move(v)) {}
  explicit Value(const char* v) : Value(std::string(v)) {}

  ValueType type() const { return type_; }
  bool is_null() const { return type_ == ValueType::kNull; }
  bool is_int() const { return type_ == ValueType::kInt; }
  bool is_string() const { return type_ == ValueType::kString; }

  /// Integer payload; only valid when is_int().
  int64_t AsInt() const;
  /// String payload; only valid when is_string().
  const std::string& AsString() const;

  // Equality and the int hash are inline: the join's per-row checks and
  // probe-key hashing call them once per bound column.
  bool operator==(const Value& other) const {
    if (type_ != other.type_) return false;
    if (type_ == ValueType::kInt) return int_ == other.int_;
    return type_ == ValueType::kNull || str_ == other.str_;
  }
  bool operator!=(const Value& other) const { return !(*this == other); }
  /// Total order: null < int < string; within type, natural order.
  bool operator<(const Value& other) const;
  bool operator<=(const Value& other) const { return !(other < *this); }
  bool operator>(const Value& other) const { return other < *this; }
  bool operator>=(const Value& other) const { return !(*this < other); }

  /// Stable 64-bit hash (used by tuple hashing and index keys).
  uint64_t Hash() const {
    return type_ == ValueType::kInt ? IntHash(int_) : NonIntHash();
  }
  /// Hash() of the int value `v`; cell codes hash inline ints with it.
  static uint64_t IntHash(int64_t v) {
    return Mix64(static_cast<uint64_t>(v) ^ 0x1234abcdULL);
  }

  /// Rendering: ints bare, strings single-quoted, null as "null".
  std::string ToString() const;

 private:
  uint64_t NonIntHash() const;

  ValueType type_;
  int64_t int_;
  std::string str_;
};

}  // namespace deltarepair

#endif  // DELTAREPAIR_RELATION_VALUE_H_
