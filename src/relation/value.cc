#include "relation/value.h"

#include "common/hash.h"
#include "common/status.h"

namespace deltarepair {

int64_t Value::AsInt() const {
  DR_CHECK_MSG(is_int(), "Value::AsInt on non-int");
  return int_;
}

const std::string& Value::AsString() const {
  DR_CHECK_MSG(is_string(), "Value::AsString on non-string");
  return str_;
}

bool Value::operator<(const Value& other) const {
  if (type_ != other.type_) {
    return static_cast<uint8_t>(type_) < static_cast<uint8_t>(other.type_);
  }
  switch (type_) {
    case ValueType::kNull:
      return false;
    case ValueType::kInt:
      return int_ < other.int_;
    case ValueType::kString:
      return str_ < other.str_;
  }
  return false;
}

uint64_t Value::NonIntHash() const {
  return type_ == ValueType::kString ? HashBytes(str_) : 0x6e756c6cULL;
}

std::string Value::ToString() const {
  switch (type_) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt:
      return std::to_string(int_);
    case ValueType::kString:
      return "'" + str_ + "'";
  }
  return "?";
}

}  // namespace deltarepair
