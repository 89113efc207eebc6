// Relation schemas and the catalog: named relations with typed attributes.
// Mirrors Sec. 2 of the paper: a schema R = (R1..Rk), each Ri with
// attribute set Ai. Delta relations (Sec. 3.1) share the base schema and
// are represented as membership flags on the base relation, not as separate
// physical tables.
#ifndef DELTAREPAIR_RELATION_SCHEMA_H_
#define DELTAREPAIR_RELATION_SCHEMA_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "relation/value.h"

namespace deltarepair {

/// Widest relation the engine supports. Join plans and hash indexes name
/// a relation's column subsets by a 64-bit mask, so every entry point
/// that creates relations (CSV import, the snapshot decoder, the request
/// codec) rejects wider ones.
inline constexpr size_t kMaxArity = 64;

/// One attribute: name + type.
struct Attribute {
  std::string name;
  ValueType type = ValueType::kInt;
};

/// Schema of one relation.
class RelationSchema {
 public:
  RelationSchema() = default;
  RelationSchema(std::string name, std::vector<Attribute> attributes)
      : name_(std::move(name)), attributes_(std::move(attributes)) {}

  const std::string& name() const { return name_; }
  size_t arity() const { return attributes_.size(); }
  const std::vector<Attribute>& attributes() const { return attributes_; }
  const Attribute& attribute(size_t i) const { return attributes_[i]; }

  /// Index of the attribute named `name`, or -1.
  int AttributeIndex(const std::string& name) const;

  /// e.g. "Author(aid:int, name:str, oid:int)".
  std::string ToString() const;

 private:
  std::string name_;
  std::vector<Attribute> attributes_;
};

/// Convenience builder: all-int attributes from names.
RelationSchema MakeIntSchema(std::string relation,
                             std::vector<std::string> attr_names);

/// Convenience builder with explicit types: 'i' = int, 's' = string.
/// `type_codes` must have one char per attribute.
RelationSchema MakeSchema(std::string relation,
                          std::vector<std::string> attr_names,
                          std::string_view type_codes);

}  // namespace deltarepair

#endif  // DELTAREPAIR_RELATION_SCHEMA_H_
