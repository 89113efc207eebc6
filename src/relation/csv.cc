#include "relation/csv.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace deltarepair {

Status LoadCsvIntoDatabase(Database* db, const std::string& relation_name,
                           const std::string& csv_text) {
  // Lines and cells are views into `csv_text`, and one Tuple buffer is
  // reused for every row: the relation keeps the row as cell codes, so a
  // row allocates only for long string cells and for values new to the
  // dictionary.
  size_t pos = 0;
  auto take_line = [&]() {
    size_t end = csv_text.find('\n', pos);
    if (end == std::string::npos) end = csv_text.size();
    std::string_view line(csv_text.data() + pos, end - pos);
    pos = end + 1;
    return line;
  };
  const std::string_view header = Trim(take_line());
  if (header.empty()) {
    return Status::InvalidArgument("empty CSV for " + relation_name);
  }
  // Schema line: name:type fields.
  std::vector<Attribute> attrs;
  for (const std::string& field : Split(header, ',')) {
    std::vector<std::string> parts = Split(field, ':');
    if (parts.empty() || Trim(parts[0]).empty()) {
      return Status::InvalidArgument("bad schema field '" + field + "'");
    }
    Attribute attr;
    attr.name = std::string(Trim(parts[0]));
    std::string type = parts.size() > 1 ? std::string(Trim(parts[1])) : "str";
    if (type == "int" || type == "i") {
      attr.type = ValueType::kInt;
    } else if (type == "str" || type == "s" || type == "string") {
      attr.type = ValueType::kString;
    } else {
      return Status::InvalidArgument("unknown type '" + type + "' in " +
                                     relation_name);
    }
    attrs.push_back(std::move(attr));
  }
  if (attrs.size() > kMaxArity) {
    return Status::InvalidArgument(
        StrFormat("relation %s has %zu columns; at most %zu are supported",
                  relation_name.c_str(), attrs.size(), kMaxArity));
  }
  if (db->RelationIndex(relation_name) >= 0) {
    return Status::AlreadyExists("relation " + relation_name);
  }
  uint32_t rel =
      db->AddRelation(RelationSchema(relation_name, std::move(attrs)));
  const RelationSchema& schema = db->relation(rel).schema();

  std::vector<std::string_view> cells;
  Tuple tuple;  // reused across rows; the relation stores codes
  for (size_t line_no = 2; pos <= csv_text.size(); ++line_no) {
    const std::string_view line = Trim(take_line());
    if (line.empty()) continue;
    cells.clear();
    for (size_t begin = 0;;) {
      const size_t comma = line.find(',', begin);
      cells.push_back(line.substr(begin, comma == std::string_view::npos
                                             ? std::string_view::npos
                                             : comma - begin));
      if (comma == std::string_view::npos) break;
      begin = comma + 1;
    }
    if (cells.size() != schema.arity()) {
      return Status::InvalidArgument(
          StrFormat("%s line %zu: expected %zu cells, got %zu",
                    relation_name.c_str(), line_no, schema.arity(),
                    cells.size()));
    }
    tuple.clear();
    for (size_t c = 0; c < cells.size(); ++c) {
      std::string cell = std::string(Trim(cells[c]));
      if (schema.attribute(c).type == ValueType::kInt) {
        char* end = nullptr;
        long long v = std::strtoll(cell.c_str(), &end, 10);
        if (end == cell.c_str() || *end != '\0') {
          return Status::InvalidArgument(
              StrFormat("%s line %zu: '%s' is not an integer",
                        relation_name.c_str(), line_no, cell.c_str()));
        }
        tuple.emplace_back(static_cast<int64_t>(v));
      } else {
        tuple.emplace_back(std::move(cell));
      }
    }
    db->Insert(rel, tuple);
  }
  return Status::OK();
}

Status LoadCsvFile(Database* db, const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  // Relation name: basename without extension.
  size_t slash = path.find_last_of('/');
  std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  size_t dot = base.find_last_of('.');
  if (dot != std::string::npos) base = base.substr(0, dot);
  return LoadCsvIntoDatabase(db, base, buffer.str());
}

std::string RelationToCsv(const Database& db, uint32_t rel) {
  const Relation& relation = db.relation(rel);
  const RelationView& view = db.base_view().rel(rel);
  std::string out;
  const RelationSchema& schema = relation.schema();
  for (size_t c = 0; c < schema.arity(); ++c) {
    if (c) out += ',';
    out += schema.attribute(c).name;
    out += schema.attribute(c).type == ValueType::kInt ? ":int" : ":str";
  }
  out += '\n';
  for (uint32_t r = 0; r < relation.num_rows(); ++r) {
    if (!view.live(r)) continue;
    const Tuple t = relation.DecodeRow(r);
    for (size_t c = 0; c < t.size(); ++c) {
      if (c) out += ',';
      out += t[c].is_string() ? t[c].AsString() : t[c].ToString();
    }
    out += '\n';
  }
  return out;
}

}  // namespace deltarepair
