#include "data/csv.h"

#include <fstream>

namespace hiergat {

std::vector<std::string> ParseCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(current);
      current.clear();
    } else if (c != '\r') {
      current.push_back(c);
    }
  }
  fields.push_back(current);
  return fields;
}

std::string EscapeCsvField(const std::string& field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out.push_back('"');
  return out;
}

Status WritePairsCsv(const std::string& path,
                     const std::vector<EntityPair>& pairs) {
  if (pairs.empty()) return Status::InvalidArgument("no pairs to write");
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  const Entity& proto = pairs.front().left;
  for (int i = 0; i < proto.num_attributes(); ++i) {
    out << EscapeCsvField("left_" + proto.attribute(i).first) << ",";
  }
  for (int i = 0; i < proto.num_attributes(); ++i) {
    out << EscapeCsvField("right_" + proto.attribute(i).first) << ",";
  }
  out << "label\n";
  for (const EntityPair& pair : pairs) {
    for (int i = 0; i < proto.num_attributes(); ++i) {
      out << EscapeCsvField(pair.left.Get(proto.attribute(i).first)) << ",";
    }
    for (int i = 0; i < proto.num_attributes(); ++i) {
      out << EscapeCsvField(pair.right.Get(proto.attribute(i).first)) << ",";
    }
    out << pair.label << "\n";
  }
  if (!out) return Status::IOError("write failed: " + path);
  return Status::Ok();
}

StatusOr<std::vector<EntityPair>> ReadPairsCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("empty CSV: " + path);
  }
  const std::vector<std::string> header = ParseCsvLine(line);
  if (header.size() < 3 || header.back() != "label" ||
      (header.size() - 1) % 2 != 0) {
    return Status::InvalidArgument("not a pair CSV: " + path);
  }
  const size_t per_side = (header.size() - 1) / 2;
  std::vector<EntityPair> pairs;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> cells = ParseCsvLine(line);
    if (cells.size() != header.size()) {
      return Status::InvalidArgument("ragged row in " + path);
    }
    EntityPair pair;
    for (size_t i = 0; i < per_side; ++i) {
      pair.left.Add(header[i].substr(5), cells[i]);  // strip "left_"
      pair.right.Add(header[per_side + i].substr(6),
                     cells[per_side + i]);  // strip "right_"
    }
    pair.label = std::stoi(cells.back());
    pairs.push_back(std::move(pair));
  }
  return pairs;
}

}  // namespace hiergat
