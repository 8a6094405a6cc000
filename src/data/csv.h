#ifndef HIERGAT_DATA_CSV_H_
#define HIERGAT_DATA_CSV_H_

#include <string>
#include <vector>

#include "core/status.h"
#include "data/entity.h"

namespace hiergat {

/// Parses one CSV line (RFC-4180 quoting: fields may be wrapped in
/// double quotes; embedded quotes are doubled).
std::vector<std::string> ParseCsvLine(const std::string& line);

/// Escapes a field for CSV output.
std::string EscapeCsvField(const std::string& field);

/// Writes a labeled pair dataset split to CSV with columns
/// left_<attr>..., right_<attr>..., label.
Status WritePairsCsv(const std::string& path,
                     const std::vector<EntityPair>& pairs);

/// Reads a file written by WritePairsCsv.
StatusOr<std::vector<EntityPair>> ReadPairsCsv(const std::string& path);

}  // namespace hiergat

#endif  // HIERGAT_DATA_CSV_H_
