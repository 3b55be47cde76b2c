#include "common/csv.h"

#include <fstream>
#include <sstream>

#include "common/binary_io.h"

namespace urr {

int CsvTable::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return static_cast<int>(i);
  }
  return -1;
}

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  bool quoted = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur.push_back('"');
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cur.push_back(c);
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(cur));
      cur.clear();
    } else if (c != '\r') {
      cur.push_back(c);
    }
  }
  fields.push_back(std::move(cur));
  return fields;
}

Result<CsvTable> ParseCsv(const std::string& text) {
  CsvTable table;
  std::istringstream in(text);
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto fields = SplitCsvLine(line);
    if (first) {
      table.header = std::move(fields);
      first = false;
    } else {
      if (fields.size() != table.header.size()) {
        return Status::InvalidArgument("CSV row has " +
                                       std::to_string(fields.size()) +
                                       " fields, header has " +
                                       std::to_string(table.header.size()));
      }
      table.rows.push_back(std::move(fields));
    }
  }
  if (first) return Status::InvalidArgument("CSV text has no header row");
  return table;
}

Result<CsvTable> ReadCsvFile(const std::string& path) {
  URR_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return ParseCsv(text);
}

namespace {
std::string QuoteIfNeeded(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out.push_back('"');
  return out;
}
}  // namespace

std::string ToCsv(const CsvTable& table) {
  std::ostringstream out;
  for (size_t i = 0; i < table.header.size(); ++i) {
    if (i) out << ',';
    out << QuoteIfNeeded(table.header[i]);
  }
  out << '\n';
  for (const auto& row : table.rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i) out << ',';
      out << QuoteIfNeeded(row[i]);
    }
    out << '\n';
  }
  return out.str();
}

Status WriteCsvFile(const std::string& path, const CsvTable& table) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << ToCsv(table);
  if (!out) return Status::IOError("write failed for " + path);
  return Status::OK();
}

}  // namespace urr
