// Minimal CSV writer/reader used to dump experiment series for plotting and
// to load optional external datasets (e.g. real trip records).
#ifndef URR_COMMON_CSV_H_
#define URR_COMMON_CSV_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace urr {

/// In-memory CSV table: a header row plus string cells.
struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  /// Index of a header column, or -1 when absent.
  int ColumnIndex(const std::string& name) const;
};

/// Splits one CSV line on commas. Handles double-quoted fields with embedded
/// commas and doubled quotes; does not handle embedded newlines.
std::vector<std::string> SplitCsvLine(const std::string& line);

/// Parses CSV text (first line is the header).
Result<CsvTable> ParseCsv(const std::string& text);

/// Reads and parses a CSV file. NotFound when `path` does not exist, IOError
/// when it cannot be opened or read (a directory, say).
Result<CsvTable> ReadCsvFile(const std::string& path);

/// Serializes a table to CSV text (quoting cells that need it).
std::string ToCsv(const CsvTable& table);

/// Writes a table to a file, creating/truncating it.
Status WriteCsvFile(const std::string& path, const CsvTable& table);

}  // namespace urr

#endif  // URR_COMMON_CSV_H_
