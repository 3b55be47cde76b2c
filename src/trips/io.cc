#include "trips/io.h"

#include <charconv>

namespace urr {

namespace {

Result<double> ParseDouble(const std::string& cell, const char* what) {
  double value = 0;
  const char* begin = cell.data();
  const char* end = begin + cell.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end) {
    return Status::InvalidArgument(std::string("bad ") + what + ": '" + cell +
                                   "'");
  }
  return value;
}

Result<int64_t> ParseInt(const std::string& cell, const char* what) {
  int64_t value = 0;
  const char* begin = cell.data();
  const char* end = begin + cell.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end) {
    return Status::InvalidArgument(std::string("bad ") + what + ": '" + cell +
                                   "'");
  }
  return value;
}

}  // namespace

Result<TripRecords> TripRecordsFromCsv(const CsvTable& table,
                                       NodeId num_nodes) {
  const int c_pu = table.ColumnIndex("pickup_node");
  const int c_do = table.ColumnIndex("dropoff_node");
  const int c_t = table.ColumnIndex("pickup_time");
  const int c_d = table.ColumnIndex("duration");
  if (c_pu < 0 || c_do < 0 || c_t < 0 || c_d < 0) {
    return Status::InvalidArgument(
        "need pickup_node, dropoff_node, pickup_time, duration columns");
  }
  TripRecords records;
  records.reserve(table.rows.size());
  for (const auto& row : table.rows) {
    TripRecord rec;
    URR_ASSIGN_OR_RETURN(int64_t pu,
                         ParseInt(row[static_cast<size_t>(c_pu)], "pickup_node"));
    URR_ASSIGN_OR_RETURN(
        int64_t dn, ParseInt(row[static_cast<size_t>(c_do)], "dropoff_node"));
    if (pu < 0 || pu >= num_nodes || dn < 0 || dn >= num_nodes) {
      return Status::OutOfRange("node id outside network in CSV row");
    }
    rec.pickup_node = static_cast<NodeId>(pu);
    rec.dropoff_node = static_cast<NodeId>(dn);
    URR_ASSIGN_OR_RETURN(
        rec.pickup_time, ParseDouble(row[static_cast<size_t>(c_t)], "pickup_time"));
    URR_ASSIGN_OR_RETURN(rec.duration,
                         ParseDouble(row[static_cast<size_t>(c_d)], "duration"));
    if (rec.duration < 0 || rec.pickup_time < 0) {
      return Status::InvalidArgument("negative time in CSV row");
    }
    records.push_back(rec);
  }
  return records;
}

Result<TripRecords> ReadTripRecords(const std::string& path, NodeId num_nodes) {
  URR_ASSIGN_OR_RETURN(CsvTable table, ReadCsvFile(path));
  return TripRecordsFromCsv(table, num_nodes);
}

}  // namespace urr
