#include "trips/instance_io.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

namespace urr {

namespace {

// Upper bound on declared rider/vehicle counts: rejects corrupt meta rows
// before they can drive huge allocations (the mu_v matrix is riders x
// vehicles).
constexpr int64_t kMaxDeclaredCount = int64_t{1} << 24;

std::string Num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

Result<double> ParseDouble(const std::string& cell, const char* what) {
  double value = 0;
  const char* begin = cell.data();
  auto [ptr, ec] = std::from_chars(begin, begin + cell.size(), value);
  if (ec != std::errc() || ptr != begin + cell.size()) {
    return Status::InvalidArgument(std::string("bad ") + what + ": '" + cell +
                                   "'");
  }
  return value;
}

Result<int64_t> ParseInt(const std::string& cell, const char* what) {
  int64_t value = 0;
  const char* begin = cell.data();
  auto [ptr, ec] = std::from_chars(begin, begin + cell.size(), value);
  if (ec != std::errc() || ptr != begin + cell.size()) {
    return Status::InvalidArgument(std::string("bad ") + what + ": '" + cell +
                                   "'");
  }
  return value;
}

}  // namespace

CsvTable InstanceToCsv(const UrrInstance& instance) {
  CsvTable table;
  table.header = {"kind", "a", "b", "c", "d", "e"};
  table.rows.push_back({"meta", Num(instance.now),
                        std::to_string(instance.num_riders()),
                        std::to_string(instance.num_vehicles()), "", ""});
  for (const Rider& r : instance.riders) {
    table.rows.push_back({"rider", std::to_string(r.source),
                          std::to_string(r.destination),
                          Num(r.pickup_deadline), Num(r.dropoff_deadline),
                          std::to_string(r.user)});
  }
  for (const Vehicle& v : instance.vehicles) {
    table.rows.push_back({"vehicle", std::to_string(v.location),
                          std::to_string(v.capacity), "", "", ""});
  }
  if (instance.vehicle_utility != nullptr) {
    for (int i = 0; i < instance.num_riders(); ++i) {
      for (int j = 0; j < instance.num_vehicles(); ++j) {
        table.rows.push_back({"mu_v", std::to_string(i), std::to_string(j),
                              Num(instance.VehicleUtility(i, j)), "", ""});
      }
    }
  }
  return table;
}

Result<UrrInstance> InstanceFromCsv(const CsvTable& table, NodeId num_nodes) {
  if (table.header != std::vector<std::string>({"kind", "a", "b", "c", "d",
                                                "e"})) {
    return Status::InvalidArgument("unexpected instance CSV header");
  }
  UrrInstance instance;
  int declared_riders = -1, declared_vehicles = -1;
  bool has_matrix = false;
  for (const auto& row : table.rows) {
    // The CSV layer does not enforce a rectangle; a truncated or ragged row
    // must become an error here, not an out-of-bounds read.
    if (row.size() != table.header.size()) {
      return Status::InvalidArgument(
          "instance CSV row has " + std::to_string(row.size()) +
          " cells, expected " + std::to_string(table.header.size()));
    }
    const std::string& kind = row[0];
    if (kind == "meta") {
      if (declared_riders >= 0) {
        return Status::InvalidArgument("duplicate meta row");
      }
      URR_ASSIGN_OR_RETURN(instance.now, ParseDouble(row[1], "now"));
      if (!std::isfinite(instance.now)) {
        return Status::InvalidArgument("meta now must be finite");
      }
      URR_ASSIGN_OR_RETURN(int64_t m, ParseInt(row[2], "num_riders"));
      URR_ASSIGN_OR_RETURN(int64_t n, ParseInt(row[3], "num_vehicles"));
      if (m < 0 || n < 0 || m > kMaxDeclaredCount || n > kMaxDeclaredCount) {
        return Status::InvalidArgument("meta counts out of range");
      }
      declared_riders = static_cast<int>(m);
      declared_vehicles = static_cast<int>(n);
    } else if (kind == "rider") {
      Rider r;
      URR_ASSIGN_OR_RETURN(int64_t s, ParseInt(row[1], "source"));
      URR_ASSIGN_OR_RETURN(int64_t e, ParseInt(row[2], "destination"));
      if (s < 0 || s >= num_nodes || e < 0 || e >= num_nodes) {
        return Status::OutOfRange("rider node outside network");
      }
      r.source = static_cast<NodeId>(s);
      r.destination = static_cast<NodeId>(e);
      URR_ASSIGN_OR_RETURN(r.pickup_deadline, ParseDouble(row[3], "rt-"));
      URR_ASSIGN_OR_RETURN(r.dropoff_deadline, ParseDouble(row[4], "rt+"));
      if (std::isnan(r.pickup_deadline) || std::isnan(r.dropoff_deadline)) {
        return Status::InvalidArgument("rider deadline is NaN");
      }
      if (r.dropoff_deadline < r.pickup_deadline) {
        return Status::InvalidArgument("rider dropoff deadline before pickup");
      }
      URR_ASSIGN_OR_RETURN(int64_t user, ParseInt(row[5], "user"));
      r.user = static_cast<UserId>(user);
      instance.riders.push_back(r);
    } else if (kind == "vehicle") {
      Vehicle v;
      URR_ASSIGN_OR_RETURN(int64_t loc, ParseInt(row[1], "location"));
      if (loc < 0 || loc >= num_nodes) {
        return Status::OutOfRange("vehicle node outside network");
      }
      v.location = static_cast<NodeId>(loc);
      URR_ASSIGN_OR_RETURN(int64_t cap, ParseInt(row[2], "capacity"));
      if (cap < 1) return Status::InvalidArgument("capacity must be >= 1");
      v.capacity = static_cast<int>(cap);
      instance.vehicles.push_back(v);
    } else if (kind == "mu_v") {
      has_matrix = true;  // filled in a second pass below
    } else {
      return Status::InvalidArgument("unknown row kind: " + kind);
    }
  }
  if (declared_riders != instance.num_riders() ||
      declared_vehicles != instance.num_vehicles()) {
    return Status::InvalidArgument("meta counts disagree with row counts");
  }
  if (has_matrix) {
    std::vector<float> mu(static_cast<size_t>(instance.num_riders()) *
                              static_cast<size_t>(instance.num_vehicles()),
                          0.0f);
    for (const auto& row : table.rows) {
      if (row[0] != "mu_v") continue;
      URR_ASSIGN_OR_RETURN(int64_t i, ParseInt(row[1], "mu_v rider"));
      URR_ASSIGN_OR_RETURN(int64_t j, ParseInt(row[2], "mu_v vehicle"));
      if (i < 0 || i >= instance.num_riders() || j < 0 ||
          j >= instance.num_vehicles()) {
        return Status::OutOfRange("mu_v index outside instance");
      }
      URR_ASSIGN_OR_RETURN(double value, ParseDouble(row[3], "mu_v value"));
      if (!(value >= 0 && value <= 1)) {  // negated so NaN lands here too
        return Status::InvalidArgument("mu_v outside [0,1]");
      }
      mu[static_cast<size_t>(i) * static_cast<size_t>(instance.num_vehicles()) +
         static_cast<size_t>(j)] = static_cast<float>(value);
    }
    URR_RETURN_NOT_OK(instance.SetVehicleUtility(std::move(mu)));
  }
  return instance;
}

Status WriteInstance(const std::string& path, const UrrInstance& instance) {
  return WriteCsvFile(path, InstanceToCsv(instance));
}

Result<UrrInstance> ReadInstance(const std::string& path, NodeId num_nodes) {
  URR_ASSIGN_OR_RETURN(CsvTable table, ReadCsvFile(path));
  return InstanceFromCsv(table, num_nodes);
}

}  // namespace urr
