// Trip-record CSV import: `urr_dispatch --trips` reads a node-based trip
// table and turns it into the records the rest of the pipeline consumes.
#ifndef URR_TRIPS_IO_H_
#define URR_TRIPS_IO_H_

#include <string>

#include "common/csv.h"
#include "common/result.h"
#include "trips/trip_record.h"

namespace urr {

/// Parses a node-based CSV table with the columns pickup_node,
/// dropoff_node, pickup_time and duration (extra columns are ignored).
/// Node ids are validated against `num_nodes`.
Result<TripRecords> TripRecordsFromCsv(const CsvTable& table, NodeId num_nodes);

/// Reads and parses a node-based trip CSV file.
Result<TripRecords> ReadTripRecords(const std::string& path, NodeId num_nodes);

}  // namespace urr

#endif  // URR_TRIPS_IO_H_
