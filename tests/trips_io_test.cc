#include "trips/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "common/binary_io.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "trips/trip_generator.h"

namespace urr {
namespace {

// Test-side writer for the node-based table the reader accepts.
CsvTable ToNodeCsv(const TripRecords& records) {
  CsvTable table;
  table.header = {"pickup_node", "dropoff_node", "pickup_time", "duration"};
  for (const TripRecord& r : records) {
    std::ostringstream t, d;
    t.precision(17);
    d.precision(17);
    t << r.pickup_time;
    d << r.duration;
    table.rows.push_back({std::to_string(r.pickup_node),
                          std::to_string(r.dropoff_node), t.str(), d.str()});
  }
  return table;
}

TEST(TripsIoTest, NodeCsvRoundTrip) {
  TripRecords records = {{0, 3, 12.5, 600}, {2, 1, 0, 90.25}};
  CsvTable table = ToNodeCsv(records);
  EXPECT_EQ(table.rows.size(), 2u);
  auto back = TripRecordsFromCsv(table, /*num_nodes=*/4);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->size(), 2u);
  EXPECT_EQ((*back)[0].pickup_node, 0);
  EXPECT_EQ((*back)[0].dropoff_node, 3);
  EXPECT_NEAR((*back)[0].pickup_time, 12.5, 1e-9);
  EXPECT_NEAR((*back)[1].duration, 90.25, 1e-9);
}

TEST(TripsIoTest, RejectsMissingColumns) {
  CsvTable table;
  table.header = {"pickup_node", "dropoff_node"};
  EXPECT_FALSE(TripRecordsFromCsv(table, 4).ok());
}

TEST(TripsIoTest, RejectsBadValues) {
  CsvTable table;
  table.header = {"pickup_node", "dropoff_node", "pickup_time", "duration"};
  table.rows = {{"0", "9", "0", "10"}};
  EXPECT_EQ(TripRecordsFromCsv(table, 4).status().code(),
            StatusCode::kOutOfRange);
  table.rows = {{"0", "1", "-5", "10"}};
  EXPECT_FALSE(TripRecordsFromCsv(table, 4).ok());
  table.rows = {{"x", "1", "0", "10"}};
  EXPECT_FALSE(TripRecordsFromCsv(table, 4).ok());
}

TEST(TripsIoTest, ExtraColumnsIgnored) {
  CsvTable table;
  table.header = {"vendor", "pickup_node", "dropoff_node", "pickup_time",
                  "duration"};
  table.rows = {{"acme", "1", "2", "3", "4"}};
  auto records = TripRecordsFromCsv(table, 4);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ((*records)[0].pickup_node, 1);
}

TEST(TripsIoTest, ReadsNodeCsvFile) {
  // The file path behind `urr_dispatch --trips`.
  const std::string path = ::testing::TempDir() + "/urr_trips.csv";
  ASSERT_TRUE(WriteFile(path,
                        "pickup_node,dropoff_node,pickup_time,duration\n"
                        "4,7,12.5,600\n"
                        "9,0,0,90.25\n")
                  .ok());
  auto records = ReadTripRecords(path, /*num_nodes=*/10);
  ASSERT_TRUE(records.ok()) << records.status();
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].pickup_node, 4);
  EXPECT_EQ((*records)[0].dropoff_node, 7);
  EXPECT_DOUBLE_EQ((*records)[0].pickup_time, 12.5);
  EXPECT_DOUBLE_EQ((*records)[0].duration, 600);
  EXPECT_EQ((*records)[1].pickup_node, 9);
  EXPECT_EQ((*records)[1].dropoff_node, 0);
  EXPECT_DOUBLE_EQ((*records)[1].duration, 90.25);
  // Node ids are checked against the network the file is read for.
  EXPECT_EQ(ReadTripRecords(path, /*num_nodes=*/8).status().code(),
            StatusCode::kOutOfRange);
  std::remove(path.c_str());
  EXPECT_EQ(ReadTripRecords(path, 10).status().code(), StatusCode::kNotFound);
}

TEST(TripsIoTest, FileRoundTripOfGeneratedWorkload) {
  Rng rng(2);
  GridCityOptions opt;
  opt.width = 15;
  opt.height = 15;
  auto g = GenerateGridCity(opt, &rng);
  ASSERT_TRUE(g.ok());
  TripGenOptions topt;
  topt.num_trips = 120;
  auto records = GenerateTrips(*g, topt, &rng);
  ASSERT_TRUE(records.ok());
  const std::string path = ::testing::TempDir() + "/urr_trips_gen.csv";
  ASSERT_TRUE(WriteCsvFile(path, ToNodeCsv(*records)).ok());
  auto back = ReadTripRecords(path, g->num_nodes());
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->size(), records->size());
  for (size_t i = 0; i < back->size(); ++i) {
    EXPECT_EQ((*back)[i].pickup_node, (*records)[i].pickup_node);
    EXPECT_EQ((*back)[i].dropoff_node, (*records)[i].dropoff_node);
    EXPECT_NEAR((*back)[i].duration, (*records)[i].duration, 1e-3);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace urr
