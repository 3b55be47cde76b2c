#include "trips/trip_generator.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/generators.h"
#include "routing/dijkstra.h"
#include "trips/instance_builder.h"
#include "trips/poisson_model.h"

namespace urr {
namespace {

Result<RoadNetwork> City(Rng* rng, int side = 25) {
  GridCityOptions opt;
  opt.width = side;
  opt.height = side;
  return GenerateGridCity(opt, rng);
}

TEST(TripGeneratorTest, GeneratesConsistentRecords) {
  Rng rng(101);
  auto g = City(&rng);
  ASSERT_TRUE(g.ok());
  TripGenOptions opt;
  opt.num_trips = 300;
  auto records = GenerateTrips(*g, opt, &rng);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 300u);
  DijkstraEngine engine(*g);
  for (const TripRecord& r : *records) {
    EXPECT_NE(r.pickup_node, r.dropoff_node);
    EXPECT_GE(r.pickup_time, 0);
    EXPECT_LT(r.pickup_time, opt.window);
    // Duration is the exact shortest-path cost.
    EXPECT_NEAR(r.duration, engine.Distance(r.pickup_node, r.dropoff_node),
                1e-9);
  }
}

TEST(TripGeneratorTest, DurationShapeMatchesFig7) {
  Rng rng(102);
  auto g = City(&rng, 40);
  ASSERT_TRUE(g.ok());
  TripGenOptions opt;
  opt.num_trips = 2000;
  auto records = GenerateTrips(*g, opt, &rng);
  ASSERT_TRUE(records.ok());
  int under_1000 = 0;
  for (const TripRecord& r : *records) under_1000 += (r.duration < 1000);
  // Fig. 7: more than half of taxi trips take < 1000 s.
  EXPECT_GT(under_1000, 1000);
}

TEST(TripGeneratorTest, PickupsAreSkewedToHotspots) {
  Rng rng(103);
  auto g = City(&rng);
  ASSERT_TRUE(g.ok());
  TripGenOptions opt;
  opt.num_trips = 2000;
  auto records = GenerateTrips(*g, opt, &rng);
  ASSERT_TRUE(records.ok());
  std::vector<int> counts(static_cast<size_t>(g->num_nodes()), 0);
  for (const TripRecord& r : *records) {
    ++counts[static_cast<size_t>(r.pickup_node)];
  }
  std::sort(counts.rbegin(), counts.rend());
  // Top-5% of nodes originate a disproportionate share of trips.
  int64_t top = 0;
  const size_t five_pct = counts.size() / 20;
  for (size_t i = 0; i < five_pct; ++i) top += counts[i];
  EXPECT_GT(top, 2000 / 5);
}

TEST(TripGeneratorTest, HistogramBucketsEverything) {
  TripRecords records = {{0, 1, 0, 100}, {0, 1, 0, 550}, {0, 1, 0, 99999}};
  auto hist = DurationHistogram(records, 500, 4);
  ASSERT_EQ(hist.size(), 4u);
  EXPECT_EQ(hist[0], 1);
  EXPECT_EQ(hist[1], 1);
  EXPECT_EQ(hist[3], 1);  // overflow clamps to the last bucket
  int64_t total = 0;
  for (int64_t h : hist) total += h;
  EXPECT_EQ(total, 3);
}

TEST(TripGeneratorTest, RejectsBadInputs) {
  Rng rng(104);
  auto g = RoadNetwork::Build(1, {});
  ASSERT_TRUE(g.ok());
  TripGenOptions opt;
  EXPECT_FALSE(GenerateTrips(*g, opt, &rng).ok());
}

TEST(PoissonModelTest, FitMatchesEq11) {
  // 3 trips from node 0, 1 trip from node 2, in a 100-second frame.
  TripRecords records = {
      {0, 1, 10, 50}, {0, 2, 20, 60}, {0, 1, 30, 70}, {2, 1, 40, 80},
      {1, 0, 500, 10},  // outside the frame
  };
  auto model = PoissonDemandModel::Fit(records, 3, 0, 100);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->num_observed(), 4);
  EXPECT_DOUBLE_EQ(model->Lambda(0), 0.03);  // 3 / 100
  EXPECT_DOUBLE_EQ(model->Lambda(1), 0.0);
  EXPECT_DOUBLE_EQ(model->Lambda(2), 0.01);
}

TEST(PoissonModelTest, AverageDuration) {
  TripRecords records = {{0, 1, 0, 50}, {0, 1, 1, 70}, {0, 2, 2, 10}};
  auto model = PoissonDemandModel::Fit(records, 3, 0, 100);
  ASSERT_TRUE(model.ok());
  EXPECT_DOUBLE_EQ(model->AverageDuration(0, 1), 60);
  EXPECT_DOUBLE_EQ(model->AverageDuration(0, 2), 10);
  EXPECT_LT(model->AverageDuration(1, 2), 0);  // unobserved
}

TEST(PoissonModelTest, TransitionsFollowEq12) {
  // From node 0: 3x to node 1, 1x to node 2 -> p = 0.75 / 0.25.
  TripRecords records = {
      {0, 1, 0, 1}, {0, 1, 1, 1}, {0, 1, 2, 1}, {0, 2, 3, 1}};
  auto model = PoissonDemandModel::Fit(records, 3, 0, 100);
  ASSERT_TRUE(model.ok());
  Rng rng(105);
  int to_1 = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    to_1 += (model->SampleDestination(0, &rng) == 1);
  }
  EXPECT_NEAR(to_1 / static_cast<double>(trials), 0.75, 0.02);
}

TEST(PoissonModelTest, SampleTripRespectsOriginWeights) {
  TripRecords records = {
      {0, 1, 0, 1}, {0, 1, 1, 1}, {0, 1, 2, 1}, {2, 1, 3, 1}};
  auto model = PoissonDemandModel::Fit(records, 3, 0, 100);
  ASSERT_TRUE(model.ok());
  Rng rng(106);
  int from_0 = 0;
  for (int i = 0; i < 20000; ++i) {
    from_0 += (model->SampleTrip(&rng).first == 0);
  }
  EXPECT_NEAR(from_0 / 20000.0, 0.75, 0.02);
}

TEST(PoissonModelTest, RejectsEmptyFrame) {
  TripRecords records = {{0, 1, 500, 1}};
  EXPECT_FALSE(PoissonDemandModel::Fit(records, 2, 0, 100).ok());
  EXPECT_FALSE(PoissonDemandModel::Fit(records, 2, 0, 0).ok());
}

class InstanceBuilderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<Rng>(107);
    auto g = City(rng_.get());
    ASSERT_TRUE(g.ok());
    network_ = std::make_unique<RoadNetwork>(*std::move(g));
    oracle_ = std::make_unique<DijkstraOracle>(*network_);
    auto social = SocialGraph::Build(10, {{0, 1}, {1, 2}});
    ASSERT_TRUE(social.ok());
    social_ = std::make_unique<SocialGraph>(*std::move(social));
    auto checkins = CheckInMap::Generate(*network_, 10, 2, rng_.get());
    ASSERT_TRUE(checkins.ok());
    checkins_ = std::make_unique<CheckInMap>(*std::move(checkins));
    TripGenOptions topt;
    topt.num_trips = 500;
    auto records = GenerateTrips(*network_, topt, rng_.get());
    ASSERT_TRUE(records.ok());
    records_ = *std::move(records);
  }

  std::unique_ptr<Rng> rng_;
  std::unique_ptr<RoadNetwork> network_;
  std::unique_ptr<DijkstraOracle> oracle_;
  std::unique_ptr<SocialGraph> social_;
  std::unique_ptr<CheckInMap> checkins_;
  TripRecords records_;
};

TEST_F(InstanceBuilderTest, BuildFromRecordsHonorsOptions) {
  InstanceBuilder builder(network_.get(), social_.get(), checkins_.get(),
                          oracle_.get());
  InstanceOptions opt;
  opt.num_riders = 60;
  opt.num_vehicles = 10;
  opt.capacity = 4;
  opt.epsilon = 1.5;
  auto instance = builder.BuildFromRecords(records_, opt, rng_.get());
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ(instance->num_riders(), 60);
  EXPECT_EQ(instance->num_vehicles(), 10);
  for (const Vehicle& v : instance->vehicles) EXPECT_EQ(v.capacity, 4);
  for (const Rider& r : instance->riders) {
    EXPECT_GE(r.pickup_deadline, opt.pickup_deadline_min);
    EXPECT_LE(r.pickup_deadline, opt.pickup_deadline_max);
    const Cost direct = oracle_->Distance(r.source, r.destination);
    EXPECT_NEAR(r.dropoff_deadline, r.pickup_deadline + 1.5 * direct, 1e-6);
    EXPECT_GE(r.user, 0);  // mapped to a check-in user
  }
}

TEST_F(InstanceBuilderTest, VehicleUtilityMatrixInRange) {
  InstanceBuilder builder(network_.get(), social_.get(), checkins_.get(),
                          oracle_.get());
  InstanceOptions opt;
  opt.num_riders = 20;
  opt.num_vehicles = 5;
  auto instance = builder.BuildFromRecords(records_, opt, rng_.get());
  ASSERT_TRUE(instance.ok());
  ASSERT_NE(instance->vehicle_utility, nullptr);
  ASSERT_EQ(instance->vehicle_utility->size(), 100u);
  for (int i = 0; i < 20; ++i) {
    for (int j = 0; j < 5; ++j) {
      const double mu = instance->VehicleUtility(i, j);
      EXPECT_GE(mu, 0.0);
      EXPECT_LE(mu, 1.0);
    }
  }
}

TEST_F(InstanceBuilderTest, BuildFromModelProducesRoutableRiders) {
  InstanceBuilder builder(network_.get(), social_.get(), checkins_.get(),
                          oracle_.get());
  auto model = PoissonDemandModel::Fit(records_, network_->num_nodes(), 0,
                                       1800);
  ASSERT_TRUE(model.ok());
  InstanceOptions opt;
  opt.num_riders = 80;
  opt.num_vehicles = 15;
  auto instance = builder.BuildFromModel(*model, opt, rng_.get());
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ(instance->num_riders(), 80);
  for (const Rider& r : instance->riders) {
    EXPECT_NE(r.source, r.destination);
    EXPECT_LT(oracle_->Distance(r.source, r.destination), kInfiniteCost);
  }
}

TEST_F(InstanceBuilderTest, RejectsBadOptions) {
  InstanceBuilder builder(network_.get(), social_.get(), checkins_.get(),
                          oracle_.get());
  InstanceOptions opt;
  opt.num_riders = 10;
  opt.num_vehicles = 2;
  opt.epsilon = 0.5;  // < 1 impossible
  EXPECT_FALSE(builder.BuildFromRecords(records_, opt, rng_.get()).ok());
  opt.epsilon = 1.5;
  opt.pickup_deadline_min = 100;
  opt.pickup_deadline_max = 50;
  EXPECT_FALSE(builder.BuildFromRecords(records_, opt, rng_.get()).ok());
}

TEST_F(InstanceBuilderTest, RejectsTooFewRecords) {
  InstanceBuilder builder(network_.get(), social_.get(), checkins_.get(),
                          oracle_.get());
  InstanceOptions opt;
  opt.num_riders = 10000;
  EXPECT_FALSE(builder.BuildFromRecords(records_, opt, rng_.get()).ok());
}

TEST_F(InstanceBuilderTest, NullCheckinsMeansNoSocialIdentity) {
  InstanceBuilder builder(network_.get(), social_.get(), nullptr,
                          oracle_.get());
  InstanceOptions opt;
  opt.num_riders = 10;
  opt.num_vehicles = 2;
  auto instance = builder.BuildFromRecords(records_, opt, rng_.get());
  ASSERT_TRUE(instance.ok());
  for (const Rider& r : instance->riders) EXPECT_EQ(r.user, -1);
  EXPECT_DOUBLE_EQ(instance->Similarity(0, 1), 0.0);
}

}  // namespace
}  // namespace urr
