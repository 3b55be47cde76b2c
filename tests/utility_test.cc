#include "urr/utility.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "graph/generators.h"

namespace urr {
namespace {

TEST(TrajectoryUtilityTest, Equation5Values) {
  // σ = 1 -> μ_t = 1 exactly.
  EXPECT_DOUBLE_EQ(TrajectoryUtility(1.0), 1.0);
  // σ = 2 -> 2 / (1 + e).
  EXPECT_NEAR(TrajectoryUtility(2.0), 2.0 / (1.0 + std::exp(1.0)), 1e-12);
  // Monotone decreasing.
  EXPECT_GT(TrajectoryUtility(1.2), TrajectoryUtility(1.5));
  EXPECT_GT(TrajectoryUtility(1.5), TrajectoryUtility(3.0));
  // Bounded in (0, 1].
  EXPECT_GT(TrajectoryUtility(50.0), 0.0);
  EXPECT_LE(TrajectoryUtility(50.0), 1.0);
  // σ < 1 clamps (float noise guard).
  EXPECT_DOUBLE_EQ(TrajectoryUtility(0.999), 1.0);
}

// A 3-rider x 2-vehicle instance with no μ_v published yet.
UrrInstance ThreeByTwo() {
  UrrInstance instance;
  instance.riders.resize(3);
  instance.vehicles.resize(2);
  return instance;
}

TEST(VehicleUtilityMatrixTest, RejectsMatrixOneEntryShort) {
  UrrInstance instance = ThreeByTwo();
  const Status st = instance.SetVehicleUtility(std::vector<float>(5, 0.5f));
  ASSERT_EQ(st.code(), StatusCode::kInvalidArgument) << st;
  EXPECT_NE(st.message().find("has 5 entries"), std::string::npos) << st;
  EXPECT_NE(st.message().find("3 riders x 2 vehicles"), std::string::npos)
      << st;
  EXPECT_EQ(instance.vehicle_utility, nullptr);
  EXPECT_DOUBLE_EQ(instance.VehicleUtility(2, 1), 0.0);
}

TEST(VehicleUtilityMatrixTest, EmptyMatrixMeansZero) {
  UrrInstance instance = ThreeByTwo();
  ASSERT_TRUE(instance.SetVehicleUtility(std::vector<float>(6, 0.5f)).ok());
  ASSERT_TRUE(instance.SetVehicleUtility({}).ok());
  EXPECT_EQ(instance.vehicle_utility, nullptr);
  for (RiderId i = 0; i < 3; ++i) {
    for (int j = 0; j < 2; ++j) EXPECT_EQ(instance.VehicleUtility(i, j), 0.0);
  }
}

TEST(VehicleUtilityMatrixTest, ExactMatrixReadsBackBitwiseAndIsShared) {
  UrrInstance instance = ThreeByTwo();
  const std::vector<float> mu = {0.1f, 1.0f / 3.0f, 0.0f, 1.0f,
                                 std::nextafter(0.5f, 1.0f), 0.7f};
  ASSERT_TRUE(instance.SetVehicleUtility(mu).ok());
  const UrrInstance copy = instance;
  EXPECT_EQ(copy.vehicle_utility.get(), instance.vehicle_utility.get());
  for (RiderId i = 0; i < 3; ++i) {
    for (int j = 0; j < 2; ++j) {
      const float want = mu[static_cast<size_t>(i) * 2 + static_cast<size_t>(j)];
      EXPECT_EQ(std::bit_cast<uint32_t>(
                    static_cast<float>(copy.VehicleUtility(i, j))),
                std::bit_cast<uint32_t>(want))
          << "rider " << i << " vehicle " << j;
    }
  }
}

class UtilityModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Line network 0..4 with unit legs of cost 10, two-way.
    std::vector<Edge> edges;
    for (NodeId v = 0; v + 1 < 5; ++v) {
      edges.push_back({v, v + 1, 10});
      edges.push_back({v + 1, v, 10});
    }
    auto g = RoadNetwork::Build(5, edges);
    ASSERT_TRUE(g.ok());
    network_ = std::make_unique<RoadNetwork>(*std::move(g));
    oracle_ = std::make_unique<DijkstraOracle>(*network_);
    // Social: users 0,1 fully similar (identical friend sets), user 2 alone.
    auto social = SocialGraph::Build(5, {{0, 3}, {0, 4}, {1, 3}, {1, 4}});
    ASSERT_TRUE(social.ok());
    social_ = std::make_unique<SocialGraph>(*std::move(social));

    instance_.network = network_.get();
    instance_.social = social_.get();
    instance_.riders = {
        {0, 2, 1e5, 1e6, /*user=*/0},  // rider 0: 0 -> 2
        {1, 3, 1e5, 1e6, /*user=*/1},  // rider 1: 1 -> 3
        {0, 4, 1e5, 1e6, /*user=*/2},  // rider 2: 0 -> 4
    };
    instance_.vehicles = {{0, 3}, {4, 3}};
    // μ_v matrix rows: rider x vehicle.
    ASSERT_TRUE(instance_
                    .SetVehicleUtility({0.2f, 0.4f, 0.6f, 0.3f, 0.8f, 1.0f})
                    .ok());
  }

  UrrInstance instance_;
  std::unique_ptr<RoadNetwork> network_;
  std::unique_ptr<DijkstraOracle> oracle_;
  std::unique_ptr<SocialGraph> social_;
};

TEST_F(UtilityModelTest, VehicleUtilityLookup) {
  EXPECT_DOUBLE_EQ(instance_.VehicleUtility(0, 1), 0.4f);
  EXPECT_DOUBLE_EQ(instance_.VehicleUtility(2, 0), 0.8f);
}

TEST_F(UtilityModelTest, SimilarityUsesJaccard) {
  EXPECT_DOUBLE_EQ(instance_.Similarity(0, 1), 1.0);  // identical friend sets
  EXPECT_DOUBLE_EQ(instance_.Similarity(0, 2), 0.0);
}

TEST_F(UtilityModelTest, SoloRiderNoDetour) {
  UtilityModel model(&instance_, {0.0, 0.0});  // trajectory only
  TransferSequence seq(0, 0, 3, oracle_.get());
  seq.InsertStop(0, {0, 0, StopType::kPickup, 1e5});
  seq.InsertStop(1, {2, 0, StopType::kDropoff, 1e6});
  // Onboard cost 20 == direct cost 20 -> σ = 1 -> μ_t = 1.
  EXPECT_DOUBLE_EQ(model.TrajectoryRelated(0, seq), 1.0);
  EXPECT_DOUBLE_EQ(model.RiderUtility(0, 0, seq), 1.0);
  // Solo rider has no co-riders -> μ_r = 0.
  EXPECT_DOUBLE_EQ(model.RiderRelated(0, seq), 0.0);
}

TEST_F(UtilityModelTest, DetourLowersTrajectoryUtility) {
  UtilityModel model(&instance_, {0.0, 0.0});
  // Rider 0 (0 -> 2) routed 0 .. 3 .. back 2: onboard cost 30+10=40, σ=2.
  TransferSequence seq(0, 0, 3, oracle_.get());
  seq.InsertStop(0, {0, 0, StopType::kPickup, 1e5});
  seq.InsertStop(1, {3, 1, StopType::kPickup, 1e5});
  seq.InsertStop(2, {2, 0, StopType::kDropoff, 1e6});
  seq.InsertStop(3, {1, 1, StopType::kDropoff, 1e6});
  EXPECT_NEAR(model.TrajectoryRelated(0, seq), TrajectoryUtility(2.0), 1e-12);
}

TEST_F(UtilityModelTest, RiderRelatedWeightsByLegCost) {
  UtilityModel model(&instance_, {0.0, 1.0});  // rider-related only
  // Shared segment: pick r0 at 0, pick r1 at 1, drop r0 at 2, drop r1 at 3.
  TransferSequence seq(0, 0, 3, oracle_.get());
  seq.InsertStop(0, {0, 0, StopType::kPickup, 1e5});
  seq.InsertStop(1, {1, 1, StopType::kPickup, 1e5});
  seq.InsertStop(2, {2, 0, StopType::kDropoff, 1e6});
  seq.InsertStop(3, {3, 1, StopType::kDropoff, 1e6});
  // Rider 0 onboard legs 1 (cost 10, alone? no - r1 not yet onboard during
  // leg 1: R = {r0}) and 2 (cost 10, with r1).
  // Eq. 2: leg 1 contributes 0 (no co-rider), leg 2 contributes
  // (10/20) * s(0,1) = 0.5 * 1 = 0.5.
  EXPECT_NEAR(model.RiderRelated(0, seq), 0.5, 1e-12);
  // Rider 1 onboard legs 2,3; co-rider only on leg 2: 0.5 * 1.
  EXPECT_NEAR(model.RiderRelated(1, seq), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(model.RiderUtility(0, 0, seq), 0.5);
}

TEST_F(UtilityModelTest, DissimilarCoRiderContributesZero) {
  UtilityModel model(&instance_, {0.0, 1.0});
  // Riders 0 and 2 share (similarity 0).
  TransferSequence seq(0, 0, 3, oracle_.get());
  seq.InsertStop(0, {0, 0, StopType::kPickup, 1e5});
  seq.InsertStop(1, {0, 2, StopType::kPickup, 1e5});
  seq.InsertStop(2, {2, 0, StopType::kDropoff, 1e6});
  seq.InsertStop(3, {4, 2, StopType::kDropoff, 1e6});
  EXPECT_DOUBLE_EQ(model.RiderRelated(0, seq), 0.0);
}

TEST_F(UtilityModelTest, Equation1Mixing) {
  UtilityModel model(&instance_, {0.25, 0.25});
  TransferSequence seq(0, 0, 3, oracle_.get());
  seq.InsertStop(0, {0, 0, StopType::kPickup, 1e5});
  seq.InsertStop(1, {2, 0, StopType::kDropoff, 1e6});
  // μ = 0.25*μ_v(0,0) + 0.25*0 + 0.5*1 = 0.25*0.2 + 0.5.
  EXPECT_NEAR(model.RiderUtility(0, 0, seq), 0.25 * 0.2 + 0.5, 1e-9);
}

TEST_F(UtilityModelTest, ScheduleUtilitySumsRiders) {
  UtilityModel model(&instance_, {0.5, 0.0});
  TransferSequence seq(0, 0, 3, oracle_.get());
  seq.InsertStop(0, {0, 0, StopType::kPickup, 1e5});
  seq.InsertStop(1, {2, 0, StopType::kDropoff, 1e6});
  seq.InsertStop(2, {1, 1, StopType::kPickup, 1e5});
  seq.InsertStop(3, {3, 1, StopType::kDropoff, 1e6});
  const double expected =
      model.RiderUtility(0, 0, seq) + model.RiderUtility(1, 0, seq);
  EXPECT_NEAR(model.ScheduleUtility(0, seq), expected, 1e-12);
}

TEST_F(UtilityModelTest, UtilityBoundsOnRandomSchedules) {
  // Property: μ ∈ [0, 1] per rider for any (α, β) mix and any valid
  // schedule, since all three components are in [0, 1].
  Rng rng(131);
  GridCityOptions gopt;
  gopt.width = 8;
  gopt.height = 8;
  auto g = GenerateGridCity(gopt, &rng);
  ASSERT_TRUE(g.ok());
  DijkstraOracle oracle(*g);
  UrrInstance inst;
  inst.network = &*g;
  inst.social = social_.get();
  for (int i = 0; i < 6; ++i) {
    Rider r;
    r.source = static_cast<NodeId>(rng.UniformInt(0, g->num_nodes() - 1));
    r.destination = static_cast<NodeId>(rng.UniformInt(0, g->num_nodes() - 1));
    r.pickup_deadline = 1e6;
    r.dropoff_deadline = 1e7;
    r.user = static_cast<UserId>(rng.UniformInt(0, 4));
    inst.riders.push_back(r);
  }
  inst.vehicles = {{0, 6}};
  for (const auto& params :
       {UtilityParams{0, 0}, UtilityParams{1, 0}, UtilityParams{0, 1},
        UtilityParams{0.33, 0.33}}) {
    UtilityModel model(&inst, params);
    TransferSequence seq(0, 0, 6, &oracle);
    for (int i = 0; i < 6; ++i) {
      if (inst.riders[static_cast<size_t>(i)].source ==
          inst.riders[static_cast<size_t>(i)].destination) {
        continue;
      }
      const int w = seq.num_stops();
      seq.InsertStop(w, {inst.riders[static_cast<size_t>(i)].source, i,
                         StopType::kPickup, 1e6});
      seq.InsertStop(w + 1, {inst.riders[static_cast<size_t>(i)].destination,
                             i, StopType::kDropoff, 1e7});
    }
    for (RiderId i : seq.Riders()) {
      const double mu = model.RiderUtility(i, 0, seq);
      EXPECT_GE(mu, 0.0);
      EXPECT_LE(mu, 1.0 + 1e-12);
    }
  }
}

}  // namespace
}  // namespace urr
