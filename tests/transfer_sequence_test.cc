#include "sched/transfer_sequence.h"

#include "sched/insertion.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/generators.h"

namespace urr {
namespace {

/// Line network 0 -10- 1 -10- 2 -10- 3 -10- 4, two-way.
Result<RoadNetwork> LineCity() {
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < 5; ++v) {
    edges.push_back({v, v + 1, 10});
    edges.push_back({v + 1, v, 10});
  }
  return RoadNetwork::Build(5, edges);
}

class TransferSequenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto g = LineCity();
    ASSERT_TRUE(g.ok());
    network_ = std::make_unique<RoadNetwork>(*std::move(g));
    oracle_ = std::make_unique<DijkstraOracle>(*network_);
  }

  std::unique_ptr<RoadNetwork> network_;
  std::unique_ptr<DijkstraOracle> oracle_;
};

TEST_F(TransferSequenceTest, EmptySequence) {
  TransferSequence seq(0, 100, 2, oracle_.get());
  EXPECT_TRUE(seq.empty());
  EXPECT_EQ(seq.num_stops(), 0);
  EXPECT_DOUBLE_EQ(seq.TotalCost(), 0);
  EXPECT_DOUBLE_EQ(seq.EndTime(), 100);
  EXPECT_EQ(seq.EndOnboard(), 0);
  EXPECT_TRUE(seq.Validate().ok());
  EXPECT_TRUE(seq.Riders().empty());
}

TEST_F(TransferSequenceTest, DerivedFieldsMatchEquations) {
  // Vehicle at 0 (t=0, cap 2): pickup r0 at node 1 (dl 50), drop at node 3
  // (dl 100).
  TransferSequence seq(0, 0, 2, oracle_.get());
  seq.InsertStop(0, {1, 0, StopType::kPickup, 50});
  seq.InsertStop(1, {3, 0, StopType::kDropoff, 100});
  // Leg costs (Eq. 6 inputs): 0->1 = 10, 1->3 = 20.
  EXPECT_DOUBLE_EQ(seq.leg_cost(0), 10);
  EXPECT_DOUBLE_EQ(seq.leg_cost(1), 20);
  EXPECT_DOUBLE_EQ(seq.EarliestStart(0), 0);
  EXPECT_DOUBLE_EQ(seq.EarliestArrival(0), 10);
  EXPECT_DOUBLE_EQ(seq.EarliestStart(1), 10);
  EXPECT_DOUBLE_EQ(seq.EarliestArrival(1), 30);
  // Eq. 7: latest completion of the last leg = its deadline; leg 0 =
  // min(100 - 20, 50) = 50.
  EXPECT_DOUBLE_EQ(seq.LatestCompletion(1), 100);
  EXPECT_DOUBLE_EQ(seq.LatestCompletion(0), 50);
  // Eq. 8: ft_1 = 100 - 10 - 20 = 70; ft_0 = min(50 - 0 - 10, 70) = 40.
  EXPECT_DOUBLE_EQ(seq.FlexTime(1), 70);
  EXPECT_DOUBLE_EQ(seq.FlexTime(0), 40);
  // Occupancy: leg 0 = to pickup (0 onboard), leg 1 = rider aboard.
  EXPECT_EQ(seq.Onboard(0), 0);
  EXPECT_EQ(seq.Onboard(1), 1);
  EXPECT_DOUBLE_EQ(seq.TotalCost(), 30);
  EXPECT_TRUE(seq.Validate().ok());
}

TEST_F(TransferSequenceTest, PaperExample2FlexTime) {
  // Mirrors Example 2's structure: vehicle at B needs to reach A before 4
  // with travel cost 1 => flex = 4 - 0 - 1 = 3.
  auto g = RoadNetwork::Build(2, {{0, 1, 1}, {1, 0, 1}});
  ASSERT_TRUE(g.ok());
  DijkstraOracle oracle(*g);
  TransferSequence seq(1, 0, 2, &oracle);
  seq.InsertStop(0, {0, 0, StopType::kPickup, 4});
  EXPECT_DOUBLE_EQ(seq.FlexTime(0), 3);
}

TEST_F(TransferSequenceTest, OnboardRidersSets) {
  // Two riders sharing: pick r0 at 1, pick r1 at 2, drop r0 at 3, drop r1
  // at 4.
  TransferSequence seq(0, 0, 2, oracle_.get());
  seq.InsertStop(0, {1, 0, StopType::kPickup, 1e6});
  seq.InsertStop(1, {2, 1, StopType::kPickup, 1e6});
  seq.InsertStop(2, {3, 0, StopType::kDropoff, 1e6});
  seq.InsertStop(3, {4, 1, StopType::kDropoff, 1e6});
  EXPECT_EQ(seq.OnboardRiders(0), (std::vector<RiderId>{}));
  EXPECT_EQ(seq.OnboardRiders(1), (std::vector<RiderId>{0}));
  EXPECT_EQ(seq.OnboardRiders(2), (std::vector<RiderId>{0, 1}));
  EXPECT_EQ(seq.OnboardRiders(3), (std::vector<RiderId>{1}));
  EXPECT_EQ(seq.Onboard(2), 2);
  EXPECT_EQ(seq.EndOnboard(), 0);
  EXPECT_EQ(seq.Riders(), (std::vector<RiderId>{0, 1}));
  EXPECT_EQ(seq.RiderStops(1), (std::pair<int, int>{1, 3}));
  EXPECT_EQ(seq.RiderStops(9), (std::pair<int, int>{-1, -1}));
}

TEST_F(TransferSequenceTest, ValidateCatchesDeadlineViolation) {
  TransferSequence seq(0, 0, 2, oracle_.get());
  seq.InsertStop(0, {4, 0, StopType::kPickup, 5});  // needs 40 > 5
  const Status st = seq.Validate();
  EXPECT_EQ(st.code(), StatusCode::kDeadlineViolated);
}

TEST_F(TransferSequenceTest, ValidateCatchesCapacity) {
  TransferSequence seq(0, 0, 1, oracle_.get());
  seq.InsertStop(0, {1, 0, StopType::kPickup, 1e6});
  seq.InsertStop(1, {2, 1, StopType::kPickup, 1e6});
  seq.InsertStop(2, {3, 0, StopType::kDropoff, 1e6});
  seq.InsertStop(3, {4, 1, StopType::kDropoff, 1e6});
  EXPECT_EQ(seq.Validate().code(), StatusCode::kCapacityExceeded);
}

TEST_F(TransferSequenceTest, ValidateCatchesOrdering) {
  TransferSequence seq(0, 0, 2, oracle_.get());
  seq.InsertStop(0, {3, 0, StopType::kDropoff, 1e6});
  seq.InsertStop(1, {1, 0, StopType::kPickup, 1e6});
  EXPECT_EQ(seq.Validate().code(), StatusCode::kInfeasible);
}

TEST_F(TransferSequenceTest, RemoveRider) {
  TransferSequence seq(0, 0, 2, oracle_.get());
  seq.InsertStop(0, {1, 0, StopType::kPickup, 1e6});
  seq.InsertStop(1, {2, 1, StopType::kPickup, 1e6});
  seq.InsertStop(2, {3, 0, StopType::kDropoff, 1e6});
  seq.InsertStop(3, {4, 1, StopType::kDropoff, 1e6});
  const Cost cost_before = seq.TotalCost();
  ASSERT_TRUE(seq.RemoveRider(0).ok());
  EXPECT_EQ(seq.num_stops(), 2);
  EXPECT_EQ(seq.Riders(), (std::vector<RiderId>{1}));
  // On a line the remaining trip can cost the same; never more.
  EXPECT_LE(seq.TotalCost(), cost_before);
  EXPECT_DOUBLE_EQ(seq.TotalCost(), 40);  // 0->2 + 2->4
  EXPECT_TRUE(seq.Validate().ok());
  EXPECT_EQ(seq.RemoveRider(0).code(), StatusCode::kNotFound);
}

TEST_F(TransferSequenceTest, UnmatchedPickupOnboardToEnd) {
  TransferSequence seq(0, 0, 2, oracle_.get());
  seq.InsertStop(0, {1, 0, StopType::kPickup, 1e6});
  seq.InsertStop(1, {2, 1, StopType::kPickup, 1e6});
  seq.InsertStop(2, {3, 1, StopType::kDropoff, 1e6});
  // Rider 0 has no dropoff: onboard during legs 1 and 2, and at the end.
  EXPECT_EQ(seq.Onboard(1), 1);
  EXPECT_EQ(seq.Onboard(2), 2);
  EXPECT_EQ(seq.EndOnboard(), 1);
}

TEST_F(TransferSequenceTest, FlexTimePropertyOnRandomSchedules) {
  // Property: on a feasible random schedule, delaying any leg by its flex
  // time still leaves every downstream deadline satisfiable (flex is the
  // min slack downstream, Eq. 8).
  Rng rng(111);
  GridCityOptions opt;
  opt.width = 10;
  opt.height = 10;
  auto g = GenerateGridCity(opt, &rng);
  ASSERT_TRUE(g.ok());
  DijkstraOracle oracle(*g);
  for (int trial = 0; trial < 40; ++trial) {
    TransferSequence seq(
        static_cast<NodeId>(rng.UniformInt(0, g->num_nodes() - 1)), 0, 4,
        &oracle);
    // Generous deadlines -> feasible by construction.
    for (int r = 0; r < 3; ++r) {
      const int w = seq.num_stops();
      seq.InsertStop(w, {static_cast<NodeId>(rng.UniformInt(0, g->num_nodes() - 1)),
                         r, StopType::kPickup, 1e6});
      seq.InsertStop(w + 1,
                     {static_cast<NodeId>(rng.UniformInt(0, g->num_nodes() - 1)),
                      r, StopType::kDropoff, 1e6});
    }
    ASSERT_TRUE(seq.Validate().ok());
    for (int u = 0; u < seq.num_stops(); ++u) {
      // Arrival when leg u is delayed by flex: every later stop's arrival
      // shifts by the same amount and must still meet its deadline.
      const Cost delay = seq.FlexTime(u);
      ASSERT_GE(delay, 0);
      for (int v = u; v < seq.num_stops(); ++v) {
        EXPECT_LE(seq.EarliestArrival(v) + delay,
                  seq.stop(v).deadline + 1e-6);
      }
    }
  }
}

TEST_F(TransferSequenceTest, DerivedFieldsMatchIndependentReference) {
  // Property: the incrementally maintained fields equal a from-scratch
  // evaluation of Eqs. 6-8 written directly from the paper.
  Rng rng(112);
  GridCityOptions opt;
  opt.width = 9;
  opt.height = 9;
  auto g = GenerateGridCity(opt, &rng);
  ASSERT_TRUE(g.ok());
  DijkstraOracle oracle(*g);
  DijkstraEngine ref_engine(*g);
  for (int trial = 0; trial < 25; ++trial) {
    const NodeId start =
        static_cast<NodeId>(rng.UniformInt(0, g->num_nodes() - 1));
    TransferSequence seq(start, rng.Uniform(0, 100), 4, &oracle);
    for (int r = 0; r < 4; ++r) {
      RiderTrip trip{r,
                     static_cast<NodeId>(rng.UniformInt(0, g->num_nodes() - 1)),
                     static_cast<NodeId>(rng.UniformInt(0, g->num_nodes() - 1)),
                     seq.now() + rng.Uniform(500, 4000), 0};
      if (trip.source == trip.destination) continue;
      trip.dropoff_deadline = trip.pickup_deadline + rng.Uniform(500, 4000);
      auto plan = FindBestInsertion(seq, trip);
      if (plan.ok()) {
        ASSERT_TRUE(ApplyInsertion(&seq, trip, *plan).ok());
      }
    }
    const int w = seq.num_stops();
    if (w == 0) continue;
    // Reference Eq. 6: earliest arrivals forward.
    std::vector<Cost> leg(static_cast<size_t>(w));
    std::vector<Cost> arr(static_cast<size_t>(w));
    for (int u = 0; u < w; ++u) {
      const NodeId from = u == 0 ? start : seq.stop(u - 1).location;
      leg[static_cast<size_t>(u)] =
          ref_engine.Distance(from, seq.stop(u).location);
      arr[static_cast<size_t>(u)] =
          (u == 0 ? seq.now() : arr[static_cast<size_t>(u) - 1]) +
          leg[static_cast<size_t>(u)];
    }
    // Reference Eq. 7 backward.
    std::vector<Cost> latest(static_cast<size_t>(w));
    latest[static_cast<size_t>(w) - 1] = seq.stop(w - 1).deadline;
    for (int u = w - 2; u >= 0; --u) {
      latest[static_cast<size_t>(u)] =
          std::min(latest[static_cast<size_t>(u) + 1] -
                       leg[static_cast<size_t>(u) + 1],
                   seq.stop(u).deadline);
    }
    // Reference Eq. 8 backward.
    std::vector<Cost> flex(static_cast<size_t>(w));
    for (int u = w - 1; u >= 0; --u) {
      const Cost estart = u == 0 ? seq.now() : arr[static_cast<size_t>(u) - 1];
      const Cost slack =
          latest[static_cast<size_t>(u)] - estart - leg[static_cast<size_t>(u)];
      flex[static_cast<size_t>(u)] =
          u == w - 1 ? slack : std::min(slack, flex[static_cast<size_t>(u) + 1]);
    }
    for (int u = 0; u < w; ++u) {
      EXPECT_NEAR(seq.leg_cost(u), leg[static_cast<size_t>(u)], 1e-9);
      EXPECT_NEAR(seq.EarliestArrival(u), arr[static_cast<size_t>(u)], 1e-9);
      EXPECT_NEAR(seq.LatestCompletion(u), latest[static_cast<size_t>(u)], 1e-9);
      EXPECT_NEAR(seq.FlexTime(u), flex[static_cast<size_t>(u)], 1e-9);
    }
  }
}

TEST_F(TransferSequenceTest, AdvanceToPopsStrictlyEarlierStops) {
  // Vehicle at 0 (t=0): pickup r0 at node 1 (arrival 10), drop at node 3
  // (arrival 30).
  TransferSequence seq(0, 0, 2, oracle_.get());
  seq.InsertStop(0, {1, 0, StopType::kPickup, 50});
  seq.InsertStop(1, {3, 0, StopType::kDropoff, 100});

  // Strict `<`: a stop reached exactly at t stays pending.
  EXPECT_TRUE(seq.AdvanceTo(10).empty());
  EXPECT_EQ(seq.commit_floor(), 1);  // mid-leg (10 > now = 0)
  EXPECT_EQ(seq.num_stops(), 2);

  const auto done = seq.AdvanceTo(15);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].stop.rider, 0);
  EXPECT_EQ(done[0].stop.type, StopType::kPickup);
  EXPECT_DOUBLE_EQ(done[0].time, 10);
  // The vehicle re-anchors at the executed pickup; the rider is onboard.
  EXPECT_EQ(seq.start_location(), 1);
  EXPECT_DOUBLE_EQ(seq.now(), 10);
  EXPECT_EQ(seq.initial_onboard(), (std::vector<RiderId>{0}));
  EXPECT_EQ(seq.commit_floor(), 1);  // mid-leg towards the dropoff
  ASSERT_EQ(seq.num_stops(), 1);
  // The remaining arrival is rebuilt bitwise-identically (same float sums).
  EXPECT_EQ(seq.EarliestArrival(0), 30);
  EXPECT_EQ(seq.Onboard(0), 1);
  EXPECT_TRUE(seq.Validate().ok());
}

TEST_F(TransferSequenceTest, AdvanceToDrainsAndIdles) {
  TransferSequence seq(0, 0, 2, oracle_.get());
  seq.InsertStop(0, {1, 0, StopType::kPickup, 50});
  seq.InsertStop(1, {3, 0, StopType::kDropoff, 100});
  const auto done = seq.AdvanceTo(1000);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[1].stop.type, StopType::kDropoff);
  EXPECT_TRUE(seq.empty());
  EXPECT_EQ(seq.start_location(), 3);
  EXPECT_DOUBLE_EQ(seq.now(), 1000);  // idle wait at the anchor
  EXPECT_EQ(seq.commit_floor(), 0);
  EXPECT_TRUE(seq.initial_onboard().empty());
  EXPECT_TRUE(seq.Validate().ok());
}

TEST_F(TransferSequenceTest, OnboardRiderCannotBeRemoved) {
  TransferSequence seq(0, 0, 2, oracle_.get());
  seq.InsertStop(0, {1, 0, StopType::kPickup, 50});
  seq.InsertStop(1, {3, 0, StopType::kDropoff, 100});
  seq.AdvanceTo(15);  // pickup executed; r0 onboard
  EXPECT_EQ(seq.RemoveRider(0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(seq.ExciseRider(0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(seq.num_stops(), 1);  // schedule untouched
}

TEST_F(TransferSequenceTest, ExciseRiderMidLegCompletesTheLegAsDeadhead) {
  TransferSequence seq(0, 0, 2, oracle_.get());
  seq.InsertStop(0, {1, 0, StopType::kPickup, 50});
  seq.InsertStop(1, {3, 0, StopType::kDropoff, 100});
  seq.AdvanceTo(5);  // mid-leg towards the pickup, nothing executed
  ASSERT_EQ(seq.commit_floor(), 1);
  ASSERT_TRUE(seq.ExciseRider(0).ok());
  // The in-flight leg became a waypoint: the vehicle ends at the would-be
  // pickup node at its arrival time, with an empty schedule.
  EXPECT_TRUE(seq.empty());
  EXPECT_EQ(seq.start_location(), 1);
  EXPECT_DOUBLE_EQ(seq.now(), 10);
  EXPECT_EQ(seq.commit_floor(), 0);
}

TEST_F(TransferSequenceTest, ExciseRiderBeforeDepartureIsAPlainRemoval) {
  TransferSequence seq(0, 0, 2, oracle_.get());
  seq.InsertStop(0, {1, 0, StopType::kPickup, 50});
  seq.InsertStop(1, {3, 0, StopType::kDropoff, 100});
  seq.InsertStop(1, {2, 1, StopType::kPickup, 60});
  seq.InsertStop(3, {4, 1, StopType::kDropoff, 200});
  ASSERT_TRUE(seq.ExciseRider(1).ok());  // vehicle has not departed
  EXPECT_EQ(seq.Riders(), (std::vector<RiderId>{0}));
  EXPECT_EQ(seq.start_location(), 0);
  EXPECT_DOUBLE_EQ(seq.now(), 0);
  EXPECT_EQ(seq.ExciseRider(7).code(), StatusCode::kNotFound);
}

TEST_F(TransferSequenceTest, DoubleExciseReturnsNotFound) {
  TransferSequence seq(0, 0, 2, oracle_.get());
  seq.InsertStop(0, {1, 0, StopType::kPickup, 50});
  seq.InsertStop(1, {3, 0, StopType::kDropoff, 100});
  seq.AdvanceTo(5);  // mid-leg towards the pickup
  ASSERT_TRUE(seq.ExciseRider(0).ok());
  // A second excise of the same rider must be a clean NotFound on the
  // already-emptied schedule — no anchor mutation, no crash.
  const NodeId anchor = seq.start_location();
  const Cost now = seq.now();
  EXPECT_EQ(seq.ExciseRider(0).code(), StatusCode::kNotFound);
  EXPECT_EQ(seq.start_location(), anchor);
  EXPECT_DOUBLE_EQ(seq.now(), now);
  EXPECT_TRUE(seq.Validate().ok());
}

TEST_F(TransferSequenceTest, ExciseLastRemainingRiderLeavesAUsableSchedule) {
  TransferSequence seq(0, 0, 2, oracle_.get());
  seq.InsertStop(0, {2, 5, StopType::kPickup, 60});
  seq.InsertStop(1, {4, 5, StopType::kDropoff, 200});
  ASSERT_TRUE(seq.ExciseRider(5).ok());  // parked: plain removal
  EXPECT_TRUE(seq.empty());
  EXPECT_EQ(seq.start_location(), 0);
  EXPECT_DOUBLE_EQ(seq.EndTime(), seq.now());
  EXPECT_TRUE(seq.Validate().ok());
  // The emptied schedule must accept fresh work as if newly constructed.
  seq.InsertStop(0, {1, 6, StopType::kPickup, 50});
  seq.InsertStop(1, {3, 6, StopType::kDropoff, 150});
  EXPECT_TRUE(seq.Validate().ok());
  EXPECT_EQ(seq.Riders(), (std::vector<RiderId>{6}));
}

// After a mid-leg excise, every derived field (Eq. 6 arrivals, Eq. 7 latest
// completions, Eq. 8 flex times, onboard counts) must equal a from-scratch
// sequence built at the post-deadhead anchor with the surviving stops.
TEST_F(TransferSequenceTest, ExciseMatchesFromScratchRebuild) {
  TransferSequence seq(0, 0, 2, oracle_.get());
  seq.InsertStop(0, {1, 0, StopType::kPickup, 50});
  seq.InsertStop(1, {2, 1, StopType::kPickup, 60});
  seq.InsertStop(2, {3, 0, StopType::kDropoff, 150});
  seq.InsertStop(3, {4, 1, StopType::kDropoff, 200});
  seq.AdvanceTo(5);  // mid-leg towards rider 0's pickup at node 1
  ASSERT_EQ(seq.commit_floor(), 1);
  ASSERT_TRUE(seq.ExciseRider(0).ok());

  // Deadhead completed: anchored at node 1 at t=10, two stops survive.
  ASSERT_EQ(seq.start_location(), 1);
  ASSERT_DOUBLE_EQ(seq.now(), 10);
  ASSERT_EQ(seq.num_stops(), 2);

  TransferSequence fresh(1, 10, 2, oracle_.get());
  fresh.InsertStop(0, {2, 1, StopType::kPickup, 60});
  fresh.InsertStop(1, {4, 1, StopType::kDropoff, 200});
  for (int u = 0; u < seq.num_stops(); ++u) {
    EXPECT_DOUBLE_EQ(seq.leg_cost(u), fresh.leg_cost(u)) << "leg " << u;
    EXPECT_DOUBLE_EQ(seq.EarliestArrival(u), fresh.EarliestArrival(u))
        << "leg " << u;
    EXPECT_DOUBLE_EQ(seq.LatestCompletion(u), fresh.LatestCompletion(u))
        << "leg " << u;
    EXPECT_DOUBLE_EQ(seq.FlexTime(u), fresh.FlexTime(u)) << "leg " << u;
    EXPECT_EQ(seq.Onboard(u), fresh.Onboard(u)) << "leg " << u;
  }
  EXPECT_DOUBLE_EQ(seq.TotalCost(), fresh.TotalCost());
  EXPECT_DOUBLE_EQ(seq.EndTime(), fresh.EndTime());
  EXPECT_TRUE(seq.Validate().ok());
}

TEST_F(TransferSequenceTest, InsertionRespectsCommitFloor) {
  TransferSequence seq(0, 0, 2, oracle_.get());
  seq.InsertStop(0, {3, 0, StopType::kPickup, 1e6});
  seq.InsertStop(1, {4, 0, StopType::kDropoff, 1e6});
  seq.AdvanceTo(5);  // mid-leg towards node 3
  ASSERT_EQ(seq.commit_floor(), 1);
  // A rider right next to the vehicle's current position: the best legal
  // pickup position is AFTER the committed stop, never diverting the leg.
  const RiderTrip trip{1, 0, 1, 1e6, 1e6};
  const auto plan = FindBestInsertion(seq, trip);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_GE(plan->pickup_pos, seq.commit_floor());
  InsertionPlan diverting = *plan;
  diverting.pickup_pos = 0;
  diverting.dropoff_pos = 1;
  EXPECT_EQ(ApplyInsertion(&seq, trip, diverting).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace urr
