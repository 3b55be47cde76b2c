#include "sched/reorder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/rng.h"
#include "graph/generators.h"
#include "routing/hub_labels.h"

namespace urr {
namespace {

Result<RoadNetwork> LineCity() {
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < 6; ++v) {
    edges.push_back({v, v + 1, 10});
    edges.push_back({v + 1, v, 10});
  }
  return RoadNetwork::Build(6, edges);
}

class ReorderTest : public ::testing::Test {
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

TEST_F(ReorderTest, EmptyScheduleMatchesPlainInsertion) {
  TransferSequence seq(0, 0, 2, oracle_.get());
  RiderTrip trip{0, 2, 4, 1e5, 1e6};
  auto plain = FindBestInsertion(seq, trip);
  auto reorder = FindBestInsertionWithReordering(seq, trip);
  ASSERT_TRUE(plain.ok() && reorder.ok());
  EXPECT_NEAR(reorder->delta_cost, plain->delta_cost, 1e-9);
  TransferSequence applied = ApplyReorderPlan(seq, *reorder);
  EXPECT_TRUE(applied.Validate().ok());
  EXPECT_NEAR(applied.TotalCost(), reorder->total_cost, 1e-9);
}

TEST_F(ReorderTest, ReorderBeatsNonReorderWhereOrderMatters) {
  // Vehicle at 0 committed to serve rider 0 (5 -> 0). Non-reordered
  // insertion of rider 1 (1 -> 2) can only go around that fixed plan; the
  // reordered search may pick 1,2 up on the way out to 5.
  TransferSequence seq(0, 0, 2, oracle_.get());
  RiderTrip first{0, 5, 0, 1e5, 1e6};
  ASSERT_TRUE(ArrangeSingleRider(&seq, first).ok());
  RiderTrip second{1, 1, 2, 1e5, 1e6};
  auto plain = FindBestInsertion(seq, second);
  auto reorder = FindBestInsertionWithReordering(seq, second);
  ASSERT_TRUE(plain.ok() && reorder.ok());
  EXPECT_LE(reorder->delta_cost, plain->delta_cost + 1e-9);
  TransferSequence applied = ApplyReorderPlan(seq, *reorder);
  EXPECT_TRUE(applied.Validate().ok());
}

TEST_F(ReorderTest, RespectsDeadlinesAndCapacity) {
  TransferSequence seq(0, 0, 1, oracle_.get());
  RiderTrip first{0, 1, 5, 15, 1e6};
  ASSERT_TRUE(ArrangeSingleRider(&seq, first).ok());
  // Same blocked rider as the non-reorder test: no ordering can serve it.
  RiderTrip second{1, 2, 4, 45, 60};
  auto reorder = FindBestInsertionWithReordering(seq, second);
  EXPECT_EQ(reorder.status().code(), StatusCode::kInfeasible);
}

TEST_F(ReorderTest, BudgetExhaustionReported) {
  TransferSequence seq(0, 0, 4, oracle_.get());
  for (int r = 0; r < 4; ++r) {
    RiderTrip trip{r, static_cast<NodeId>(r % 5), static_cast<NodeId>((r + 2) % 5),
                   1e7, 1e8};
    (void)ArrangeSingleRider(&seq, trip);
  }
  RiderTrip probe{9, 1, 3, 1e7, 1e8};
  auto reorder = FindBestInsertionWithReordering(seq, probe, /*max_nodes=*/5);
  EXPECT_EQ(reorder.status().code(), StatusCode::kOutOfRange);
}

struct ReorderPropertyParam {
  uint64_t seed;
  int capacity;
};

class ReorderPropertyTest
    : public ::testing::TestWithParam<ReorderPropertyParam> {};

TEST_P(ReorderPropertyTest, NeverWorseThanNonReorderAndAlwaysValid) {
  const auto param = GetParam();
  Rng rng(param.seed);
  GridCityOptions opt;
  opt.width = 8;
  opt.height = 8;
  auto g = GenerateGridCity(opt, &rng);
  ASSERT_TRUE(g.ok());
  DijkstraOracle oracle(*g);
  auto random_node = [&] {
    return static_cast<NodeId>(rng.UniformInt(0, g->num_nodes() - 1));
  };
  int compared = 0;
  for (int trial = 0; trial < 25; ++trial) {
    TransferSequence seq(random_node(), 0, param.capacity, &oracle);
    for (int r = 0; r < 3; ++r) {
      const NodeId s = random_node();
      const NodeId e = random_node();
      if (s == e) continue;
      RiderTrip trip{r, s, e, rng.Uniform(300, 2000), 0};
      trip.dropoff_deadline =
          trip.pickup_deadline + oracle.Distance(s, e) * rng.Uniform(1.3, 2.5);
      auto plan = FindBestInsertion(seq, trip);
      if (plan.ok()) {
        ASSERT_TRUE(ApplyInsertion(&seq, trip, *plan).ok());
      }
    }
    const NodeId s = random_node();
    const NodeId e = random_node();
    if (s == e) continue;
    RiderTrip probe{7, s, e, rng.Uniform(300, 2000), 0};
    probe.dropoff_deadline =
        probe.pickup_deadline + oracle.Distance(s, e) * rng.Uniform(1.2, 2.0);
    auto plain = FindBestInsertion(seq, probe);
    auto reorder = FindBestInsertionWithReordering(seq, probe);
    if (plain.ok()) {
      // Reordering subsumes the non-reordered search space.
      ASSERT_TRUE(reorder.ok()) << "reorder infeasible where plain feasible";
      EXPECT_LE(reorder->delta_cost, plain->delta_cost + 1e-6);
      ++compared;
    }
    if (reorder.ok()) {
      TransferSequence applied = ApplyReorderPlan(seq, *reorder);
      EXPECT_TRUE(applied.Validate().ok());
      EXPECT_EQ(applied.num_stops(), seq.num_stops() + 2);
    }
  }
  EXPECT_GT(compared, 3);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ReorderPropertyTest,
                         ::testing::Values(ReorderPropertyParam{21, 2},
                                           ReorderPropertyParam{22, 3},
                                           ReorderPropertyParam{23, 1},
                                           ReorderPropertyParam{24, 4}),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param.seed) +
                                  "cap" + std::to_string(info.param.capacity);
                         });

/// Slow reference for FindBestInsertionWithReordering: tries every ordering
/// of `seq`'s stops plus `trip`'s two stops that keeps each pickup before its
/// dropoff, materializes it through ApplyReorderPlan and keeps it when
/// Validate() accepts it. Returns the cheapest total cost, or kInfiniteCost
/// when no ordering is valid. Assumes no rider is onboard at the start.
Cost BruteForceBestTotalCost(const TransferSequence& seq,
                             const RiderTrip& trip) {
  std::vector<Stop> pool;
  for (int u = 0; u < seq.num_stops(); ++u) pool.push_back(seq.stop(u));
  pool.push_back({trip.source, trip.rider, StopType::kPickup,
                  trip.pickup_deadline});
  pool.push_back({trip.destination, trip.rider, StopType::kDropoff,
                  trip.dropoff_deadline});
  std::vector<int> order(pool.size());
  std::iota(order.begin(), order.end(), 0);
  Cost best = kInfiniteCost;
  do {
    ReorderPlan plan;
    std::vector<RiderId> picked;
    bool paired = true;
    for (int i : order) {
      const Stop& stop = pool[static_cast<size_t>(i)];
      if (stop.type == StopType::kPickup) {
        picked.push_back(stop.rider);
      } else if (std::find(picked.begin(), picked.end(), stop.rider) ==
                 picked.end()) {
        paired = false;
        break;
      }
      plan.stops.push_back(stop);
    }
    if (!paired) continue;
    const TransferSequence candidate = ApplyReorderPlan(seq, plan);
    if (candidate.Validate().ok()) {
      best = std::min(best, candidate.TotalCost());
    }
  } while (std::next_permutation(order.begin(), order.end()));
  return best;
}

class ReorderExactnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReorderExactnessTest, MatchesBruteForceOnRandomInstances) {
  // Riders arrive one at a time; each is inserted with the exact reordering
  // search, checked against every ordering of the stops, and its plan is
  // committed before the next rider arrives (up to 3 committed riders + the
  // new one, so at most 8 stops).
  Rng rng(GetParam());
  GridCityOptions opt;
  opt.width = 7;
  opt.height = 7;
  auto g = GenerateGridCity(opt, &rng);
  ASSERT_TRUE(g.ok());
  auto labels = HubLabelOracle::Create(*g);
  ASSERT_TRUE(labels.ok());
  DistanceOracle& oracle = **labels;
  auto random_node = [&] {
    return static_cast<NodeId>(rng.UniformInt(0, g->num_nodes() - 1));
  };
  int nontrivial = 0;
  int infeasible = 0;
  for (int trial = 0; trial < 12; ++trial) {
    TransferSequence committed(random_node(), 0, 2, &oracle);
    int accepted = 0;
    for (int r = 0; r < 4; ++r) {
      const NodeId s = random_node();
      const NodeId e = random_node();
      if (s == e) continue;
      RiderTrip trip{r, s, e, rng.Uniform(400, 2500), 0};
      trip.dropoff_deadline =
          trip.pickup_deadline + oracle.Distance(s, e) * rng.Uniform(1.3, 2.5);
      const Cost want = BruteForceBestTotalCost(committed, trip);
      auto exact = FindBestInsertionWithReordering(committed, trip);
      if (want == kInfiniteCost) {
        EXPECT_EQ(exact.status().code(), StatusCode::kInfeasible)
            << "trial " << trial << " rider " << r;
        ++infeasible;
        continue;
      }
      ASSERT_TRUE(exact.ok()) << exact.status() << ", trial " << trial
                              << " rider " << r;
      EXPECT_NEAR(exact->total_cost, want, 1e-6)
          << "trial " << trial << " rider " << r;
      committed = ApplyReorderPlan(committed, *exact);
      ASSERT_TRUE(committed.Validate().ok());
      ++accepted;
    }
    if (accepted >= 3) ++nontrivial;
  }
  EXPECT_GT(nontrivial, 3);
  EXPECT_GT(infeasible, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReorderExactnessTest,
                         ::testing::Values(31, 32, 33, 34));

}  // namespace
}  // namespace urr
