#include "urr/solution.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/generators.h"

namespace urr {
namespace {

class SolutionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<Edge> edges;
    for (NodeId v = 0; v + 1 < 6; ++v) {
      edges.push_back({v, v + 1, 10});
      edges.push_back({v + 1, v, 10});
    }
    auto g = RoadNetwork::Build(6, edges);
    ASSERT_TRUE(g.ok());
    network_ = std::make_unique<RoadNetwork>(*std::move(g));
    oracle_ = std::make_unique<DijkstraOracle>(*network_);

    instance_.network = network_.get();
    instance_.riders = {{1, 3, 200, 500, -1}, {2, 4, 200, 500, -1}};
    instance_.vehicles = {{0, 2}, {5, 2}};
    model_ = std::make_unique<UtilityModel>(&instance_, UtilityParams{0, 0});
  }

  SolverContext Context(const UtilityModel* model) {
    SolverContext ctx;
    ctx.oracle = oracle_.get();
    ctx.model = model;
    return ctx;
  }

  UrrInstance instance_;
  std::unique_ptr<RoadNetwork> network_;
  std::unique_ptr<DijkstraOracle> oracle_;
  std::unique_ptr<UtilityModel> model_;
};

TEST_F(SolutionTest, EmptySolutionIsValid) {
  UrrSolution sol = MakeEmptySolution(instance_, oracle_.get());
  EXPECT_EQ(sol.schedules.size(), 2u);
  EXPECT_EQ(sol.assignment, (std::vector<int>{-1, -1}));
  EXPECT_TRUE(sol.Validate(instance_).ok());
  EXPECT_EQ(sol.NumAssigned(), 0);
  EXPECT_DOUBLE_EQ(sol.TotalCost(), 0);
  EXPECT_DOUBLE_EQ(sol.TotalUtility(*model_), 0);
}

TEST_F(SolutionTest, MetricsAfterInsertion) {
  UrrSolution sol = MakeEmptySolution(instance_, oracle_.get());
  auto plan = ArrangeSingleRider(&sol.schedules[0], instance_.Trip(0));
  ASSERT_TRUE(plan.ok());
  sol.assignment[0] = 0;
  EXPECT_TRUE(sol.Validate(instance_).ok());
  EXPECT_EQ(sol.NumAssigned(), 1);
  EXPECT_DOUBLE_EQ(sol.TotalCost(), 30);  // 0->1 (10) + 1->3 (20)
  // (α,β) = (0,0): pure trajectory utility; no detour -> 1.0.
  EXPECT_NEAR(sol.TotalUtility(*model_), 1.0, 1e-9);
}

TEST_F(SolutionTest, ValidateCatchesInconsistentAssignment) {
  UrrSolution sol = MakeEmptySolution(instance_, oracle_.get());
  ASSERT_TRUE(ArrangeSingleRider(&sol.schedules[0], instance_.Trip(0)).ok());
  // Scheduled on vehicle 0 but assignment says unassigned.
  EXPECT_FALSE(sol.Validate(instance_).ok());
  sol.assignment[0] = 1;  // wrong vehicle
  EXPECT_FALSE(sol.Validate(instance_).ok());
  sol.assignment[0] = 0;
  EXPECT_TRUE(sol.Validate(instance_).ok());
}

TEST_F(SolutionTest, ValidateCatchesMissingSchedule) {
  UrrSolution sol = MakeEmptySolution(instance_, oracle_.get());
  sol.assignment[0] = 1;  // assigned but not scheduled
  EXPECT_FALSE(sol.Validate(instance_).ok());
}

TEST_F(SolutionTest, EvaluateInsertionFeasible) {
  UrrSolution sol = MakeEmptySolution(instance_, oracle_.get());
  const SolverContext ctx = Context(model_.get());
  const CandidateEval eval = EvaluateCandidate(instance_, &ctx, sol, 0, 0,
                                               /*need_utility=*/true);
  ASSERT_TRUE(eval.feasible);
  EXPECT_DOUBLE_EQ(eval.delta_cost, 30);
  EXPECT_NEAR(eval.delta_utility, 1.0, 1e-9);  // new rider at σ = 1
}

TEST_F(SolutionTest, EvaluateInsertionInfeasible) {
  UrrInstance tight = instance_;
  tight.riders[0].pickup_deadline = 5;  // vehicle 0 needs 10 to reach node 1
  UrrSolution sol = MakeEmptySolution(tight, oracle_.get());
  UtilityModel model(&tight, UtilityParams{0, 0});
  const SolverContext ctx = Context(&model);
  EXPECT_FALSE(EvaluateCandidate(tight, &ctx, sol, 0, 0, true).feasible);
}

TEST_F(SolutionTest, EvaluateInsertionSkipUtility) {
  UrrSolution sol = MakeEmptySolution(instance_, oracle_.get());
  const SolverContext ctx = Context(model_.get());
  const CandidateEval eval = EvaluateCandidate(instance_, &ctx, sol, 0, 0,
                                               /*need_utility=*/false);
  ASSERT_TRUE(eval.feasible);
  EXPECT_DOUBLE_EQ(eval.delta_utility, 0.0);  // not computed
  EXPECT_DOUBLE_EQ(eval.delta_cost, 30);
}

TEST_F(SolutionTest, ValidVehiclesForRiderUsesBudget) {
  VehicleIndex index(*network_, {0, 5});
  // Rider 0 at node 1: vehicle 0 at distance 10, vehicle 1 at distance 40.
  instance_.riders[0].pickup_deadline = 15;
  auto valid = ValidVehiclesForRider(instance_, &index, 0, nullptr);
  EXPECT_EQ(valid, (std::vector<int>{0}));
  instance_.riders[0].pickup_deadline = 100;
  valid = ValidVehiclesForRider(instance_, &index, 0, nullptr);
  std::sort(valid.begin(), valid.end());
  EXPECT_EQ(valid, (std::vector<int>{0, 1}));
}

TEST_F(SolutionTest, ValidVehiclesRespectsAllowedMask) {
  VehicleIndex index(*network_, {0, 5});
  instance_.riders[0].pickup_deadline = 100;
  std::vector<bool> allowed = {false, true};
  auto valid = ValidVehiclesForRider(instance_, &index, 0, &allowed);
  EXPECT_EQ(valid, (std::vector<int>{1}));
}

TEST_F(SolutionTest, BatchRetrievalMatchesPerRiderAndRecordsStats) {
  VehicleIndex index(*network_, {0, 5});
  instance_.riders[0].pickup_deadline = 15;   // vehicle 0 only
  instance_.riders[1].pickup_deadline = 100;  // both vehicles
  RetrievalStats stats;
  SolverContext ctx = Context(model_.get());
  ctx.vehicle_index = &index;
  ctx.retrieval_stats = &stats;
  const auto lists = CandidateVehiclesForRiders(instance_, &ctx, {0, 1}, nullptr);
  ASSERT_EQ(lists.size(), 2u);
  EXPECT_EQ(lists[0], ValidVehiclesForRider(instance_, &index, 0, nullptr));
  EXPECT_EQ(lists[1], (std::vector<int>{0, 1}));
  EXPECT_EQ(stats.riders.load(), 2);
  EXPECT_EQ(stats.candidates.load(), 3);
  double mean = -1, p99 = -1;
  stats.SummarizeCandidates(&mean, &p99);
  EXPECT_DOUBLE_EQ(mean, 1.5);
  EXPECT_DOUBLE_EQ(p99, 2);
  EXPECT_EQ(CandidateVehiclesForRider(instance_, &ctx, 0, nullptr),
            (std::vector<int>{0}));
  EXPECT_EQ(stats.riders.load(), 3);

  RetrievalStats empty;
  empty.SummarizeCandidates(&mean, &p99);
  EXPECT_EQ(mean, 0);
  EXPECT_EQ(p99, 0);
}

// The histogram summary must equal the nearest-rank summary of the raw
// sequence, including when many queries tie at the p99 rank.
TEST(RetrievalStatsTest, HistogramMatchesSortedSequenceWithTies) {
  Rng rng(11);
  std::vector<int32_t> sizes;
  for (int q = 0; q < 5000; ++q) {
    // Mostly small sets, and a block of 80 equal large ones straddling the
    // 99th percentile (ranks 4921..5000 of 5000; p99 rank is 4950).
    sizes.push_back(q < 80 ? 37 : static_cast<int32_t>(rng.UniformInt(0, 20)));
  }
  RetrievalStats stats;
  for (int32_t c : sizes) stats.Record(static_cast<size_t>(c));
  EXPECT_EQ(stats.size_counts.size(), 38u);

  std::vector<int32_t> sorted = sizes;
  std::sort(sorted.begin(), sorted.end());
  int64_t sum = 0;
  for (int32_t c : sorted) sum += c;
  const size_t rank = static_cast<size_t>(
      std::ceil(0.99 * static_cast<double>(sorted.size())));
  double mean = -1, p99 = -1;
  stats.SummarizeCandidates(&mean, &p99);
  EXPECT_EQ(mean, static_cast<double>(sum) / static_cast<double>(sorted.size()));
  EXPECT_EQ(p99, sorted[rank - 1]);
  EXPECT_EQ(p99, 37);
}

// Retrieval fans out over riders with one Dijkstra engine per worker; the
// lists must be exactly the serial ones on a city-sized network, with an
// allowed mask and with a rider whose pickup budget is already negative.
TEST(CandidateRetrievalTest, PoolMatchesSerialOnCity) {
  Rng rng(20170512);
  auto net = GenerateNycLike(1500, &rng);
  ASSERT_TRUE(net.ok()) << net.status();
  const NodeId n = net->num_nodes();
  DijkstraOracle oracle(*net);
  UrrInstance instance;
  instance.network = &*net;
  instance.now = 50;
  std::vector<NodeId> locations;
  for (int j = 0; j < 80; ++j) {
    const NodeId at = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    instance.vehicles.push_back({at, 3});
    locations.push_back(at);
  }
  std::vector<RiderId> riders;
  for (RiderId i = 0; i < 120; ++i) {
    const NodeId s = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    const NodeId e = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    // Budget up to 1.5x the distance to some vehicle, so most sets are
    // non-empty and of varying size; rider 0's deadline has passed.
    const Cost reach =
        oracle.Distance(locations[static_cast<size_t>(i) % locations.size()], s);
    const Cost budget = i == 0 ? -1 : reach * rng.Uniform(0.2, 1.5);
    instance.riders.push_back(
        {s, e, instance.now + budget, kInfiniteCost, -1});
    riders.push_back(i);
  }
  std::vector<bool> allowed(locations.size());
  for (size_t j = 0; j < allowed.size(); ++j) allowed[j] = j % 3 != 1;

  auto retrieve = [&](int threads, const std::vector<bool>* mask) {
    ThreadPool pool(threads);
    VehicleIndex index(*net, locations);
    RetrievalStats stats;
    SolverContext ctx;
    ctx.oracle = &oracle;
    ctx.vehicle_index = &index;
    ctx.retrieval_stats = &stats;
    AttachThreadPool(&ctx, &pool);
    EXPECT_EQ(ctx.eval_pool() != nullptr, threads > 1);
    auto lists = CandidateVehiclesForRiders(instance, &ctx, riders, mask);
    EXPECT_EQ(stats.riders.load(), static_cast<int64_t>(riders.size()));
    return lists;
  };
  for (const std::vector<bool>* mask :
       std::vector<const std::vector<bool>*>{nullptr, &allowed}) {
    const auto serial = retrieve(1, mask);
    ASSERT_EQ(serial.size(), riders.size());
    EXPECT_TRUE(serial[0].empty());
    size_t nonempty = 0;
    for (const std::vector<int>& list : serial) {
      EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
      nonempty += !list.empty();
    }
    EXPECT_GT(nonempty, riders.size() / 2);
    EXPECT_EQ(retrieve(4, mask), serial);
  }
}

TEST_F(SolutionTest, ValidVehiclesNegativeBudgetEmpty) {
  VehicleIndex index(*network_, {0, 5});
  instance_.riders[0].pickup_deadline = -10;
  EXPECT_TRUE(ValidVehiclesForRider(instance_, &index, 0, nullptr).empty());
}

}  // namespace
}  // namespace urr
