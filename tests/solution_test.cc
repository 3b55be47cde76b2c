#include "urr/solution.h"

#include <gtest/gtest.h>

#include "common/rng.h"
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

TEST_F(SolutionTest, ValidVehiclesNegativeBudgetEmpty) {
  VehicleIndex index(*network_, {0, 5});
  instance_.riders[0].pickup_deadline = -10;
  EXPECT_TRUE(ValidVehiclesForRider(instance_, &index, 0, nullptr).empty());
}

}  // namespace
}  // namespace urr
