#include "urr/optimal.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/generators.h"
#include "spatial/vehicle_index.h"
#include "urr/bilateral.h"
#include "urr/cost_first.h"
#include "urr/greedy.h"

namespace urr {
namespace {

/// Builds a tiny instance on the paper's Figure-1 network.
struct TinyWorld {
  RoadNetwork network;
  UrrInstance instance;
  std::unique_ptr<DijkstraOracle> oracle;
  std::unique_ptr<UtilityModel> model;
  std::unique_ptr<VehicleIndex> index;
  Rng rng{1};

  SolverContext Context() {
    SolverContext ctx;
    ctx.oracle = oracle.get();
    ctx.model = model.get();
    ctx.vehicle_index = index.get();
    ctx.rng = &rng;
    return ctx;
  }
};

std::unique_ptr<TinyWorld> MakeTiny(int num_riders, int num_vehicles,
                                    uint64_t seed, UtilityParams params = {}) {
  auto w = std::make_unique<TinyWorld>();
  w->rng = Rng(seed);
  auto g = PaperFigure1Network();
  EXPECT_TRUE(g.ok());
  w->network = *std::move(g);
  w->oracle = std::make_unique<DijkstraOracle>(w->network);
  w->instance.network = &w->network;
  for (int i = 0; i < num_riders; ++i) {
    Rider r;
    r.source = static_cast<NodeId>(w->rng.UniformInt(0, 7));
    do {
      r.destination = static_cast<NodeId>(w->rng.UniformInt(0, 7));
    } while (r.destination == r.source);
    r.pickup_deadline = w->rng.Uniform(4, 12);
    r.dropoff_deadline = r.pickup_deadline + w->rng.Uniform(4, 10);
    w->instance.riders.push_back(r);
  }
  std::vector<NodeId> locations;
  for (int j = 0; j < num_vehicles; ++j) {
    const NodeId loc = static_cast<NodeId>(w->rng.UniformInt(0, 7));
    w->instance.vehicles.push_back({loc, 2});
    locations.push_back(loc);
  }
  // Random μ_v matrix.
  std::vector<float> mu;
  for (int i = 0; i < num_riders; ++i) {
    for (int j = 0; j < num_vehicles; ++j) {
      mu.push_back(static_cast<float>(w->rng.Uniform()));
    }
  }
  EXPECT_TRUE(w->instance.SetVehicleUtility(std::move(mu)).ok());
  w->model = std::make_unique<UtilityModel>(&w->instance, params);
  w->index = std::make_unique<VehicleIndex>(w->network, locations);
  return w;
}

TEST(OptimalTest, SingleRiderSingleVehicle) {
  auto w = MakeTiny(1, 1, 3);
  SolverContext ctx = w->Context();
  auto sol = SolveOptimal(w->instance, &ctx);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_TRUE(sol->Validate(w->instance).ok());
  // Either the rider is servable (one pickup+dropoff) or not (empty).
  if (sol->NumAssigned() == 1) {
    EXPECT_EQ(sol->schedules[0].num_stops(), 2);
  }
}

TEST(OptimalTest, RejectsOversizedInstance) {
  auto w = MakeTiny(3, 1, 4);
  SolverContext ctx = w->Context();
  OptimalOptions opt;
  opt.max_riders = 2;
  EXPECT_EQ(SolveOptimal(w->instance, &ctx, opt).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(OptimalTest, BudgetExhaustionReported) {
  auto w = MakeTiny(6, 2, 5);
  SolverContext ctx = w->Context();
  OptimalOptions opt;
  opt.max_search_nodes = 10;
  EXPECT_EQ(SolveOptimal(w->instance, &ctx, opt).status().code(),
            StatusCode::kOutOfRange);
}

class OptimalDominanceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OptimalDominanceTest, OptimalDominatesHeuristics) {
  // The exact solver's utility upper-bounds CF, EG and BA on any instance.
  auto w = MakeTiny(6, 2, GetParam(), UtilityParams{0.33, 0.33});
  SolverContext ctx = w->Context();
  auto opt = SolveOptimal(w->instance, &ctx);
  ASSERT_TRUE(opt.ok()) << opt.status();
  ASSERT_TRUE(opt->Validate(w->instance).ok());
  const double best = opt->TotalUtility(*w->model);

  UrrSolution cf = SolveCostFirst(w->instance, &ctx);
  UrrSolution eg = SolveEfficientGreedy(w->instance, &ctx);
  UrrSolution ba = SolveBilateral(w->instance, &ctx);
  EXPECT_GE(best + 1e-9, cf.TotalUtility(*w->model));
  EXPECT_GE(best + 1e-9, eg.TotalUtility(*w->model));
  EXPECT_GE(best + 1e-9, ba.TotalUtility(*w->model));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimalDominanceTest,
                         ::testing::Values(10, 11, 12, 13, 14, 15, 16, 17));

TEST(OptimalTest, KnapsackStyleInstance) {
  // Mirrors the Theorem-2.1 reduction: one vehicle at a hub, riders with
  // zero-length trips at spoke nodes, deadline W. OPT must choose the
  // utility-maximal subset reachable within the deadlines.
  // Star network: hub 0, spokes 1..3 with costs 2, 3, 4 (two-way).
  auto g = RoadNetwork::Build(4, {{0, 1, 2}, {1, 0, 2}, {0, 2, 3}, {2, 0, 3},
                                  {0, 3, 4}, {3, 0, 4}});
  ASSERT_TRUE(g.ok());
  DijkstraOracle oracle(*g);
  UrrInstance inst;
  inst.network = &*g;
  const double kW = 10;  // knapsack capacity as a shared deadline
  // Zero-length trips: source == destination is not allowed by the builder,
  // so make destination the hub-adjacent... use source=spoke, dest=spoke
  // itself is degenerate; instead give each rider a trip back to the hub.
  // weights: serving rider i costs 2*c(spoke) - c(spoke) = c(spoke) extra.
  inst.riders = {
      {1, 0, kW, kW, -1},  // cost 2 each way
      {2, 0, kW, kW, -1},  // cost 3
      {3, 0, kW, kW, -1},  // cost 4
  };
  inst.vehicles = {{0, 1}};  // capacity 1: trips are served sequentially
  // values via μ_v: rider 0 -> 0.3, rider 1 -> 0.9, rider 2 -> 0.5.
  ASSERT_TRUE(inst.SetVehicleUtility({0.3f, 0.9f, 0.5f}).ok());
  UtilityModel model(&inst, UtilityParams{1.0, 0.0});  // α=1: value = μ_v
  Rng rng(1);
  VehicleIndex index(*g, {0});
  SolverContext ctx;
  ctx.oracle = &oracle;
  ctx.model = &model;
  ctx.vehicle_index = &index;
  ctx.rng = &rng;
  auto sol = SolveOptimal(inst, &ctx);
  ASSERT_TRUE(sol.ok()) << sol.status();
  // Serving all three costs 2+2+3+3+4 = 14 > deadline for the last dropoff;
  // the best feasible subset by value is riders 1 (0.9) and 2 (0.5):
  // serve rider 1 (3 out, 3 back) then rider 2 (4 out): dropoff at hub...
  // Exact arithmetic aside, OPT must at least reach value 1.4 - epsilon of
  // the heuristics and dominate the greedy pick.
  const double value = sol->TotalUtility(model);
  // Feasibility analysis: {rider1, rider0} fits exactly (3+3+2+2 = 10),
  // every subset containing rider2 alongside rider1 breaks a deadline, so
  // the optimum value is 0.9 + 0.3 = 1.2.
  EXPECT_NEAR(value, 1.2, 1e-6);  // mu_v is stored as float
  EXPECT_TRUE(sol->Validate(inst).ok());
}

TEST(OptimalTest, TightDeadlinesYieldEmptySolution) {
  auto w = MakeTiny(3, 1, 6);
  for (Rider& r : w->instance.riders) {
    r.pickup_deadline = 0.001;  // unreachable
    r.dropoff_deadline = 0.002;
  }
  SolverContext ctx = w->Context();
  auto sol = SolveOptimal(w->instance, &ctx);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->NumAssigned(), 0);
  EXPECT_DOUBLE_EQ(sol->TotalUtility(*w->model), 0);
}

}  // namespace
}  // namespace urr
