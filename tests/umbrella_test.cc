// Compile-and-touch test for the umbrella header: everything a downstream
// user reaches through src/urr/urr.h must be visible and usable together.
#include "urr/urr.h"

#include <gtest/gtest.h>

namespace urr {
namespace {

TEST(UmbrellaTest, PublicSurfaceIsComplete) {
  // Graph + routing.
  auto network = PaperFigure1Network();
  ASSERT_TRUE(network.ok());
  DijkstraOracle oracle(*network);
  EXPECT_LT(oracle.Distance(0, 7), kInfiniteCost);
  auto labels = HubLabelOracle::Create(*network);
  ASSERT_TRUE(labels.ok());
  EXPECT_EQ((*labels)->Distance(0, 7), oracle.Distance(0, 7));

  // DIMACS loading through the umbrella.
  auto parsed = ParseDimacs("p sp 2 1\na 1 2 7\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_nodes(), 2);

  // Pseudo nodes + cover + areas.
  auto split = SplitLongEdges(*network, 1.5);
  ASSERT_TRUE(split.ok());
  Rng rng(5);
  KspcOptions kspc;
  kspc.k = 2;
  auto cover = KShortestPathCover(split->network, kspc, &rng);
  ASSERT_TRUE(cover.ok());

  // Social.
  auto social = SocialGraph::Build(4, {{0, 1}, {1, 2}});
  ASSERT_TRUE(social.ok());
  EXPECT_GE(social->Jaccard(0, 2), 0);

  // Instance + utility + solvers + metrics, end to end.
  UrrInstance instance;
  instance.network = &*network;
  instance.social = &*social;
  instance.riders = {{0, 7, 10, 30, 0}, {4, 6, 12, 40, 1}};
  instance.vehicles = {{1, 2}, {5, 2}};
  ASSERT_TRUE(instance.SetVehicleUtility({0.5f, 0.5f, 0.5f, 0.5f}).ok());
  UtilityModel model(&instance, UtilityParams{0.33, 0.33});
  VehicleIndex index(*network, {1, 5});
  SolverContext ctx;
  ctx.oracle = &oracle;
  ctx.model = &model;
  ctx.vehicle_index = &index;
  ctx.rng = &rng;

  UrrSolution cf = SolveCostFirst(instance, &ctx);
  UrrSolution eg = SolveEfficientGreedy(instance, &ctx);
  UrrSolution ba = SolveBilateral(instance, &ctx);
  auto opt = SolveOptimal(instance, &ctx);
  ASSERT_TRUE(opt.ok());
  for (const UrrSolution* sol : {&cf, &eg, &ba, &*opt}) {
    EXPECT_TRUE(sol->Validate(instance).ok());
  }
  EXPECT_GE(opt->TotalUtility(model) + 1e-9, ba.TotalUtility(model));
  const SolutionMetrics metrics = ComputeMetrics(instance, model, ba);
  EXPECT_LE(metrics.total_utility,
            UpperBoundUtility(instance, model, &index) + 1e-9);

  // Scheduling structures reachable too.
  TransferSequence seq(1, 0, 2, &oracle);
  auto plan = ArrangeSingleRider(&seq, instance.Trip(0));
  EXPECT_TRUE(plan.ok());
  auto reorder = FindBestInsertionWithReordering(seq, instance.Trip(1));

  // The per-arrival decision (what the streaming engine commits at W = 0).
  UrrSolution online = MakeEmptySolution(instance, &oracle);
  const DispatchDecision first = EvaluateArrival(
      instance, &ctx, online, 0, OnlineObjective::kMinCostIncrease);
  if (first.accepted) {
    const size_t j = static_cast<size_t>(first.vehicle);
    ASSERT_TRUE(
        ApplyInsertion(&online.schedules[j], instance.Trip(0), first.plan)
            .ok());
    online.assignment[0] = first.vehicle;
  }
  EXPECT_TRUE(online.Validate(instance).ok());
  (void)reorder;

  // Cost model.
  GbsCostModel cost_model;
  cost_model.s = 1000;
  cost_model.m = 100;
  cost_model.n = 10;
  EXPECT_GT(cost_model.BestEta(), 0);
}

}  // namespace
}  // namespace urr
