// Randomized cross-solver stress suite: many small random instances, every
// solver, and the invariants that must hold regardless of workload shape:
// valid schedules, consistent assignments, utility within the instance
// upper bound, OPT dominating the heuristics, and schedule surgery
// (RemoveRider) preserving validity.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/rng.h"
#include "engine/engine.h"
#include "graph/generators.h"
#include "social/generators.h"
#include "spatial/vehicle_index.h"
#include "urr/urr.h"

namespace urr {
namespace {

struct StressWorld {
  RoadNetwork network;
  SocialGraph social;
  UrrInstance instance;
  std::unique_ptr<DijkstraOracle> oracle;
  std::unique_ptr<UtilityModel> model;
  std::unique_ptr<VehicleIndex> index;
  Rng rng{0};

  SolverContext Context() {
    SolverContext ctx;
    ctx.oracle = oracle.get();
    ctx.model = model.get();
    ctx.vehicle_index = index.get();
    ctx.rng = &rng;
    ctx.euclid_speed = network.MaxSpeed();
    return ctx;
  }
};

std::unique_ptr<StressWorld> MakeStressWorld(uint64_t seed, int riders,
                                             int vehicles, int capacity) {
  auto w = std::make_unique<StressWorld>();
  w->rng = Rng(seed);
  GridCityOptions gopt;
  gopt.width = 9;
  gopt.height = 9;
  gopt.keep_probability = 0.85;
  auto g = GenerateGridCity(gopt, &w->rng);
  EXPECT_TRUE(g.ok());
  w->network = *std::move(g);
  w->oracle = std::make_unique<DijkstraOracle>(w->network);

  SocialGenOptions sopt;
  sopt.num_users = 60;
  auto social = GeneratePowerLawFriends(sopt, &w->rng);
  EXPECT_TRUE(social.ok());
  w->social = *std::move(social);

  w->instance.network = &w->network;
  w->instance.social = &w->social;
  auto random_node = [&] {
    return static_cast<NodeId>(
        w->rng.UniformInt(0, w->network.num_nodes() - 1));
  };
  for (int i = 0; i < riders; ++i) {
    Rider r;
    r.source = random_node();
    do {
      r.destination = random_node();
    } while (r.destination == r.source);
    r.pickup_deadline = w->rng.Uniform(100, 2500);
    const Cost direct = w->oracle->Distance(r.source, r.destination);
    r.dropoff_deadline = r.pickup_deadline + direct * w->rng.Uniform(1.1, 2.5);
    r.user = static_cast<UserId>(w->rng.UniformInt(0, 59));
    w->instance.riders.push_back(r);
  }
  std::vector<NodeId> locations;
  for (int j = 0; j < vehicles; ++j) {
    const NodeId loc = random_node();
    w->instance.vehicles.push_back({loc, capacity});
    locations.push_back(loc);
  }
  std::vector<float> mu;
  for (int i = 0; i < riders; ++i) {
    for (int j = 0; j < vehicles; ++j) {
      mu.push_back(static_cast<float>(w->rng.Uniform()));
    }
  }
  EXPECT_TRUE(w->instance.SetVehicleUtility(std::move(mu)).ok());
  w->model = std::make_unique<UtilityModel>(
      &w->instance,
      UtilityParams{w->rng.Uniform(0, 0.5), w->rng.Uniform(0, 0.5)});
  w->index = std::make_unique<VehicleIndex>(w->network, locations);
  return w;
}

class StressTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StressTest, AllSolversKeepInvariants) {
  auto w = MakeStressWorld(GetParam(), /*riders=*/40, /*vehicles=*/8,
                           /*capacity=*/3);
  SolverContext ctx = w->Context();
  const double bound =
      UpperBoundUtility(w->instance, *w->model, ctx.vehicle_index);

  std::vector<std::pair<std::string, UrrSolution>> solutions;
  solutions.emplace_back("CF", SolveCostFirst(w->instance, &ctx));
  solutions.emplace_back("EG", SolveEfficientGreedy(w->instance, &ctx));
  solutions.emplace_back("BA", SolveBilateral(w->instance, &ctx));
  {
    GbsOptions gopt;
    gopt.k = 3;
    gopt.d_max = 200;
    auto gbs = SolveGbs(w->instance, &ctx, gopt);
    ASSERT_TRUE(gbs.ok()) << gbs.status();
    solutions.emplace_back("GBS", *std::move(gbs));
  }
  {
    // Per-arrival dispatch: the engine at W = 0, every rider arriving at
    // `now` in id order.
    StreamingWorkload workload;
    workload.instance = w->instance;
    EngineConfig config;
    config.window = 0;
    DispatchEngine online(&workload, &ctx, config);
    ASSERT_TRUE(online.BeginLive().ok());
    for (RiderId r = 0; r < w->instance.num_riders(); ++r) {
      ASSERT_TRUE(online.SubmitLive(r, w->instance.now).ok());
    }
    solutions.emplace_back("online", online.solution());
  }

  for (auto& [name, sol] : solutions) {
    ASSERT_TRUE(sol.Validate(w->instance).ok()) << name;
    const double utility = sol.TotalUtility(*w->model);
    EXPECT_GE(utility, 0) << name;
    EXPECT_LE(utility, bound + 1e-6) << name;
    const SolutionMetrics m = ComputeMetrics(w->instance, *w->model, sol);
    EXPECT_GE(m.mean_detour_sigma, 1.0 - 1e-9) << name;
    EXPECT_LE(m.max_onboard, 3) << name;
  }
}

TEST_P(StressTest, OptimalDominatesOnTinyInstances) {
  auto w = MakeStressWorld(GetParam() + 1000, /*riders=*/7, /*vehicles=*/3,
                           /*capacity=*/2);
  SolverContext ctx = w->Context();
  auto opt = SolveOptimal(w->instance, &ctx);
  ASSERT_TRUE(opt.ok()) << opt.status();
  const double best = opt->TotalUtility(*w->model);
  EXPECT_GE(best + 1e-9,
            SolveBilateral(w->instance, &ctx).TotalUtility(*w->model));
  EXPECT_GE(best + 1e-9,
            SolveEfficientGreedy(w->instance, &ctx).TotalUtility(*w->model));
}

TEST_P(StressTest, RemovingServedRidersKeepsSchedulesValid) {
  auto w = MakeStressWorld(GetParam() + 2000, /*riders=*/30, /*vehicles=*/6,
                           /*capacity=*/4);
  SolverContext ctx = w->Context();
  UrrSolution sol = SolveEfficientGreedy(w->instance, &ctx);
  ASSERT_TRUE(sol.Validate(w->instance).ok());
  // Cancel every third served rider; schedules must stay valid throughout
  // (removal only shortens trips, never breaks deadlines).
  int removed = 0;
  for (RiderId i = 0; i < w->instance.num_riders(); i += 3) {
    const int j = sol.assignment[static_cast<size_t>(i)];
    if (j < 0) continue;
    ASSERT_TRUE(sol.schedules[static_cast<size_t>(j)].RemoveRider(i).ok());
    sol.assignment[static_cast<size_t>(i)] = -1;
    ++removed;
    ASSERT_TRUE(sol.Validate(w->instance).ok()) << "after removing " << i;
  }
  EXPECT_GT(removed, 0);
}

TEST_P(StressTest, MultiThreadedSolvesAreDeterministic) {
  // One run per pool size, each on a freshly rebuilt world (same seed, so
  // the worlds and rng states are identical). 8 threads on any host —
  // oversubscribed or not — must reproduce the serial solution exactly,
  // and two 8-thread runs must reproduce each other.
  auto fingerprints = [&](int threads) {
    auto w = MakeStressWorld(GetParam() + 500, /*riders=*/40, /*vehicles=*/8,
                             /*capacity=*/3);
    SolverContext ctx = w->Context();
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) {
      pool = std::make_unique<ThreadPool>(threads);
      AttachThreadPool(&ctx, pool.get());
      EXPECT_NE(ctx.eval_pool(), nullptr);
    }
    std::vector<UrrSolution> sols;
    sols.push_back(SolveCostFirst(w->instance, &ctx));
    sols.push_back(SolveEfficientGreedy(w->instance, &ctx));
    sols.push_back(SolveBilateral(w->instance, &ctx));
    {
      GbsOptions gopt;
      gopt.k = 3;
      gopt.d_max = 200;
      auto gbs = SolveGbs(w->instance, &ctx, gopt);
      EXPECT_TRUE(gbs.ok()) << gbs.status();
      if (gbs.ok()) sols.push_back(*std::move(gbs));
    }
    std::vector<std::string> out;
    for (const UrrSolution& sol : sols) {
      EXPECT_TRUE(sol.Validate(w->instance).ok());
      std::ostringstream os;
      os << std::hexfloat;  // exact doubles: equality means bit-identity
      for (int a : sol.assignment) os << a << ',';
      os << '|' << sol.TotalCost() << '|' << sol.TotalUtility(*w->model);
      out.push_back(os.str());
    }
    return out;
  };
  const std::vector<std::string> serial = fingerprints(1);
  const std::vector<std::string> mt_first = fingerprints(8);
  const std::vector<std::string> mt_second = fingerprints(8);
  EXPECT_EQ(serial, mt_first);
  EXPECT_EQ(mt_first, mt_second);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressTest,
                         ::testing::Values(101, 102, 103, 104, 105, 106));

}  // namespace
}  // namespace urr
