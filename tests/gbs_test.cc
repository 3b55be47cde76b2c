#include "urr/gbs.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "exp/harness.h"
#include "urr/greedy.h"

namespace urr {
namespace {

std::unique_ptr<ExperimentWorld> SmallWorld(uint64_t seed = 42,
                                            int threads = 1) {
  ExperimentConfig cfg;
  cfg.num_threads = threads;
  cfg.city_nodes = 1500;
  cfg.num_social_users = 300;
  cfg.num_trip_records = 1500;
  cfg.num_riders = 150;
  cfg.num_vehicles = 30;
  cfg.seed = seed;
  cfg.gbs.k = 3;
  cfg.gbs.d_max = 200;
  auto world = BuildWorld(cfg);
  EXPECT_TRUE(world.ok()) << world.status();
  return *std::move(world);
}

TEST(GbsTest, PreprocessProducesAreas) {
  auto world = SmallWorld();
  SolverContext ctx = world->Context();
  auto pre = PrepareGbs(world->instance, &ctx, world->config.gbs);
  ASSERT_TRUE(pre.ok()) << pre.status();
  EXPECT_EQ(pre->k, 3);
  EXPECT_GT(pre->areas.num_areas(), 1);
  EXPECT_LT(pre->areas.num_areas(), pre->split.network.num_nodes());
  // Split network extends the original one.
  EXPECT_GE(pre->split.network.num_nodes(), world->network.num_nodes());
  EXPECT_EQ(pre->split.original_num_nodes, world->network.num_nodes());
}

TEST(GbsTest, SolveWithBothBases) {
  auto world = SmallWorld();
  SolverContext ctx = world->Context();
  for (GbsBase base : {GbsBase::kEfficientGreedy, GbsBase::kBilateral}) {
    GbsOptions opt = world->config.gbs;
    opt.base = base;
    GbsStats stats;
    auto sol = SolveGbs(world->instance, &ctx, opt, &stats);
    ASSERT_TRUE(sol.ok()) << sol.status();
    EXPECT_TRUE(sol->Validate(world->instance).ok());
    EXPECT_GT(sol->NumAssigned(), 0);
    EXPECT_GT(stats.num_areas, 0);
    EXPECT_GT(stats.num_groups_solved, 0);
    EXPECT_EQ(stats.k_used, 3);
  }
}

TEST(GbsTest, ReusedPreprocessingGivesSameResult) {
  auto world = SmallWorld();
  GbsOptions opt = world->config.gbs;
  SolverContext ctx1 = world->Context();
  Rng rng1(99), rng2(99);
  ctx1.rng = &rng1;
  auto pre = PrepareGbs(world->instance, &ctx1, opt);
  ASSERT_TRUE(pre.ok());
  auto sol1 = SolveGbs(world->instance, &ctx1, opt, *pre);
  SolverContext ctx2 = world->Context();
  ctx2.rng = &rng2;
  auto sol2 = SolveGbs(world->instance, &ctx2, opt, *pre);
  ASSERT_TRUE(sol1.ok() && sol2.ok());
  EXPECT_EQ(sol1->assignment, sol2->assignment);
}

TEST(GbsTest, ClassifiesShortAndLongTrips) {
  auto world = SmallWorld();
  SolverContext ctx = world->Context();
  GbsOptions opt = world->config.gbs;
  opt.d_max = 100;  // tiny threshold -> most trips become long
  opt.k = 2;
  GbsStats stats;
  auto sol = SolveGbs(world->instance, &ctx, opt, &stats);
  ASSERT_TRUE(sol.ok());
  EXPECT_GT(stats.num_long_trips, world->instance.num_riders() / 2);
}

TEST(GbsTest, AutoKPicksACandidate) {
  auto world = SmallWorld();
  SolverContext ctx = world->Context();
  GbsOptions opt = world->config.gbs;
  opt.auto_k = true;
  auto pre = PrepareGbs(world->instance, &ctx, opt);
  ASSERT_TRUE(pre.ok());
  EXPECT_GE(pre->k, 2);
  EXPECT_LE(pre->k, 8);
}

TEST(GbsTest, IdenticalAcrossThreadCounts) {
  // Candidate retrieval and evaluation fan out over the pool; the grouping,
  // the group order and every commit stay serial, so both bases must build
  // the same schedules bit for bit at any thread count.
  auto solve = [](GbsBase base, int threads) {
    auto world = SmallWorld(17, threads);
    if (threads > 1) {
      EXPECT_NE(world->Context().eval_pool(), nullptr);
    }
    SolverContext ctx = world->Context();
    Rng rng(3);
    ctx.rng = &rng;
    GbsOptions opt = world->config.gbs;
    opt.base = base;
    auto sol = SolveGbs(world->instance, &ctx, opt);
    EXPECT_TRUE(sol.ok()) << sol.status();
    if (!sol.ok()) return std::string();
    EXPECT_TRUE(sol->Validate(world->instance).ok());
    std::ostringstream os;
    os << std::hexfloat;  // exact doubles: equality means bit-identity
    for (int a : sol->assignment) os << a << ',';
    for (const TransferSequence& seq : sol->schedules) {
      os << '/';
      for (int u = 0; u < seq.num_stops(); ++u) {
        os << seq.stop(u).rider << ':' << seq.stop(u).location << ';';
      }
    }
    os << '|' << sol->TotalCost() << '|' << sol->TotalUtility(world->model);
    return os.str();
  };
  for (GbsBase base : {GbsBase::kEfficientGreedy, GbsBase::kBilateral}) {
    SCOPED_TRACE(base == GbsBase::kBilateral ? "GBS+BA" : "GBS+EG");
    const std::string serial = solve(base, 1);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, solve(base, 4));
  }
}

TEST(GbsTest, UtilityIsCompetitiveWithBase) {
  // GBS with a base method should land in the same utility ballpark as the
  // base run globally (the paper reports it equal or better).
  auto world = SmallWorld(21);
  SolverContext ctx = world->Context();
  GbsOptions opt = world->config.gbs;
  opt.base = GbsBase::kEfficientGreedy;
  auto gbs = SolveGbs(world->instance, &ctx, opt);
  ASSERT_TRUE(gbs.ok());
  UrrSolution eg = SolveEfficientGreedy(world->instance, &ctx);
  EXPECT_GT(gbs->TotalUtility(world->model),
            eg.TotalUtility(world->model) * 0.8);
}

}  // namespace
}  // namespace urr
