// The streaming engine's three replayability contracts (DESIGN.md Sec 8):
//   1. the serialized event log is byte-identical at any solver thread count,
//   2. W = 0 matches a brute-force per-arrival referee decision for decision,
//   3. replaying a log's input events regenerates the log and fleet state.
#include <gtest/gtest.h>

#include "engine/engine.h"
#include "exp/harness.h"
#include "sched/insertion.h"

namespace urr {
namespace {

ExperimentConfig SmallConfig(int num_threads) {
  ExperimentConfig cfg;
  cfg.city_nodes = 1200;
  cfg.num_social_users = 500;
  cfg.num_trip_records = 1500;
  cfg.num_riders = 100;
  cfg.num_vehicles = 20;
  cfg.seed = 42;
  cfg.num_threads = num_threads;
  return cfg;
}

struct RunResult {
  std::string log;
  std::string fingerprint;
  int accepted = 0;
};

RunResult RunEngine(ExperimentWorld* world, const StreamingWorkload& workload,
                    const EngineConfig& config) {
  UtilityModel model(&workload.instance,
                     UtilityParams{world->config.alpha, world->config.beta});
  SolverContext ctx = world->Context();
  ctx.model = &model;
  DispatchEngine engine(&workload, &ctx, config);
  const Status st = engine.Run();
  EXPECT_TRUE(st.ok()) << st;
  return {engine.SerializedLog(), engine.SolutionFingerprint(),
          engine.metrics().total_accepted};
}

TEST(EngineDeterminismTest, LogIsByteIdenticalAcrossThreadCounts) {
  for (WindowSolver solver :
       {WindowSolver::kEfficientGreedy, WindowSolver::kBilateral}) {
    RunResult baseline;
    for (int threads : {1, 2, 8}) {
      auto world = BuildWorld(SmallConfig(threads));
      ASSERT_TRUE(world.ok()) << world.status();
      // Same seed at every thread count → the same workload.
      Rng rng((*world)->config.seed + 100);
      StreamingWorkloadOptions opt;
      opt.arrival_rate = 1.0;
      opt.cancel_fraction = 0.3;
      const StreamingWorkload workload =
          MakeStreamingWorkload((*world)->instance, opt, &rng);
      EngineConfig cfg;
      cfg.window = 20;
      cfg.solver = solver;
      const RunResult run = RunEngine(world->get(), workload, cfg);
      if (threads == 1) {
        baseline = run;
        EXPECT_FALSE(baseline.log.empty());
      } else {
        EXPECT_EQ(run.log, baseline.log)
            << WindowSolverName(solver) << " @ " << threads << " threads";
        EXPECT_EQ(run.fingerprint, baseline.fingerprint)
            << WindowSolverName(solver) << " @ " << threads << " threads";
      }
    }
  }
}

// Contract 4: the evaluation-path features — cross-window eval cache and
// the Euclidean bound (euclid_speed = MaxSpeed() vs 0, i.e. no bound
// anywhere) — are pure optimizations. Toggling either off must leave the
// event log and the final fleet state byte-identical, at 1, 2 and 8
// threads, and the cache must actually score hits across windows when
// enabled.
TEST(EngineDeterminismTest, LogIsByteIdenticalAcrossEvalToggles) {
  for (WindowSolver solver :
       {WindowSolver::kEfficientGreedy, WindowSolver::kBilateral}) {
    RunResult baseline;
    bool have_baseline = false;
    for (int threads : {1, 2, 8}) {
      auto world = BuildWorld(SmallConfig(threads));
      ASSERT_TRUE(world.ok()) << world.status();
      Rng rng((*world)->config.seed + 100);
      StreamingWorkloadOptions opt;
      opt.arrival_rate = 1.0;
      opt.cancel_fraction = 0.3;
      const StreamingWorkload workload =
          MakeStreamingWorkload((*world)->instance, opt, &rng);
      struct Toggle {
        bool cache, screen;
      };
      for (const Toggle& t : {Toggle{false, false}, Toggle{true, false},
                              Toggle{false, true}, Toggle{true, true}}) {
        SCOPED_TRACE(std::string(WindowSolverName(solver)) + " threads=" +
                     std::to_string(threads) + " cache=" +
                     std::to_string(t.cache) + " screen=" +
                     std::to_string(t.screen));
        UtilityModel model(
            &workload.instance,
            UtilityParams{(*world)->config.alpha, (*world)->config.beta});
        SolverContext ctx = (*world)->Context();
        ctx.model = &model;
        if (!t.screen) ctx.euclid_speed = 0;
        ASSERT_EQ(ctx.euclid_speed > 0, t.screen);
        EngineConfig cfg;
        cfg.window = 20;
        cfg.solver = solver;
        cfg.use_eval_cache = t.cache;
        DispatchEngine engine(&workload, &ctx, cfg);
        const Status st = engine.Run();
        ASSERT_TRUE(st.ok()) << st;
        const RunResult run = {engine.SerializedLog(),
                               engine.SolutionFingerprint(),
                               engine.metrics().total_accepted};
        if (!have_baseline) {
          baseline = run;
          have_baseline = true;
          EXPECT_FALSE(baseline.log.empty());
        } else {
          EXPECT_EQ(run.log, baseline.log);
          EXPECT_EQ(run.fingerprint, baseline.fingerprint);
        }
        if (t.cache) {
          // The queue of retried riders spans windows, so a multi-window run
          // must reuse cached evaluations.
          EXPECT_GT(engine.metrics().eval_cache_hits, 0);
        } else {
          EXPECT_EQ(engine.metrics().eval_cache_hits, 0);
        }
        EXPECT_GT(engine.metrics().kernel_evals, 0);
      }
    }
  }
}

// Contract 2: W = 0 commits each arrival on its own, by lowest Δcost under
// kMinCostIncrease. The referee shares nothing with the engine's
// evaluation path: for each arrival in order it tries every vehicle with
// the brute-force insertion (every position pair, full schedule
// validation), keeps the lowest Δcost (the first vehicle id on ties) and
// commits it. Edge costs on the quantized grid are exact multiples of 0.25,
// so Δcost comparisons are exact and ties are real ties.
TEST(EngineDeterminismTest, ZeroWindowMatchesBruteForceReferee) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExperimentConfig cfg;
    cfg.city = CityKind::kGrid;
    cfg.grid_width = 12;
    cfg.grid_height = 10;
    cfg.quantize = 0.25;
    cfg.num_social_users = 500;
    cfg.num_trip_records = 2000;
    cfg.num_riders = 60;
    cfg.num_vehicles = 8;
    cfg.seed = 20170512;
    cfg.num_threads = threads;
    auto world = BuildWorld(cfg);
    ASSERT_TRUE(world.ok()) << world.status();
    const UrrInstance& instance = (*world)->instance;
    // arrival_rate = 0: everyone arrives at t = now with unshifted
    // deadlines, so the workload's riders are the instance's.
    Rng rng(99);
    StreamingWorkloadOptions opt;
    opt.arrival_rate = 0;
    const StreamingWorkload workload =
        MakeStreamingWorkload(instance, opt, &rng);
    EngineConfig ecfg;
    ecfg.window = 0;
    ecfg.online_objective = OnlineObjective::kMinCostIncrease;
    SolverContext ctx = (*world)->Context();
    DispatchEngine engine(&workload, &ctx, ecfg);
    ASSERT_TRUE(engine.Run().ok());

    UrrSolution ref = MakeEmptySolution(instance, (*world)->oracle.get());
    int accepted = 0;
    for (const RiderArrival& a : workload.arrivals) {
      const RiderTrip trip = instance.Trip(a.rider);
      int best_vehicle = -1;
      InsertionPlan best;
      for (size_t j = 0; j < ref.schedules.size(); ++j) {
        const auto plan = FindBestInsertionBruteForce(ref.schedules[j], trip);
        if (plan.ok() && plan->delta_cost < best.delta_cost) {
          best = *plan;
          best_vehicle = static_cast<int>(j);
        }
      }
      if (best_vehicle < 0) continue;
      ASSERT_TRUE(ApplyInsertion(&ref.schedules[static_cast<size_t>(
                                     best_vehicle)],
                                 trip, best)
                      .ok());
      ref.assignment[static_cast<size_t>(a.rider)] = best_vehicle;
      ++accepted;
    }
    EXPECT_GT(accepted, 0);
    EXPECT_LT(accepted, instance.num_riders());  // some riders turned away
    EXPECT_EQ(engine.metrics().total_accepted, accepted);
    ASSERT_EQ(engine.solution().assignment.size(), ref.assignment.size());
    for (size_t r = 0; r < ref.assignment.size(); ++r) {
      EXPECT_EQ(engine.solution().assignment[r], ref.assignment[r])
          << "rider " << r;
    }
  }
}

TEST(EngineDeterminismTest, ReplayFromLogReproducesTheRun) {
  auto world = BuildWorld(SmallConfig(2));
  ASSERT_TRUE(world.ok()) << world.status();
  Rng rng((*world)->config.seed + 100);
  StreamingWorkloadOptions opt;
  opt.arrival_rate = 0.8;
  opt.cancel_fraction = 0.4;
  const StreamingWorkload workload =
      MakeStreamingWorkload((*world)->instance, opt, &rng);
  EngineConfig cfg;
  cfg.window = 15;

  UtilityModel model(&workload.instance,
                     UtilityParams{(*world)->config.alpha,
                                   (*world)->config.beta});
  SolverContext ctx = (*world)->Context();
  ctx.model = &model;
  DispatchEngine first(&workload, &ctx, cfg);
  ASSERT_TRUE(first.Run().ok());

  // Rebuild the input from the log alone and run a fresh engine.
  const auto replay_input = WorkloadFromLog(workload, first.event_log());
  ASSERT_TRUE(replay_input.ok()) << replay_input.status();
  EXPECT_EQ(replay_input->arrivals.size(), workload.arrivals.size());
  EXPECT_EQ(replay_input->cancellations.size(),
            workload.cancellations.size());
  SolverContext ctx2 = (*world)->Context();
  ctx2.model = &model;
  DispatchEngine second(&*replay_input, &ctx2, cfg);
  ASSERT_TRUE(second.Run().ok());

  EXPECT_EQ(second.SerializedLog(), first.SerializedLog());
  EXPECT_EQ(second.SolutionFingerprint(), first.SolutionFingerprint());
}

TEST(EngineDeterminismTest, SerializedLogParsesBackToTheEventVector) {
  auto world = BuildWorld(SmallConfig(1));
  ASSERT_TRUE(world.ok()) << world.status();
  Rng rng(7);
  StreamingWorkloadOptions opt;
  opt.cancel_fraction = 0.2;
  const StreamingWorkload workload =
      MakeStreamingWorkload((*world)->instance, opt, &rng);
  UtilityModel model(&workload.instance,
                     UtilityParams{(*world)->config.alpha,
                                   (*world)->config.beta});
  SolverContext ctx = (*world)->Context();
  ctx.model = &model;
  EngineConfig cfg;
  cfg.window = 30;
  DispatchEngine engine(&workload, &ctx, cfg);
  ASSERT_TRUE(engine.Run().ok());
  const auto parsed = ParseEventLog(engine.SerializedLog());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, engine.event_log());
}

}  // namespace
}  // namespace urr
