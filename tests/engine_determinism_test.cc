// The streaming engine's three replayability contracts (DESIGN.md Sec 8):
//   1. the serialized event log is byte-identical at any solver thread count,
//   2. W = 0 reproduces OnlineDispatcher decision for decision,
//   3. replaying a log's input events regenerates the log and fleet state.
#include <gtest/gtest.h>

#include "engine/engine.h"
#include "exp/harness.h"

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

TEST(EngineDeterminismTest, ZeroWindowMatchesOnlineDispatcher) {
  auto world = BuildWorld(SmallConfig(2));
  ASSERT_TRUE(world.ok()) << world.status();
  // arrival_rate = 0: everyone arrives at t = now with unshifted deadlines,
  // so the workload instance equals the batch instance and the engine's
  // per-arrival path must reproduce OnlineDispatcher rider for rider.
  Rng rng(99);
  StreamingWorkloadOptions opt;
  opt.arrival_rate = 0;
  const StreamingWorkload workload =
      MakeStreamingWorkload((*world)->instance, opt, &rng);
  for (OnlineObjective obj :
       {OnlineObjective::kUtilityGain, OnlineObjective::kMinCostIncrease}) {
    EngineConfig cfg;
    cfg.window = 0;
    cfg.online_objective = obj;
    UtilityModel model(&workload.instance,
                       UtilityParams{(*world)->config.alpha,
                                     (*world)->config.beta});
    SolverContext ectx = (*world)->Context();
    ectx.model = &model;
    DispatchEngine engine(&workload, &ectx, cfg);
    ASSERT_TRUE(engine.Run().ok());

    SolverContext octx = (*world)->Context();
    OnlineDispatcher dispatcher(&(*world)->instance, &octx, obj);
    std::vector<RiderId> order(workload.arrivals.size());
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = workload.arrivals[i].rider;
    }
    const UrrSolution& online = dispatcher.DispatchAll(order);

    EXPECT_EQ(engine.metrics().total_accepted, dispatcher.num_accepted());
    EXPECT_EQ(engine.metrics().total_rejected, dispatcher.num_rejected());
    ASSERT_EQ(engine.solution().assignment.size(), online.assignment.size());
    for (size_t r = 0; r < online.assignment.size(); ++r) {
      EXPECT_EQ(engine.solution().assignment[r], online.assignment[r])
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
