#include "engine/engine.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "exp/harness.h"

namespace urr {
namespace {

std::unique_ptr<ExperimentWorld> SmallWorld(uint64_t seed = 42,
                                            int num_threads = 0) {
  ExperimentConfig cfg;
  cfg.city_nodes = 1200;
  cfg.num_social_users = 500;
  cfg.num_trip_records = 1500;
  cfg.num_riders = 100;
  cfg.num_vehicles = 20;
  cfg.seed = seed;
  cfg.num_threads = num_threads;
  auto world = BuildWorld(cfg);
  EXPECT_TRUE(world.ok()) << world.status();
  return *std::move(world);
}

StreamingWorkload MakeWorkload(const ExperimentWorld& world,
                               double arrival_rate = 0.5,
                               double cancel_fraction = 0.0) {
  Rng rng(world.config.seed + 100);
  StreamingWorkloadOptions opt;
  opt.arrival_rate = arrival_rate;
  opt.cancel_fraction = cancel_fraction;
  return MakeStreamingWorkload(world.instance, opt, &rng);
}

// Runs `workload` through a fresh engine with a model built over the
// workload's (deadline-shifted) instance, asserting success.
struct EngineRun {
  EngineRun(ExperimentWorld* world, const StreamingWorkload* workload,
            const EngineConfig& config)
      : model(&workload->instance,
              UtilityParams{world->config.alpha, world->config.beta}),
        ctx(world->Context()),
        engine((ctx.model = &model, workload), &ctx, config) {}
  UtilityModel model;
  SolverContext ctx;
  DispatchEngine engine;
};

TEST(EventTest, SerializeParseRoundTripsEveryType) {
  const EventType types[] = {
      EventType::kArrival,   EventType::kQueued,    EventType::kRejected,
      EventType::kAssigned,  EventType::kPickedUp,  EventType::kDroppedOff,
      EventType::kExpired,   EventType::kCancelRequested,
      EventType::kCancelled};
  for (EventType type : types) {
    const Event e{123.456789012345, type, 7, 3};
    const auto parsed = ParseEvent(SerializeEvent(e));
    ASSERT_TRUE(parsed.ok()) << EventTypeName(type);
    EXPECT_EQ(*parsed, e) << EventTypeName(type);
  }
}

TEST(EventTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseEvent("").ok());
  EXPECT_FALSE(ParseEvent("12.5").ok());
  EXPECT_FALSE(ParseEvent("12.5 not_an_event 0 1").ok());
  EXPECT_FALSE(ParseEvent("x arrival 0 1").ok());
}

TEST(EventTest, LogRoundTrips) {
  const std::vector<Event> log = {
      {0, EventType::kArrival, 0, -1},
      {0, EventType::kQueued, 0, -1},
      {10.25, EventType::kAssigned, 0, 4},
      {33.5, EventType::kPickedUp, 0, 4},
  };
  const auto parsed = ParseEventLog(SerializeEventLog(log));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, log);
}

TEST(EngineMetricsTest, PercentileIsNearestRank) {
  EXPECT_EQ(Percentile({}, 50), 0);
  EXPECT_EQ(Percentile({7}, 0), 7);
  EXPECT_EQ(Percentile({4, 1, 3, 2}, 50), 2);   // sorted copy, rank ⌈.5·4⌉
  EXPECT_EQ(Percentile({4, 1, 3, 2}, 100), 4);
  EXPECT_EQ(Percentile({4, 1, 3, 2}, 95), 4);
}

TEST(EngineTest, LifecycleCountsAddUp) {
  auto world = SmallWorld();
  const StreamingWorkload workload = MakeWorkload(*world);
  EngineConfig cfg;
  cfg.window = 30;
  EngineRun run(world.get(), &workload, cfg);
  ASSERT_TRUE(run.engine.Run().ok());
  const EngineMetrics& m = run.engine.metrics();
  EXPECT_EQ(m.total_arrivals, world->instance.num_riders());
  // No cancellations, unbounded queue: every arrival is eventually either
  // committed or expires at its pickup deadline.
  EXPECT_EQ(m.total_rejected, 0);
  EXPECT_EQ(m.total_accepted + m.total_expired, m.total_arrivals);
  // The final drain completes every committed ride.
  EXPECT_EQ(m.total_picked_up, m.total_accepted);
  EXPECT_EQ(m.total_dropped_off, m.total_accepted);
  EXPECT_GT(m.total_accepted, 0);
  EXPECT_GT(m.booked_utility, 0);
  EXPECT_GT(m.driven_cost, 0);
  EXPECT_EQ(m.pickup_waits.size(), static_cast<size_t>(m.total_picked_up));
  for (double w : m.pickup_waits) EXPECT_GE(w, 0);
  // Booked utility decomposes over riders.
  double sum = 0;
  for (double u : run.engine.booked_utilities()) sum += u;
  EXPECT_NEAR(sum, m.booked_utility, 1e-9);
}

TEST(EngineTest, EventLogTimesAreNonDecreasing) {
  auto world = SmallWorld();
  const StreamingWorkload workload = MakeWorkload(*world, 1.0, 0.3);
  EngineConfig cfg;
  cfg.window = 20;
  EngineRun run(world.get(), &workload, cfg);
  ASSERT_TRUE(run.engine.Run().ok());
  const std::vector<Event>& log = run.engine.event_log();
  ASSERT_FALSE(log.empty());
  for (size_t i = 1; i < log.size(); ++i) {
    EXPECT_GE(log[i].time, log[i - 1].time) << "at event " << i;
  }
}

TEST(EngineTest, ZeroWindowAnswersEveryArrivalOnTheSpot) {
  auto world = SmallWorld();
  const StreamingWorkload workload = MakeWorkload(*world);
  EngineConfig cfg;
  cfg.window = 0;
  EngineRun run(world.get(), &workload, cfg);
  ASSERT_TRUE(run.engine.Run().ok());
  const EngineMetrics& m = run.engine.metrics();
  // Per-arrival dispatch never queues, so nothing can expire.
  EXPECT_EQ(m.total_expired, 0);
  EXPECT_EQ(m.total_accepted + m.total_rejected, m.total_arrivals);
  for (const Event& e : run.engine.event_log()) {
    EXPECT_NE(e.type, EventType::kQueued);
    EXPECT_NE(e.type, EventType::kExpired);
  }
}

// Per-arrival dispatch fans retrieval and candidate scoring out over the
// pool; the decisions, and so the log and fleet state, must not depend on
// the pool size.
TEST(EngineTest, ZeroWindowLogIsIdenticalAcrossThreadCounts) {
  std::string log, fingerprint;
  for (int threads : {1, 4}) {
    auto world = SmallWorld(42, threads);
    const StreamingWorkload workload = MakeWorkload(*world, 1.0, 0.3);
    EngineConfig cfg;
    cfg.window = 0;
    cfg.solver = WindowSolver::kEfficientGreedy;
    EngineRun run(world.get(), &workload, cfg);
    ASSERT_TRUE(run.engine.Run().ok());
    if (threads == 1) {
      log = run.engine.SerializedLog();
      fingerprint = run.engine.SolutionFingerprint();
      EXPECT_GT(run.engine.metrics().total_accepted, 0);
      continue;
    }
    ASSERT_NE(world->pool, nullptr);
    EXPECT_EQ(run.engine.SerializedLog(), log);
    EXPECT_EQ(run.engine.SolutionFingerprint(), fingerprint);
  }
}

TEST(EngineTest, QueuedRidersExpireAtTheirPickupDeadline) {
  auto world = SmallWorld();
  StreamingWorkload workload = MakeWorkload(*world);
  // Collapse every pickup budget to nothing: the first window boundary
  // arrives long after all deadlines, so every rider must expire unserved.
  for (const RiderArrival& a : workload.arrivals) {
    Rider& r = workload.instance.riders[static_cast<size_t>(a.rider)];
    r.pickup_deadline = a.time + 0.001;
    r.dropoff_deadline = a.time + 0.002;
  }
  EngineConfig cfg;
  cfg.window = 1e6;
  EngineRun run(world.get(), &workload, cfg);
  ASSERT_TRUE(run.engine.Run().ok());
  const EngineMetrics& m = run.engine.metrics();
  EXPECT_EQ(m.total_expired, m.total_arrivals);
  EXPECT_EQ(m.total_accepted, 0);
  EXPECT_EQ(run.engine.booked_utility(), 0);
}

TEST(EngineTest, AdmissionControlRejectsQueueOverflow) {
  auto world = SmallWorld();
  const StreamingWorkload workload = MakeWorkload(*world, 5.0);
  EngineConfig cfg;
  cfg.window = 120;  // long window + fast arrivals → deep queue
  cfg.max_queue = 1;
  EngineRun run(world.get(), &workload, cfg);
  ASSERT_TRUE(run.engine.Run().ok());
  const EngineMetrics& m = run.engine.metrics();
  EXPECT_GT(m.total_rejected, 0);
  const auto rejected = std::count_if(
      run.engine.event_log().begin(), run.engine.event_log().end(),
      [](const Event& e) { return e.type == EventType::kRejected; });
  EXPECT_EQ(rejected, m.total_rejected);
}

TEST(EngineTest, CancellationsReleaseBookedRiders) {
  auto world = SmallWorld();
  const StreamingWorkload workload = MakeWorkload(*world, 0.5, 0.5);
  ASSERT_FALSE(workload.cancellations.empty());
  EngineConfig cfg;
  cfg.window = 30;
  EngineRun run(world.get(), &workload, cfg);
  ASSERT_TRUE(run.engine.Run().ok());
  const EngineMetrics& m = run.engine.metrics();
  const std::vector<Event>& log = run.engine.event_log();
  // Every injected request is logged, whether or not it took effect.
  const auto requested = std::count_if(
      log.begin(), log.end(),
      [](const Event& e) { return e.type == EventType::kCancelRequested; });
  EXPECT_EQ(requested, static_cast<long>(workload.cancellations.size()));
  const auto cancelled = std::count_if(
      log.begin(), log.end(),
      [](const Event& e) { return e.type == EventType::kCancelled; });
  EXPECT_EQ(cancelled, m.total_cancelled);
  // A cancelled rider's booking is released.
  for (const Event& e : log) {
    if (e.type == EventType::kCancelled) {
      EXPECT_EQ(run.engine.solution().assignment[static_cast<size_t>(e.rider)],
                -1);
      EXPECT_EQ(run.engine.booked_utilities()[static_cast<size_t>(e.rider)], 0);
    }
  }
}

TEST(EngineTest, WindowsTileTheArrivalSpan) {
  auto world = SmallWorld();
  const StreamingWorkload workload = MakeWorkload(*world);
  EngineConfig cfg;
  cfg.window = 25;
  EngineRun run(world.get(), &workload, cfg);
  ASSERT_TRUE(run.engine.Run().ok());
  const EngineMetrics& m = run.engine.metrics();
  ASSERT_FALSE(m.windows.empty());
  int arrivals = 0;
  for (size_t i = 0; i < m.windows.size(); ++i) {
    const WindowMetrics& w = m.windows[i];
    EXPECT_NEAR(w.window_end - w.window_start, 25, 1e-9);
    if (i > 0) {
      EXPECT_GE(w.window_start, m.windows[i - 1].window_end - 1e-9);
    }
    EXPECT_GE(w.fleet_utilization, 0);
    EXPECT_LE(w.fleet_utilization, 1);
    arrivals += w.arrivals;
  }
  EXPECT_EQ(arrivals, m.total_arrivals);
  // One solve latency per window that had anyone queued.
  const auto solved = std::count_if(
      m.windows.begin(), m.windows.end(),
      [](const WindowMetrics& w) { return w.queue_depth > 0; });
  EXPECT_EQ(static_cast<long>(m.solve_latencies.size()), solved);
}

TEST(EngineTest, RunIsSingleShot) {
  auto world = SmallWorld();
  const StreamingWorkload workload = MakeWorkload(*world);
  EngineConfig cfg;
  EngineRun run(world.get(), &workload, cfg);
  ASSERT_TRUE(run.engine.Run().ok());
  EXPECT_FALSE(run.engine.Run().ok());
}

TEST(EngineTest, EverySolverRunsTheWorkload) {
  auto world = SmallWorld();
  const StreamingWorkload workload = MakeWorkload(*world);
  for (WindowSolver solver :
       {WindowSolver::kCostFirst, WindowSolver::kEfficientGreedy,
        WindowSolver::kBilateral, WindowSolver::kGbsEg, WindowSolver::kGbsBa}) {
    EngineConfig cfg;
    cfg.window = 40;
    cfg.solver = solver;
    cfg.gbs.k = 3;       // keep PrepareGbs cheap on the 1200-node city
    cfg.gbs.d_max = 250;
    EngineRun run(world.get(), &workload, cfg);
    ASSERT_TRUE(run.engine.Run().ok()) << WindowSolverName(solver);
    const EngineMetrics& m = run.engine.metrics();
    EXPECT_GT(m.total_accepted, 0) << WindowSolverName(solver);
    // The drain completes every accepted ride (the final schedules are fully
    // executed, so the solution is empty rather than Validate()-able).
    EXPECT_EQ(m.total_dropped_off, m.total_accepted)
        << WindowSolverName(solver);
  }
}

TEST(EngineTest, WindowSolverNamesRoundTrip) {
  for (WindowSolver solver :
       {WindowSolver::kCostFirst, WindowSolver::kEfficientGreedy,
        WindowSolver::kBilateral, WindowSolver::kGbsEg, WindowSolver::kGbsBa}) {
    WindowSolver parsed;
    ASSERT_TRUE(ParseWindowSolver(WindowSolverName(solver), &parsed));
    EXPECT_EQ(parsed, solver);
  }
  WindowSolver parsed;
  EXPECT_FALSE(ParseWindowSolver("nope", &parsed));
}

TEST(EngineTest, MetricsJsonCarriesTheCounters) {
  auto world = SmallWorld();
  const StreamingWorkload workload = MakeWorkload(*world);
  EngineConfig cfg;
  cfg.window = 30;
  EngineRun run(world.get(), &workload, cfg);
  ASSERT_TRUE(run.engine.Run().ok());
  const std::string json = EngineMetricsJson(run.engine.metrics(), true);
  for (const char* key :
       {"\"total_arrivals\"", "\"total_accepted\"", "\"total_expired\"",
        "\"booked_utility\"", "\"driven_cost\"", "\"pickup_wait_p95\"",
        "\"solve_latency_p95\"", "\"windows\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  const std::string flat = EngineMetricsJson(run.engine.metrics(), false);
  EXPECT_EQ(flat.find("\"windows\""), std::string::npos);
}

}  // namespace
}  // namespace urr
