// The live-session API's core contract: driving a recorded workload
// through SubmitLive/CancelLive in (time, rank) order produces an event
// log — and a final fleet state — byte-identical to DispatchEngine::Run()
// on the same workload. Plus the live-only behaviors: synchronous
// submit outcomes, admission control, per-reason reject counters, rider
// status queries and injection-order errors.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "exp/harness.h"

namespace urr {
namespace {

std::unique_ptr<ExperimentWorld> SmallWorld(uint64_t seed = 42) {
  ExperimentConfig cfg;
  cfg.city_nodes = 1200;
  cfg.num_social_users = 500;
  cfg.num_trip_records = 1500;
  cfg.num_riders = 100;
  cfg.num_vehicles = 20;
  cfg.seed = seed;
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

/// One recorded input in the engine's queue order.
struct Entry {
  Cost time = 0;
  int rank = 0;  // 0 = arrival, 1 = cancel (matches the engine's ranks)
  size_t index = 0;
  RiderId rider = -1;
};

std::vector<Entry> RecordedEntries(const StreamingWorkload& workload) {
  std::vector<Entry> entries;
  for (size_t i = 0; i < workload.arrivals.size(); ++i) {
    entries.push_back({workload.arrivals[i].time, 0, i,
                       workload.arrivals[i].rider});
  }
  for (size_t i = 0; i < workload.cancellations.size(); ++i) {
    entries.push_back({workload.cancellations[i].time, 1, i,
                       workload.cancellations[i].rider});
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.rank != b.rank) return a.rank < b.rank;
    return a.index < b.index;
  });
  return entries;
}

/// Replays the recorded workload through the live hooks.
void DriveLive(DispatchEngine* engine, const StreamingWorkload& workload) {
  ASSERT_TRUE(engine->BeginLive().ok());
  for (const Entry& e : RecordedEntries(workload)) {
    if (e.rank == 0) {
      auto outcome = engine->SubmitLive(e.rider, e.time);
      ASSERT_TRUE(outcome.ok()) << outcome.status();
    } else {
      auto cancelled = engine->CancelLive(e.rider, e.time);
      ASSERT_TRUE(cancelled.ok()) << cancelled.status();
    }
  }
  ASSERT_TRUE(engine->FinishLive().ok());
}

void ExpectLiveMatchesBatch(const EngineConfig& config, double arrival_rate,
                            double cancel_fraction) {
  auto world = SmallWorld();
  const StreamingWorkload workload =
      MakeWorkload(*world, arrival_rate, cancel_fraction);

  EngineRun batch(world.get(), &workload, config);
  ASSERT_TRUE(batch.engine.Run().ok());

  auto live_world = SmallWorld();  // fresh context, same seed
  EngineRun live(live_world.get(), &workload, config);
  DriveLive(&live.engine, workload);

  EXPECT_EQ(live.engine.SerializedLog(), batch.engine.SerializedLog());
  EXPECT_EQ(live.engine.SolutionFingerprint(),
            batch.engine.SolutionFingerprint());
  EXPECT_EQ(live.engine.metrics().total_accepted,
            batch.engine.metrics().total_accepted);
}

TEST(LiveEngineTest, WindowedLiveLogMatchesBatchByteForByte) {
  EngineConfig config;
  config.window = 20;
  config.solver = WindowSolver::kEfficientGreedy;
  ExpectLiveMatchesBatch(config, 0.5, 0.2);
}

TEST(LiveEngineTest, OnlineLiveLogMatchesBatchByteForByte) {
  EngineConfig config;
  config.window = 0;
  ExpectLiveMatchesBatch(config, 1.0, 0.1);
}

TEST(LiveEngineTest, BoundedQueueLiveLogMatchesBatch) {
  EngineConfig config;
  config.window = 15;
  config.max_queue = 3;  // forces queue_full rejections on both sides
  ExpectLiveMatchesBatch(config, 2.0, 0.0);
}

TEST(LiveEngineTest, RestoredEngineContinuesLiveSessionByteForByte) {
  // The recovery primitive behind the crash-safe service: checkpoint a
  // live session mid-stream, Restore() into a fresh engine, reopen the
  // live session and continue — the combined run must be indistinguishable
  // from the uninterrupted one.
  EngineConfig config;
  config.window = 20;
  config.solver = WindowSolver::kEfficientGreedy;
  auto world = SmallWorld();
  const StreamingWorkload workload = MakeWorkload(*world, 0.5, 0.2);
  const std::vector<Entry> entries = RecordedEntries(workload);
  ASSERT_GT(entries.size(), 4u);
  const size_t cut = entries.size() / 2;

  const auto drive = [&](DispatchEngine* engine, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const Entry& e = entries[i];
      if (e.rank == 0) {
        auto outcome = engine->SubmitLive(e.rider, e.time);
        ASSERT_TRUE(outcome.ok()) << outcome.status();
      } else {
        auto cancelled = engine->CancelLive(e.rider, e.time);
        ASSERT_TRUE(cancelled.ok()) << cancelled.status();
      }
    }
  };

  // Uninterrupted reference.
  auto ref_world = SmallWorld();
  EngineRun ref(ref_world.get(), &workload, config);
  ASSERT_TRUE(ref.engine.BeginLive().ok());
  drive(&ref.engine, 0, entries.size());
  ASSERT_TRUE(ref.engine.FinishLive().ok());

  // First half, then a checkpoint — taken mid-session, like the service's
  // cadence checkpoints.
  auto half_world = SmallWorld();
  EngineRun half(half_world.get(), &workload, config);
  ASSERT_TRUE(half.engine.BeginLive().ok());
  drive(&half.engine, 0, cut);
  const std::string ckpt = half.engine.Checkpoint();

  // Restore into a fresh engine and finish the second half there.
  auto resumed_world = SmallWorld();
  EngineRun resumed(resumed_world.get(), &workload, config);
  ASSERT_TRUE(resumed.engine.Restore(ckpt).ok());
  ASSERT_TRUE(resumed.engine.BeginLive().ok());
  drive(&resumed.engine, cut, entries.size());
  ASSERT_TRUE(resumed.engine.FinishLive().ok());

  EXPECT_EQ(resumed.engine.SerializedLog(), ref.engine.SerializedLog())
      << "checkpoint/restore across a live session must not perturb the "
         "event log";
  EXPECT_EQ(resumed.engine.SolutionFingerprint(),
            ref.engine.SolutionFingerprint());
  EXPECT_EQ(resumed.engine.metrics().total_accepted,
            ref.engine.metrics().total_accepted);
}

TEST(LiveEngineTest, SubmitOutcomeReportsQueuedAndQueueFull) {
  auto world = SmallWorld();
  const StreamingWorkload workload = MakeWorkload(*world, 1.0);
  EngineConfig config;
  config.window = 1000;  // nothing solves during the submissions
  config.max_queue = 2;
  EngineRun run(world.get(), &workload, config);
  ASSERT_TRUE(run.engine.BeginLive().ok());

  for (int i = 0; i < 2; ++i) {
    auto outcome =
        run.engine.SubmitLive(workload.arrivals[i].rider,
                              workload.arrivals[i].time);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_TRUE(outcome->queued);
    EXPECT_EQ(outcome->reject, RejectReason::kNone);
  }
  EXPECT_EQ(run.engine.queue_depth(), 2);

  auto full = run.engine.SubmitLive(workload.arrivals[2].rider,
                                    workload.arrivals[2].time);
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_FALSE(full->queued);
  EXPECT_EQ(full->reject, RejectReason::kQueueFull);
  EXPECT_EQ(run.engine.metrics().rejects.queue_full, 1);

  ASSERT_TRUE(run.engine.FinishLive().ok());
  EXPECT_EQ(run.engine.metrics().rejects.total(),
            run.engine.metrics().total_rejected);
}

TEST(LiveEngineTest, OnlineOutcomeReportsAssignmentWithVehicle) {
  auto world = SmallWorld();
  const StreamingWorkload workload = MakeWorkload(*world, 1.0);
  EngineConfig config;
  config.window = 0;
  EngineRun run(world.get(), &workload, config);
  ASSERT_TRUE(run.engine.BeginLive().ok());

  bool saw_assignment = false;
  for (size_t i = 0; i < 10 && i < workload.arrivals.size(); ++i) {
    auto outcome = run.engine.SubmitLive(workload.arrivals[i].rider,
                                         workload.arrivals[i].time);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_FALSE(outcome->queued);  // W = 0 decides on the spot
    if (outcome->assigned) {
      saw_assignment = true;
      EXPECT_GE(outcome->vehicle, 0);
      auto status = run.engine.QueryRider(workload.arrivals[i].rider);
      ASSERT_TRUE(status.ok());
      EXPECT_STREQ(status->state, "assigned");
      EXPECT_EQ(status->vehicle, outcome->vehicle);
    } else {
      EXPECT_NE(outcome->reject, RejectReason::kNone);
    }
  }
  EXPECT_TRUE(saw_assignment);
  ASSERT_TRUE(run.engine.FinishLive().ok());
  // Every verdict was counted under its reason.
  EXPECT_EQ(run.engine.metrics().rejects.total(),
            run.engine.metrics().total_rejected);
}

TEST(LiveEngineTest, QueryRiderTracksLifecycle) {
  auto world = SmallWorld();
  const StreamingWorkload workload = MakeWorkload(*world, 1.0);
  EngineConfig config;
  config.window = 30;
  EngineRun run(world.get(), &workload, config);
  ASSERT_TRUE(run.engine.BeginLive().ok());

  const RiderId rider = workload.arrivals[0].rider;
  auto before = run.engine.QueryRider(rider);
  ASSERT_TRUE(before.ok());
  EXPECT_STREQ(before->state, "pending");

  ASSERT_TRUE(
      run.engine.SubmitLive(rider, workload.arrivals[0].time).ok());
  auto queued = run.engine.QueryRider(rider);
  ASSERT_TRUE(queued.ok());
  EXPECT_STREQ(queued->state, "queued");
  EXPECT_DOUBLE_EQ(queued->arrival_time, workload.arrivals[0].time);

  EXPECT_FALSE(run.engine.QueryRider(-1).ok());
  EXPECT_FALSE(run.engine.QueryRider(10'000'000).ok());

  ASSERT_TRUE(run.engine.FinishLive().ok());
  auto after = run.engine.QueryRider(rider);
  ASSERT_TRUE(after.ok());
  // Terminal: served, expired or cancelled — but no longer queued.
  EXPECT_STRNE(after->state, "queued");
}

TEST(LiveEngineTest, InjectionOrderIsEnforced) {
  auto world = SmallWorld();
  const StreamingWorkload workload = MakeWorkload(*world, 1.0);
  EngineConfig config;
  config.window = 30;
  EngineRun run(world.get(), &workload, config);

  // No session open yet.
  EXPECT_FALSE(run.engine.SubmitLive(workload.arrivals[0].rider, 0).ok());
  ASSERT_TRUE(run.engine.BeginLive().ok());
  EXPECT_FALSE(run.engine.BeginLive().ok());  // double open

  const RiderId rider = workload.arrivals[0].rider;
  ASSERT_TRUE(run.engine.SubmitLive(rider, 10).ok());
  // Duplicate submission and unknown riders are errors, not outcomes.
  EXPECT_EQ(run.engine.SubmitLive(rider, 11).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_FALSE(run.engine.SubmitLive(-1, 11).ok());
  // Time must be non-decreasing against the engine clock.
  EXPECT_FALSE(run.engine.SubmitLive(workload.arrivals[1].rider, 5).ok());
  // Edge faults need the armed overlay.
  EXPECT_FALSE(run.engine.InjectEdgeFaultLive(0, 1, 2.0, 12).ok());

  ASSERT_TRUE(run.engine.FinishLive().ok());
  ASSERT_TRUE(run.engine.FinishLive().ok());  // idempotent
  EXPECT_TRUE(run.engine.finished());
  // Post-finish injections fail.
  EXPECT_FALSE(run.engine.SubmitLive(workload.arrivals[2].rider, 99).ok());
}

TEST(LiveEngineTest, ArmedOverlayAcceptsLiveEdgeFaults) {
  auto world = SmallWorld();
  const StreamingWorkload workload = MakeWorkload(*world, 1.0);
  EngineConfig config;
  config.window = 30;
  config.arm_overlay = true;
  EngineRun run(world.get(), &workload, config);
  ASSERT_TRUE(run.engine.BeginLive().ok());
  ASSERT_TRUE(
      run.engine.SubmitLive(workload.arrivals[0].rider, 5).ok());
  EXPECT_TRUE(run.engine.InjectEdgeFaultLive(0, 1, 2.0, 10).ok());
  for (const double factor : {0.5, std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(run.engine.InjectEdgeFaultLive(0, 1, factor, 11).code(),
              StatusCode::kInvalidArgument)
        << "factor " << factor << " would break overlay admissibility";
  }
  // Endpoints index the network's adjacency: unknown nodes are NotFound.
  const NodeId n = world->network.num_nodes();
  for (const auto& [a, b] : std::vector<std::pair<NodeId, NodeId>>{
           {999999, 0}, {0, 999999}, {-1, 0}, {0, n}}) {
    EXPECT_EQ(run.engine.InjectEdgeFaultLive(a, b, 2.0, 11).code(),
              StatusCode::kNotFound);
    EXPECT_EQ(run.engine.InjectEdgeRestoreLive(a, b, 11).code(),
              StatusCode::kNotFound);
  }
  EXPECT_TRUE(run.engine.InjectEdgeRestoreLive(0, 1, 12).ok());
  // kInfiniteCost is a closure, not a bad factor.
  EXPECT_TRUE(run.engine.InjectEdgeFaultLive(0, 1, kInfiniteCost, 12).ok());
  EXPECT_TRUE(run.engine.InjectBreakdownLive(0, 13).ok());
  EXPECT_FALSE(run.engine.InjectBreakdownLive(-3, 14).ok());
  ASSERT_TRUE(run.engine.FinishLive().ok());
  EXPECT_EQ(run.engine.metrics().total_edge_disruptions, 2);
  EXPECT_EQ(run.engine.metrics().total_edge_restores, 1);
  EXPECT_EQ(run.engine.metrics().total_breakdowns, 1);
}

TEST(LiveEngineTest, AdvanceLiveRunsBoundariesBetweenRequests) {
  auto world = SmallWorld();
  const StreamingWorkload workload = MakeWorkload(*world, 1.0);
  EngineConfig config;
  config.window = 10;
  EngineRun run(world.get(), &workload, config);
  ASSERT_TRUE(run.engine.BeginLive().ok());
  ASSERT_TRUE(run.engine.SubmitLive(workload.arrivals[0].rider,
                                    workload.arrivals[0].time)
                  .ok());
  EXPECT_EQ(run.engine.queue_depth(), 1);
  // Advancing past the next boundary must solve the window.
  ASSERT_TRUE(run.engine.AdvanceLive(workload.arrivals[0].time + 25).ok());
  EXPECT_EQ(run.engine.queue_depth(), 0);
  EXPECT_GE(run.engine.now(), workload.arrivals[0].time + 25);
  EXPECT_FALSE(run.engine.AdvanceLive(0).ok()) << "clock must not go back";
  ASSERT_TRUE(run.engine.FinishLive().ok());
}

TEST(LiveEngineTest, EmptyPercentilesSerializeAsNull) {
  EngineMetrics metrics;  // no samples recorded at all
  const std::string json = EngineMetricsJson(metrics, false);
  EXPECT_NE(json.find("\"pickup_wait_p50\":null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"solve_latency_p99\":null"), std::string::npos);
  EXPECT_NE(json.find("\"rejects_by_reason\""), std::string::npos);

  metrics.pickup_waits = {1.0, 2.0, 3.0};
  const std::string filled = EngineMetricsJson(metrics, false);
  EXPECT_EQ(filled.find("\"pickup_wait_p50\":null"), std::string::npos);
  EXPECT_NE(filled.find("\"pickup_wait_p50\":2"), std::string::npos) << filled;
}

}  // namespace
}  // namespace urr
