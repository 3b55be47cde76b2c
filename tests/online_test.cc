// Per-arrival dispatch: the EvaluateArrival decision rule (urr/online.h) as
// the streaming engine commits it at W = 0, driven rider by rider through
// SubmitLive.
#include "urr/online.h"

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "exp/harness.h"
#include "urr/greedy.h"

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

// A live W = 0 engine over a copy of the world's instance. Every rider is
// submitted at the instance's `now`, so deadlines are those of the batch
// instance and each answer is committed before Submit returns.
class OnlineSession {
 public:
  OnlineSession(ExperimentWorld* world, OnlineObjective objective) {
    workload_.instance = world->instance;
    SolverContext ctx = world->Context();
    EngineConfig config;
    config.window = 0;
    config.online_objective = objective;
    engine_ = std::make_unique<DispatchEngine>(&workload_, &ctx, config);
    const Status st = engine_->BeginLive();
    EXPECT_TRUE(st.ok()) << st;
  }

  DispatchEngine::SubmitOutcome Submit(RiderId rider) {
    auto out = engine_->SubmitLive(rider, workload_.instance.now);
    EXPECT_TRUE(out.ok()) << out.status();
    return out.ok() ? *out : DispatchEngine::SubmitOutcome{};
  }

  /// Submits every rider in id order; returns the committed schedules.
  const UrrSolution& SubmitAll() {
    for (RiderId r = 0; r < workload_.instance.num_riders(); ++r) Submit(r);
    return engine_->solution();
  }

  DispatchEngine& engine() { return *engine_; }
  Cost now() const { return workload_.instance.now; }

 private:
  StreamingWorkload workload_;
  std::unique_ptr<DispatchEngine> engine_;
};

TEST(OnlineTest, DispatchAllProducesValidSolution) {
  auto world = SmallWorld();
  for (OnlineObjective obj :
       {OnlineObjective::kUtilityGain, OnlineObjective::kMinCostIncrease}) {
    OnlineSession online(world.get(), obj);
    const UrrSolution& sol = online.SubmitAll();
    const EngineMetrics& m = online.engine().metrics();
    EXPECT_TRUE(sol.Validate(world->instance).ok());
    EXPECT_GT(m.total_accepted, 0);
    EXPECT_EQ(m.total_accepted + m.total_rejected,
              world->instance.num_riders());
    EXPECT_EQ(sol.NumAssigned(), m.total_accepted);
  }
}

TEST(OnlineTest, DecisionsAreImmediateAndSticky) {
  auto world = SmallWorld();
  OnlineSession online(world.get(), OnlineObjective::kUtilityGain);
  const DispatchEngine::SubmitOutcome first = online.Submit(0);
  ASSERT_TRUE(first.assigned);
  // The rider is committed to that vehicle before Submit returns...
  EXPECT_EQ(online.engine().solution().assignment[0], first.vehicle);
  // ...and dispatching more riders never moves rider 0.
  online.Submit(1);
  online.Submit(2);
  EXPECT_EQ(online.engine().solution().assignment[0], first.vehicle);
}

TEST(OnlineTest, MinCostObjectivePicksCheaperInsertions) {
  auto world = SmallWorld(7);
  OnlineSession utility(world.get(), OnlineObjective::kUtilityGain);
  OnlineSession cost(world.get(), OnlineObjective::kMinCostIncrease);
  const UrrSolution& by_utility = utility.SubmitAll();
  const UrrSolution& by_cost = cost.SubmitAll();
  ASSERT_GT(by_cost.NumAssigned(), 0);
  ASSERT_GT(by_utility.NumAssigned(), 0);
  // Cost-objective dispatch spends no more travel per served rider.
  EXPECT_LE(by_cost.TotalCost() / by_cost.NumAssigned(),
            by_utility.TotalCost() / by_utility.NumAssigned() + 1e-9);
}

TEST(OnlineTest, BatchBeatsOnlineOnUtility) {
  // Batch EG sees all riders at once; online commits greedily in arrival
  // order, so across seeds batch should not lose.
  double batch = 0, online = 0;
  for (uint64_t seed : {1u, 2u, 3u}) {
    auto world = SmallWorld(seed);
    SolverContext ctx = world->Context();
    UrrSolution eg = SolveEfficientGreedy(world->instance, &ctx);
    batch += eg.TotalUtility(world->model);
    OnlineSession session(world.get(), OnlineObjective::kUtilityGain);
    online += session.SubmitAll().TotalUtility(world->model);
  }
  EXPECT_GT(batch, online * 0.95);  // batch at least competitive
}

TEST(OnlineTest, RejectedRiderStaysUnassigned) {
  auto world = SmallWorld();
  // Make rider 0 impossible to serve.
  world->instance.riders[0].pickup_deadline = 0.0001;
  world->instance.riders[0].dropoff_deadline = 0.0002;
  OnlineSession online(world.get(), OnlineObjective::kUtilityGain);
  const DispatchEngine::SubmitOutcome out = online.Submit(0);
  EXPECT_FALSE(out.assigned);
  EXPECT_NE(out.reject, RejectReason::kNone);
  EXPECT_EQ(online.engine().solution().assignment[0], -1);
  EXPECT_EQ(online.engine().metrics().total_rejected, 1);
}

TEST(OnlineTest, AcceptedDecisionCarriesNoReason) {
  auto world = SmallWorld();
  OnlineSession online(world.get(), OnlineObjective::kUtilityGain);
  for (RiderId r = 0; r < world->instance.num_riders(); ++r) {
    const DispatchEngine::SubmitOutcome out = online.Submit(r);
    if (out.assigned) {
      EXPECT_EQ(out.reject, RejectReason::kNone);
      EXPECT_GE(out.vehicle, 0);
      return;
    }
  }
  FAIL() << "no rider was accepted";
}

TEST(OnlineTest, UnreachableRiderReportsNoReachableVehicle) {
  auto world = SmallWorld();
  // A pickup deadline of ~0 leaves a zero search radius: no vehicle can be
  // reachable (unless one is parked on the rider, which the assert below
  // would surface as kDeadline — not seen with this seed).
  world->instance.riders[0].pickup_deadline = 0.0001;
  world->instance.riders[0].dropoff_deadline = 0.0002;
  OnlineSession online(world.get(), OnlineObjective::kUtilityGain);
  const DispatchEngine::SubmitOutcome out = online.Submit(0);
  ASSERT_FALSE(out.assigned);
  EXPECT_EQ(out.reject, RejectReason::kNoReachableVehicle);
}

TEST(OnlineTest, ZeroCapacityFleetReportsCapacity) {
  for (OnlineObjective obj :
       {OnlineObjective::kUtilityGain, OnlineObjective::kMinCostIncrease}) {
    auto world = SmallWorld();
    for (Vehicle& v : world->instance.vehicles) v.capacity = 0;
    OnlineSession online(world.get(), obj);
    const DispatchEngine::SubmitOutcome out = online.Submit(0);
    ASSERT_FALSE(out.assigned);
    EXPECT_EQ(out.reject, RejectReason::kCapacity);
  }
}

TEST(OnlineTest, ImpossibleDropoffReportsDeadline) {
  auto world = SmallWorld();
  // Generous pickup budget (vehicles are reachable) but a dropoff deadline
  // equal to the pickup deadline: the ride itself can never fit.
  Rider& r = world->instance.riders[0];
  r.dropoff_deadline = r.pickup_deadline;
  OnlineSession online(world.get(), OnlineObjective::kMinCostIncrease);
  const DispatchEngine::SubmitOutcome out = online.Submit(0);
  ASSERT_FALSE(out.assigned);
  EXPECT_EQ(out.reject, RejectReason::kDeadline);
}

TEST(OnlineTest, EvaluateArrivalMatchesDispatchWithoutCommitting) {
  auto world = SmallWorld();
  OnlineSession online(world.get(), OnlineObjective::kUtilityGain);
  // Commit a few riders first so the peek sees non-empty schedules.
  for (RiderId r = 0; r < 5; ++r) online.Submit(r);
  SolverContext ctx = world->Context();
  for (RiderId r = 5; r < 15; ++r) {
    const DispatchDecision peek =
        EvaluateArrival(world->instance, &ctx, online.engine().solution(), r,
                        OnlineObjective::kUtilityGain);
    // Pure evaluation: nothing was committed.
    EXPECT_EQ(online.engine().solution().assignment[r], -1);
    const DispatchEngine::SubmitOutcome out = online.Submit(r);
    EXPECT_EQ(peek.accepted, out.assigned) << "rider " << r;
    EXPECT_EQ(peek.vehicle, out.vehicle) << "rider " << r;
    if (!peek.accepted) {
      EXPECT_EQ(peek.reason, out.reject) << "rider " << r;
    }
  }
}

TEST(OnlineTest, DispatchAllSkipsAlreadyAssigned) {
  auto world = SmallWorld();
  OnlineSession online(world.get(), OnlineObjective::kUtilityGain);
  online.Submit(0);
  const int accepted_after_first = online.engine().metrics().total_accepted;
  const int vehicle = online.engine().solution().assignment[0];
  for (int repeat = 0; repeat < 3; ++repeat) {
    // Repeats are refused and change nothing.
    const auto again = online.engine().SubmitLive(0, online.now());
    EXPECT_EQ(again.status().code(), StatusCode::kAlreadyExists);
  }
  EXPECT_EQ(online.engine().metrics().total_accepted, accepted_after_first);
  EXPECT_EQ(online.engine().solution().assignment[0], vehicle);
}

}  // namespace
}  // namespace urr
