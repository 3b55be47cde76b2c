// Evaluation-path contract suite for the zero-copy kernel, the
// cross-window eval cache and bound screening:
//   1. FindBestInsertionScratch (with and without screening) agrees with
//      brute force on plan, Δcost and feasibility,
//   2. BuildTrialView reproduces the applied schedule field for field,
//   3. the steady-state EvaluateCandidates path makes zero TransferSequence
//      copies and matches an apply-on-a-copy reference for Δcost and Δμ,
//   4. schedule versions stamp exactly the observable mutations, which is
//      what makes (rider, vehicle, version) a safe cache key,
//   5. EvalCache lookup/store need_utility semantics.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/generators.h"
#include "urr/eval_cache.h"
#include "urr/solution.h"

namespace urr {
namespace {

// ---------------------------------------------------------------------------
// 1 + 2: scratch kernel vs brute force on random city schedules.
// ---------------------------------------------------------------------------

TEST(EvalPathTest, ScratchKernelMatchesBruteForce) {
  InsertionScratch plain_scratch;
  InsertionScratch screened_scratch;
  InsertionScratch trial_scratch;
  int feasible_cases = 0;
  uint64_t total_elided = 0;
  uint64_t plain_queries = 0;
  uint64_t screened_queries = 0;
  for (uint64_t seed : {11u, 12u, 13u, 14u}) {
    Rng rng(seed);
    GridCityOptions opt;
    opt.width = 9;
    opt.height = 9;
    auto g = GenerateGridCity(opt, &rng);
    ASSERT_TRUE(g.ok());
    DijkstraOracle oracle(*g);
    const InsertionScreen screen{&*g, g->MaxSpeed()};
    ASSERT_TRUE(screen.enabled());

    auto random_node = [&] {
      return static_cast<NodeId>(rng.UniformInt(0, g->num_nodes() - 1));
    };
    for (int trial = 0; trial < 30; ++trial) {
      TransferSequence seq(random_node(), 0, /*capacity=*/3, &oracle);
      const int base_riders = static_cast<int>(rng.UniformInt(0, 4));
      for (int r = 0; r < base_riders; ++r) {
        const NodeId s = random_node();
        const NodeId e = random_node();
        if (s == e) continue;
        const Cost direct = oracle.Distance(s, e);
        RiderTrip grow{100 + r, s, e, seq.EndTime() + rng.Uniform(200, 2000),
                       0};
        grow.dropoff_deadline =
            grow.pickup_deadline + direct * rng.Uniform(1.2, 2.5);
        auto plan = FindBestInsertion(seq, grow);
        if (plan.ok()) {
          ASSERT_TRUE(ApplyInsertion(&seq, grow, *plan).ok());
        }
      }
      const NodeId s = random_node();
      const NodeId e = random_node();
      if (s == e) continue;
      const Cost direct = oracle.Distance(s, e);
      RiderTrip trip{7, s, e, rng.Uniform(100, 1500), 0};
      trip.dropoff_deadline =
          trip.pickup_deadline + direct * rng.Uniform(1.1, 2.0);

      bool cb_plain = false;
      bool cb_screened = false;
      const ScheduleView view = seq.View();
      const uint64_t pq0 = plain_scratch.oracle_queries;
      const auto plain = FindBestInsertionScratch(view, trip, &cb_plain,
                                                 nullptr, &plain_scratch);
      plain_queries += plain_scratch.oracle_queries - pq0;
      const uint64_t sq0 = screened_scratch.oracle_queries;
      const uint64_t el0 = screened_scratch.elided_queries;
      const auto screened = FindBestInsertionScratch(
          view, trip, &cb_screened, &screen, &screened_scratch);
      screened_queries += screened_scratch.oracle_queries - sq0;
      total_elided += screened_scratch.elided_queries - el0;

      // Screening elides queries only: both runs agree on everything
      // observable, and on feasibility and cost with brute force.
      ASSERT_EQ(plain.ok(), screened.ok()) << "trial " << trial;
      EXPECT_EQ(cb_plain, cb_screened) << "trial " << trial;
      const auto brute = FindBestInsertionBruteForce(seq, trip);
      ASSERT_EQ(plain.ok(), brute.ok()) << "trial " << trial;
      if (!plain.ok()) continue;
      ++feasible_cases;
      EXPECT_EQ(screened->pickup_pos, plain->pickup_pos);
      EXPECT_EQ(screened->dropoff_pos, plain->dropoff_pos);
      EXPECT_EQ(screened->delta_cost, plain->delta_cost);  // bit-identical
      EXPECT_NEAR(plain->delta_cost, brute->delta_cost, 1e-6);

      // BuildTrialView's derived fields must equal the applied schedule's.
      const ScheduleView tv = BuildTrialView(view, trip, *plain,
                                             &trial_scratch);
      TransferSequence applied = seq;
      ASSERT_TRUE(ApplyInsertion(&applied, trip, *plain).ok());
      ASSERT_EQ(tv.num_stops, applied.num_stops());
      EXPECT_EQ(tv.start, applied.start_location());
      EXPECT_EQ(tv.now, applied.now());
      EXPECT_EQ(tv.capacity, applied.capacity());
      for (int u = 0; u < tv.num_stops; ++u) {
        EXPECT_EQ(tv.stop(u).location, applied.stop(u).location);
        EXPECT_EQ(tv.stop(u).rider, applied.stop(u).rider);
        EXPECT_EQ(tv.stop(u).type, applied.stop(u).type);
        EXPECT_EQ(tv.stop(u).deadline, applied.stop(u).deadline);
        EXPECT_EQ(tv.leg_cost[u], applied.leg_cost(u)) << "leg " << u;
        EXPECT_EQ(tv.EarliestArrival(u), applied.EarliestArrival(u));
        EXPECT_EQ(tv.LatestCompletion(u), applied.LatestCompletion(u));
        EXPECT_EQ(tv.FlexTime(u), applied.FlexTime(u));
        EXPECT_EQ(tv.Onboard(u), applied.Onboard(u));
      }
      EXPECT_EQ(tv.TotalCost(), applied.TotalCost());
      EXPECT_EQ(tv.EndTime(), applied.EndTime());
      EXPECT_EQ(tv.EndOnboard(), applied.EndOnboard());
    }
  }
  // The sweep must exercise real insertions and real screening.
  EXPECT_GT(feasible_cases, 10);
  EXPECT_GT(total_elided, 0u);
  EXPECT_LT(screened_queries, plain_queries);
}

// ---------------------------------------------------------------------------
// 3: zero TransferSequence copies on the steady-state evaluation path.
// ---------------------------------------------------------------------------

class EvalPathFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<Edge> edges;
    std::vector<Coord> coords;
    for (NodeId v = 0; v < 6; ++v) {
      coords.push_back({10.0 * v, 0});
      if (v + 1 < 6) {
        edges.push_back({v, v + 1, 10});
        edges.push_back({v + 1, v, 10});
      }
    }
    auto g = RoadNetwork::Build(6, edges, std::move(coords));
    ASSERT_TRUE(g.ok());
    network_ = std::make_unique<RoadNetwork>(*std::move(g));
    oracle_ = std::make_unique<DijkstraOracle>(*network_);
    instance_.network = network_.get();
    instance_.riders = {{1, 3, 200, 500, -1}, {2, 4, 200, 500, -1}};
    instance_.vehicles = {{0, 2}, {5, 2}};
    model_ = std::make_unique<UtilityModel>(&instance_, UtilityParams{0, 0});
  }

  SolverContext Context() {
    SolverContext ctx;
    ctx.oracle = oracle_.get();
    ctx.model = model_.get();
    ctx.euclid_speed = network_->MaxSpeed();
    return ctx;
  }

  UrrInstance instance_;
  std::unique_ptr<RoadNetwork> network_;
  std::unique_ptr<DijkstraOracle> oracle_;
  std::unique_ptr<UtilityModel> model_;
};

TEST_F(EvalPathFixture, SteadyStateEvaluationMakesZeroCopies) {
  UrrSolution sol = MakeEmptySolution(instance_, oracle_.get());
  ASSERT_TRUE(ArrangeSingleRider(&sol.schedules[0], instance_.Trip(0)).ok());
  sol.assignment[0] = 0;
  const std::vector<RiderVehiclePair> pairs = {{1, 0}, {1, 1}};

  EvalCounters counters;
  SolverContext ctx = Context();
  ctx.counters = &counters;

  const uint64_t before = TransferSequence::CopyCount();
  const auto evals =
      EvaluateCandidates(instance_, &ctx, sol, pairs, /*need_utility=*/true);
  EXPECT_EQ(TransferSequence::CopyCount(), before)
      << "zero-copy path cloned a schedule";
  ASSERT_EQ(evals.size(), 2u);
  EXPECT_EQ(counters.kernel_evals.load(), 2u);

  // Reference: the brute-force plan, and Δμ as the schedule-utility
  // difference after applying the plan to a copy.
  for (size_t k = 0; k < pairs.size(); ++k) {
    const TransferSequence& seq =
        sol.schedules[static_cast<size_t>(pairs[k].vehicle)];
    const RiderTrip trip = instance_.Trip(pairs[k].rider);
    const auto brute = FindBestInsertionBruteForce(seq, trip);
    ASSERT_TRUE(brute.ok());
    ASSERT_TRUE(evals[k].feasible);
    EXPECT_EQ(evals[k].plan.pickup_pos, brute->pickup_pos);
    EXPECT_EQ(evals[k].plan.dropoff_pos, brute->dropoff_pos);
    EXPECT_NEAR(evals[k].delta_cost, brute->delta_cost, 1e-9);
    TransferSequence trial = seq;
    ASSERT_TRUE(ApplyInsertion(&trial, trip, evals[k].plan).ok());
    EXPECT_EQ(evals[k].delta_utility,
              model_->ScheduleUtility(pairs[k].vehicle, trial) -
                  model_->ScheduleUtility(pairs[k].vehicle, seq));
  }
}

TEST_F(EvalPathFixture, CacheHitsSkipTheKernelUntilTheScheduleChanges) {
  UrrSolution sol = MakeEmptySolution(instance_, oracle_.get());
  EvalCache cache;
  EvalCounters counters;
  SolverContext ctx = Context();
  ctx.eval_cache = &cache;
  ctx.counters = &counters;

  const CandidateEval first =
      EvaluateCandidate(instance_, &ctx, sol, 0, 0, /*need_utility=*/true);
  EXPECT_TRUE(first.feasible);
  EXPECT_EQ(counters.cache_misses.load(), 1u);
  EXPECT_EQ(counters.cache_hits.load(), 0u);

  const CandidateEval second = EvaluateCandidate(instance_, &ctx, sol, 0, 0,
                                                 /*need_utility=*/true);
  EXPECT_EQ(counters.cache_hits.load(), 1u);
  EXPECT_EQ(counters.kernel_evals.load(), 1u);  // second solve never ran
  EXPECT_EQ(second.feasible, first.feasible);
  EXPECT_EQ(second.plan.pickup_pos, first.plan.pickup_pos);
  EXPECT_EQ(second.plan.dropoff_pos, first.plan.dropoff_pos);
  EXPECT_EQ(second.delta_cost, first.delta_cost);
  EXPECT_EQ(second.delta_utility, first.delta_utility);

  // Mutating the schedule bumps its version; the stale entry must miss.
  ASSERT_TRUE(ArrangeSingleRider(&sol.schedules[0], instance_.Trip(1)).ok());
  sol.assignment[1] = 0;
  EvaluateCandidate(instance_, &ctx, sol, 0, 0, true);
  EXPECT_EQ(counters.cache_misses.load(), 2u);
  EXPECT_EQ(counters.kernel_evals.load(), 2u);
}

// ---------------------------------------------------------------------------
// 4: version stamping — exactly the observable mutations bump it.
// ---------------------------------------------------------------------------

TEST_F(EvalPathFixture, VersionStampsObservableMutationsOnly) {
  TransferSequence a(0, 0, 2, oracle_.get());
  TransferSequence b(0, 0, 2, oracle_.get());
  // Process-unique: identically-constructed sequences never share a version.
  EXPECT_NE(a.version(), b.version());

  // Insertions bump.
  uint64_t v = a.version();
  ASSERT_TRUE(ArrangeSingleRider(&a, instance_.Trip(0)).ok());
  EXPECT_NE(a.version(), v);
  v = a.version();

  // Copies share the version (identical content)...
  const uint64_t copies = TransferSequence::CopyCount();
  TransferSequence clone = a;
  EXPECT_EQ(clone.version(), a.version());
  EXPECT_EQ(TransferSequence::CopyCount(), copies + 1);
  // ...and diverge once either side mutates.
  ASSERT_TRUE(clone.RemoveRider(0).ok());
  EXPECT_NE(clone.version(), a.version());

  // AdvanceTo that changes nothing observable keeps the version.
  ASSERT_TRUE(a.AdvanceTo(a.now()).empty());
  EXPECT_EQ(a.version(), v);
  // AdvanceTo that executes stops bumps it.
  ASSERT_FALSE(a.AdvanceTo(a.EndTime() + 1).empty());
  EXPECT_NE(a.version(), v);
  v = a.version();
  // Now idle: advancing time moves `now`, which is observable.
  a.AdvanceTo(a.now() + 50);
  EXPECT_NE(a.version(), v);
}

// ---------------------------------------------------------------------------
// 5: EvalCache lookup/store semantics.
// ---------------------------------------------------------------------------

TEST(EvalCacheTest, LookupRespectsVersionAndUtilityKind) {
  EvalCache cache;
  CandidateEval eval;
  eval.feasible = true;
  eval.plan = {1, 2, 42.0};
  eval.delta_cost = 42.0;
  eval.delta_utility = 0.5;

  CandidateEval out;
  EXPECT_FALSE(cache.Lookup(3, 7, 100, true, &out));  // empty cache

  cache.Store(3, 7, 100, /*has_utility=*/true, eval);
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_TRUE(cache.Lookup(3, 7, 100, /*need_utility=*/true, &out));
  EXPECT_EQ(out.delta_utility, 0.5);
  EXPECT_EQ(out.delta_cost, 42.0);
  EXPECT_EQ(out.plan.pickup_pos, 1);
  // A utility-bearing entry serves cost-only requests with Δμ zeroed,
  // exactly like a fresh need_utility=false evaluation.
  ASSERT_TRUE(cache.Lookup(3, 7, 100, /*need_utility=*/false, &out));
  EXPECT_EQ(out.delta_utility, 0.0);
  EXPECT_EQ(out.delta_cost, 42.0);

  // Stale version: miss. Distinct pair: miss.
  EXPECT_FALSE(cache.Lookup(3, 7, 101, true, &out));
  EXPECT_FALSE(cache.Lookup(3, 8, 100, true, &out));

  // Same-version cost-only store must not downgrade the utility entry.
  CandidateEval cost_only = eval;
  cost_only.delta_utility = 0;
  cache.Store(3, 7, 100, /*has_utility=*/false, cost_only);
  ASSERT_TRUE(cache.Lookup(3, 7, 100, /*need_utility=*/true, &out));
  EXPECT_EQ(out.delta_utility, 0.5);

  // A cost-only entry never serves a utility request.
  cache.Store(9, 1, 50, /*has_utility=*/false, cost_only);
  EXPECT_FALSE(cache.Lookup(9, 1, 50, /*need_utility=*/true, &out));
  ASSERT_TRUE(cache.Lookup(9, 1, 50, /*need_utility=*/false, &out));

  // A newer version replaces the entry outright.
  cache.Store(3, 7, 200, /*has_utility=*/false, cost_only);
  EXPECT_FALSE(cache.Lookup(3, 7, 100, false, &out));
  EXPECT_TRUE(cache.Lookup(3, 7, 200, false, &out));

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(3, 7, 200, false, &out));
}

}  // namespace
}  // namespace urr
