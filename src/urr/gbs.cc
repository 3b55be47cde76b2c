#include "urr/gbs.h"

#include <algorithm>

#include "common/stopwatch.h"
#include "cover/kspc.h"
#include "graph/pseudo_nodes.h"
#include "urr/bilateral.h"
#include "urr/cost_model.h"
#include "urr/greedy.h"

namespace urr {

namespace {

/// Solves one trip group with the configured base method.
void SolveGroup(const UrrInstance& instance, SolverContext* ctx,
                const std::vector<RiderId>& riders,
                const std::vector<int>& vehicles, GbsBase base,
                const GroupFilter* group_filter, UrrSolution* sol,
                const std::vector<bool>* removable) {
  if (riders.empty() || vehicles.empty()) return;
  switch (base) {
    case GbsBase::kEfficientGreedy:
      GreedyArrange(instance, ctx, riders, vehicles,
                    GreedyObjective::kUtilityEfficiency, sol, group_filter);
      break;
    case GbsBase::kBilateral:
      BilateralArrange(instance, ctx, riders, vehicles, sol, group_filter,
                       removable);
      break;
  }
}

}  // namespace

Result<GbsPreprocess> PrepareGbs(const UrrInstance& instance,
                                 SolverContext* ctx, const GbsOptions& options) {
  Stopwatch watch;
  GbsPreprocess pre;
  pre.d_max = options.d_max;
  // --- Split long edges (Eq. 10). ------------------------------------------
  URR_ASSIGN_OR_RETURN(pre.split,
                       SplitLongEdges(*instance.network, options.d_max));

  // --- Choose k (fixed or by the Sec-6.3 cost model). -----------------------
  pre.k = options.k;
  if (options.auto_k) {
    GbsCostModel model;
    model.s = static_cast<double>(pre.split.network.num_nodes());
    model.m = instance.num_riders();
    model.n = instance.num_vehicles();
    const std::vector<int> candidates = {2, 3, 4, 6, 8};
    pre.k = PickBestK(model, candidates, [&](int candidate_k) {
      KspcOptions opt;
      opt.k = candidate_k;
      Result<std::vector<NodeId>> cover =
          KShortestPathCover(pre.split.network, opt, ctx->rng);
      return cover.ok() ? static_cast<double>(cover->size())
                        : static_cast<double>(pre.split.network.num_nodes());
    });
  }

  // --- k-SPC cover + areas (Algorithm 4). -----------------------------------
  KspcOptions kspc;
  kspc.k = pre.k;
  URR_ASSIGN_OR_RETURN(std::vector<NodeId> cover,
                       KShortestPathCover(pre.split.network, kspc, ctx->rng));
  URR_ASSIGN_OR_RETURN(pre.areas, BuildAreas(pre.split.network, cover));
  pre.seconds = watch.ElapsedSeconds();
  return pre;
}

Status GbsArrange(const UrrInstance& instance, SolverContext* ctx,
                  const GbsOptions& options, const GbsPreprocess& pre,
                  const std::vector<RiderId>& riders, UrrSolution* sol_out,
                  GbsStats* stats, const std::vector<bool>* removable) {
  UrrSolution& sol = *sol_out;
  Stopwatch phase;
  // --- Classify trips (Algorithm 5, lines 1-6). -----------------------------
  // The per-rider direct distances are independent point-to-point queries;
  // fan them out over the pool (each worker on its own oracle) and keep the
  // grouping loop itself serial so group membership order is unchanged.
  const Cost short_threshold = pre.d_max * static_cast<Cost>(pre.k);
  const int64_t num_subset = static_cast<int64_t>(riders.size());
  std::vector<Cost> direct_cost(riders.size());
  ParallelFor(ctx->eval_pool(), num_subset, [&](int64_t k, int worker) {
    const Rider& r =
        instance.riders[static_cast<size_t>(riders[static_cast<size_t>(k)])];
    direct_cost[static_cast<size_t>(k)] =
        ctx->worker_oracle(worker)->Distance(r.source, r.destination);
  });
  std::vector<std::vector<RiderId>> groups(
      static_cast<size_t>(pre.areas.num_areas()));
  std::vector<RiderId> long_trips;  // g_0
  for (size_t k = 0; k < riders.size(); ++k) {
    const RiderId i = riders[k];
    const Rider& r = instance.riders[static_cast<size_t>(i)];
    const Cost direct = direct_cost[k];
    if (direct < short_threshold) {
      // Original nodes keep their ids in the split network.
      const int area = pre.areas.area_of_node[static_cast<size_t>(r.source)];
      if (area >= 0) {
        groups[static_cast<size_t>(area)].push_back(i);
        continue;
      }
    }
    long_trips.push_back(i);
  }

  const double classify_seconds = phase.ElapsedSeconds();

  std::vector<int> all_vehicles(instance.vehicles.size());
  for (size_t j = 0; j < all_vehicles.size(); ++j) {
    all_vehicles[j] = static_cast<int>(j);
  }

  // --- Long trips first (line 8): they shape the schedules most. ------------
  phase.Reset();
  SolveGroup(instance, ctx, long_trips, all_vehicles, options.base,
             /*group_filter=*/nullptr, &sol, removable);
  const double long_group_seconds = phase.ElapsedSeconds();
  double filter_seconds = 0;
  double group_solve_seconds = 0;

  // --- Short-trip groups, largest first (lines 7, 9-11). --------------------
  std::vector<int> group_order;
  for (int a = 0; a < pre.areas.num_areas(); ++a) {
    if (!groups[static_cast<size_t>(a)].empty()) group_order.push_back(a);
  }
  switch (options.group_order) {
    case GbsGroupOrder::kLargestFirst:
      std::sort(group_order.begin(), group_order.end(), [&](int a, int b) {
        return groups[static_cast<size_t>(a)].size() >
               groups[static_cast<size_t>(b)].size();
      });
      break;
    case GbsGroupOrder::kSmallestFirst:
      std::sort(group_order.begin(), group_order.end(), [&](int a, int b) {
        return groups[static_cast<size_t>(a)].size() <
               groups[static_cast<size_t>(b)].size();
      });
      break;
    case GbsGroupOrder::kRandom:
      ctx->rng->Shuffle(&group_order);
      break;
  }
  // Group-level parallelism (waves): consecutive groups in solve order are
  // batched while their candidate-vehicle sets stay pairwise disjoint, then
  // one wave is solved with one group per worker. Groups of a wave share no
  // vehicles and no riders, and the EG base consumes no shared Rng, so each
  // group computes exactly what it would have computed serially. Vehicle
  // locations never move during a solve, so the (serial) index filter below
  // is also order-independent.
  struct GroupTask {
    int area = -1;
    std::vector<int> vehicles;
    std::vector<Cost> dist_to_key;
  };
  const bool wave_parallel = options.parallel_groups &&
                             ctx->eval_pool() != nullptr &&
                             options.base == GbsBase::kEfficientGreedy &&
                             options.use_group_filter_bound;
  const size_t max_wave =
      wave_parallel
          ? std::max<size_t>(
                8, 4 * static_cast<size_t>(ctx->pool->num_threads()))
          : 1;  // bounds the dist_to_key memory held at once
  std::vector<GroupTask> wave;
  std::vector<char> wave_vehicle(instance.vehicles.size(), 0);
  int solved = 0;

  const auto flush_wave = [&]() {
    if (wave.empty()) return;
    phase.Reset();
    ParallelFor(
        ctx->eval_pool(), static_cast<int64_t>(wave.size()),
        [&](int64_t k, int worker) {
          GroupTask& task = wave[static_cast<size_t>(k)];
          // The group's schedules commit through this worker's private
          // oracle for the duration of the solve (identical distances, so
          // the derived fields stay exact); no other group of the wave
          // touches these vehicles.
          DistanceOracle* worker_oracle = ctx->worker_oracle(worker);
          for (int j : task.vehicles) {
            sol.schedules[static_cast<size_t>(j)].set_oracle(worker_oracle);
          }
          GroupFilter group_filter{&task.dist_to_key, short_threshold};
          SolveGroup(instance, ctx, groups[static_cast<size_t>(task.area)],
                     task.vehicles, options.base, &group_filter, &sol,
                     removable);
          for (int j : task.vehicles) {
            sol.schedules[static_cast<size_t>(j)].set_oracle(ctx->oracle);
          }
        });
    group_solve_seconds += phase.ElapsedSeconds();
    solved += static_cast<int>(wave.size());
    wave.clear();
    std::fill(wave_vehicle.begin(), wave_vehicle.end(), 0);
  };

  for (int a : group_order) {
    const std::vector<RiderId>& group = groups[static_cast<size_t>(a)];
    // Fast valid-vehicle filtering (Sec 6.2): a vehicle can serve the group
    // only if cost(l(c_j), u_x) - d_max*k < rt⁻_max - t̄.
    Cost rt_max = 0;
    for (RiderId i : group) {
      rt_max = std::max(rt_max,
                        instance.riders[static_cast<size_t>(i)].pickup_deadline);
    }
    // Map the (possibly pseudo) key vertex back to an original node.
    const NodeId key_split = pre.areas.key_vertex[static_cast<size_t>(a)];
    const NodeId key = pre.split.origin[static_cast<size_t>(key_split)];
    const Cost radius = (rt_max - instance.now) + short_threshold;
    phase.Reset();
    GroupTask task;
    task.area = a;
    task.dist_to_key.assign(instance.vehicles.size(), kInfiniteCost);
    for (const VehicleWithDistance& v :
         ctx->vehicle_index->VehiclesWithinCost(key, radius)) {
      task.vehicles.push_back(v.vehicle);
      task.dist_to_key[static_cast<size_t>(v.vehicle)] = v.distance;
    }
    filter_seconds += phase.ElapsedSeconds();
    if (wave_parallel) {
      bool conflict = wave.size() >= max_wave;
      for (size_t t = 0; !conflict && t < task.vehicles.size(); ++t) {
        conflict = wave_vehicle[static_cast<size_t>(task.vehicles[t])] != 0;
      }
      if (conflict) flush_wave();
      for (int j : task.vehicles) wave_vehicle[static_cast<size_t>(j)] = 1;
      wave.push_back(std::move(task));
      continue;
    }
    phase.Reset();
    GroupFilter group_filter{&task.dist_to_key, short_threshold};
    SolveGroup(instance, ctx, group, task.vehicles, options.base,
               options.use_group_filter_bound ? &group_filter : nullptr, &sol,
               removable);
    group_solve_seconds += phase.ElapsedSeconds();
    ++solved;
  }
  flush_wave();

  // Leftover pass: riders whose group-local attempt failed (their area's
  // vehicles filled up) get one global attempt. The paper's Algorithm 5
  // stops at the last group; this completion only re-uses the same base
  // primitive and is switchable for ablation.
  if (options.final_pass) {
    std::vector<RiderId> leftovers;
    for (RiderId i : riders) {
      if (sol.assignment[static_cast<size_t>(i)] < 0) leftovers.push_back(i);
    }
    SolveGroup(instance, ctx, leftovers, all_vehicles, options.base,
               /*group_filter=*/nullptr, &sol, removable);
  }

  if (stats != nullptr) {
    stats->num_areas = pre.areas.num_areas();
    stats->num_pseudo_nodes =
        pre.split.network.num_nodes() - pre.split.original_num_nodes;
    stats->num_long_trips = static_cast<int>(long_trips.size());
    stats->num_groups_solved = solved;
    stats->k_used = pre.k;
    stats->preprocess_seconds = pre.seconds;
    stats->classify_seconds = classify_seconds;
    stats->long_group_seconds = long_group_seconds;
    stats->filter_seconds = filter_seconds;
    stats->group_solve_seconds = group_solve_seconds;
  }
  return Status::OK();
}

Result<UrrSolution> SolveGbs(const UrrInstance& instance, SolverContext* ctx,
                             const GbsOptions& options, const GbsPreprocess& pre,
                             GbsStats* stats) {
  UrrSolution sol = MakeEmptySolution(instance, ctx->oracle);
  std::vector<RiderId> riders(static_cast<size_t>(instance.num_riders()));
  for (size_t i = 0; i < riders.size(); ++i) riders[i] = static_cast<RiderId>(i);
  URR_RETURN_NOT_OK(GbsArrange(instance, ctx, options, pre, riders, &sol,
                               stats, /*removable=*/nullptr));
  return sol;
}

Result<UrrSolution> SolveGbs(const UrrInstance& instance, SolverContext* ctx,
                             const GbsOptions& options, GbsStats* stats) {
  URR_ASSIGN_OR_RETURN(GbsPreprocess pre, PrepareGbs(instance, ctx, options));
  return SolveGbs(instance, ctx, options, pre, stats);
}

}  // namespace urr
