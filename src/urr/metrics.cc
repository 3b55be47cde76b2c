#include "urr/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/json_writer.h"
#include "routing/distance_oracle.h"
#include "urr/eval_cache.h"
#include "urr/online.h"

namespace urr {

SolutionMetrics ComputeMetrics(const UrrInstance& instance,
                               const UtilityModel& model,
                               const UrrSolution& solution) {
  SolutionMetrics m;
  m.riders_total = instance.num_riders();
  m.riders_served = solution.NumAssigned();
  m.service_rate = m.riders_total == 0
                       ? 0.0
                       : static_cast<double>(m.riders_served) / m.riders_total;
  m.total_utility = solution.TotalUtility(model);
  m.mean_utility_served =
      m.riders_served == 0 ? 0.0 : m.total_utility / m.riders_served;
  m.total_travel_cost = solution.TotalCost();

  double sigma_sum = 0;
  int sigma_count = 0;
  int shared = 0;
  double onboard_cost_weighted = 0;
  Cost cost_sum = 0;
  for (size_t j = 0; j < solution.schedules.size(); ++j) {
    const TransferSequence& seq = solution.schedules[j];
    if (!seq.empty()) ++m.active_vehicles;
    for (int u = 0; u < seq.num_stops(); ++u) {
      m.max_onboard = std::max(m.max_onboard, seq.Onboard(u));
      onboard_cost_weighted += seq.Onboard(u) * seq.leg_cost(u);
      cost_sum += seq.leg_cost(u);
    }
    for (RiderId i : seq.Riders()) {
      const auto [p, q] = seq.RiderStops(i);
      Cost onboard_cost = 0;
      bool had_co_rider = false;
      for (int u = p + 1; u <= q; ++u) {
        onboard_cost += seq.leg_cost(u);
        if (seq.Onboard(u) > 1) had_co_rider = true;
      }
      const Rider& r = instance.riders[static_cast<size_t>(i)];
      const Cost direct = seq.oracle()->Distance(r.source, r.destination);
      if (direct > 0) {
        sigma_sum += onboard_cost / direct;
        ++sigma_count;
      }
      if (had_co_rider) ++shared;
    }
  }
  m.mean_detour_sigma = sigma_count == 0 ? 1.0 : sigma_sum / sigma_count;
  m.shared_rider_fraction =
      m.riders_served == 0 ? 0.0
                           : static_cast<double>(shared) / m.riders_served;
  m.mean_onboard = cost_sum == 0 ? 0.0 : onboard_cost_weighted / cost_sum;
  m.mean_riders_per_active_vehicle =
      m.active_vehicles == 0
          ? 0.0
          : static_cast<double>(m.riders_served) / m.active_vehicles;
  return m;
}

void AttachEvalStats(const SolverContext& ctx, SolutionMetrics* metrics) {
  if (ctx.counters != nullptr) {
    metrics->eval_cache_hits = ctx.counters->cache_hits.load();
    metrics->eval_cache_misses = ctx.counters->cache_misses.load();
    metrics->screened_pairs = ctx.counters->screened_pairs.load();
    metrics->elided_queries = ctx.counters->elided_queries.load();
    metrics->kernel_evals = ctx.counters->kernel_evals.load();
  }
  if (const RetrievalStats* rs = ctx.retrieval_stats; rs != nullptr) {
    metrics->retrieval_riders = rs->riders.load();
    metrics->retrieval_candidates = rs->candidates.load();
    metrics->retrieval_seconds = rs->retrieval_nanos.load() * 1e-9;
    rs->SummarizeCandidates(&metrics->retrieval_mean_candidates,
                            &metrics->retrieval_p99_candidates);
  }
}

void AttachRejectionReasons(const UrrInstance& instance, SolverContext* ctx,
                            const UrrSolution& solution,
                            SolutionMetrics* metrics) {
  metrics->unserved = RejectCounts();
  metrics->unserved_feasible = 0;
  // The re-evaluation below replays retrieval per unserved rider; detach
  // the retrieval counters so diagnostics don't pollute the solve's stats.
  RetrievalStats* saved_stats = ctx->retrieval_stats;
  ctx->retrieval_stats = nullptr;
  for (RiderId i = 0; i < instance.num_riders(); ++i) {
    if (solution.assignment[static_cast<size_t>(i)] >= 0) continue;
    const DispatchDecision d = EvaluateArrival(instance, ctx, solution, i,
                                               OnlineObjective::kUtilityGain);
    if (d.accepted) {
      ++metrics->unserved_feasible;
    } else {
      metrics->unserved.Bump(d.reason);
    }
  }
  ctx->retrieval_stats = saved_stats;
}

std::string FormatMetrics(const SolutionMetrics& m) {
  std::ostringstream out;
  out << "riders served: " << m.riders_served << "/" << m.riders_total << " ("
      << static_cast<int>(m.service_rate * 100) << "%)\n"
      << "overall utility: " << m.total_utility
      << " (mean per served rider: " << m.mean_utility_served << ")\n"
      << "total travel cost: " << m.total_travel_cost << " s\n"
      << "mean detour sigma (Eq. 4): " << m.mean_detour_sigma << "\n"
      << "riders sharing a leg: "
      << static_cast<int>(m.shared_rider_fraction * 100) << "%\n"
      << "occupancy: mean " << m.mean_onboard << ", max " << m.max_onboard
      << "\n"
      << "active vehicles: " << m.active_vehicles << " ("
      << m.mean_riders_per_active_vehicle << " riders each)\n";
  return out.str();
}

std::string MetricsJson(const SolutionMetrics& m) {
  JsonWriter w;
  w.BeginObject()
      .Field("riders_total", m.riders_total)
      .Field("riders_served", m.riders_served)
      .Field("service_rate", m.service_rate)
      .Field("total_utility", m.total_utility)
      .Field("mean_utility_served", m.mean_utility_served)
      .Field("total_travel_cost", m.total_travel_cost)
      .Field("mean_detour_sigma", m.mean_detour_sigma)
      .Field("shared_rider_fraction", m.shared_rider_fraction)
      .Field("mean_onboard", m.mean_onboard)
      .Field("max_onboard", m.max_onboard)
      .Field("active_vehicles", m.active_vehicles)
      .Field("mean_riders_per_active_vehicle", m.mean_riders_per_active_vehicle)
      .Field("eval_cache_hits", m.eval_cache_hits)
      .Field("eval_cache_misses", m.eval_cache_misses)
      .Field("screened_pairs", m.screened_pairs)
      .Field("elided_queries", m.elided_queries)
      .Field("kernel_evals", m.kernel_evals);
  w.Key("retrieval")
      .BeginObject()
      .Field("riders", m.retrieval_riders)
      .Field("candidates", m.retrieval_candidates)
      .Field("seconds", m.retrieval_seconds)
      .Field("mean_candidates", m.retrieval_mean_candidates)
      .Field("p99_candidates", m.retrieval_p99_candidates)
      .EndObject();
  w.Key("rejects_by_reason")
      .BeginObject()
      .Field("no_reachable_vehicle", m.unserved.no_reachable_vehicle)
      .Field("capacity", m.unserved.capacity)
      .Field("deadline", m.unserved.deadline)
      .Field("feasible_unassigned", m.unserved_feasible)
      .EndObject();
  w.EndObject();
  return w.str();
}

double UpperBoundUtility(const UrrInstance& instance, const UtilityModel& model,
                         VehicleIndex* vehicle_index) {
  const UtilityParams& p = model.params();
  double bound = 0;
  for (RiderId i = 0; i < instance.num_riders(); ++i) {
    const std::vector<int> valid =
        ValidVehiclesForRider(instance, vehicle_index, i, nullptr);
    if (valid.empty()) continue;  // unreachable riders cannot contribute
    double best_mu_v = 0;
    for (int j : valid) {
      best_mu_v = std::max(best_mu_v, instance.VehicleUtility(i, j));
    }
    bound += p.alpha * best_mu_v + p.beta * 1.0 + (1.0 - p.alpha - p.beta);
  }
  return bound;
}

}  // namespace urr
