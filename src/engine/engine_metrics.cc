#include "engine/engine_metrics.h"

#include <algorithm>
#include <cmath>

#include "common/json_writer.h"

namespace urr {

const char* EngineRejectName(EngineReject reject) {
  switch (reject) {
    case EngineReject::kNone: return "none";
    case EngineReject::kNoReachableVehicle: return "no_reachable_vehicle";
    case EngineReject::kCapacity: return "capacity";
    case EngineReject::kDeadline: return "deadline";
    case EngineReject::kQueueFull: return "queue_full";
  }
  return "unknown";
}

void RejectCounts::Bump(EngineReject reject) {
  switch (reject) {
    case EngineReject::kNone: break;
    case EngineReject::kNoReachableVehicle: ++no_reachable_vehicle; break;
    case EngineReject::kCapacity: ++capacity; break;
    case EngineReject::kDeadline: ++deadline; break;
    case EngineReject::kQueueFull: ++queue_full; break;
  }
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size());
  size_t idx = static_cast<size_t>(std::ceil(rank));
  if (idx > 0) --idx;
  if (idx >= values.size()) idx = values.size() - 1;
  return values[idx];
}

std::string EngineMetricsJson(const EngineMetrics& m, bool include_windows) {
  JsonWriter w;
  // Percentiles over an empty sample are JSON null (no data), not 0.
  const auto percentile_field = [&w](std::string_view name,
                                     const std::vector<double>& values,
                                     double p) {
    if (values.empty()) {
      w.FieldNull(name);
    } else {
      w.Field(name, Percentile(values, p));
    }
  };
  w.BeginObject()
      .Field("total_arrivals", m.total_arrivals)
      .Field("total_accepted", m.total_accepted)
      .Field("total_rejected", m.total_rejected);
  w.Key("rejects_by_reason")
      .BeginObject()
      .Field("no_reachable_vehicle", m.rejects.no_reachable_vehicle)
      .Field("capacity", m.rejects.capacity)
      .Field("deadline", m.rejects.deadline)
      .Field("queue_full", m.rejects.queue_full)
      .EndObject();
  w.Field("total_expired", m.total_expired)
      .Field("total_cancelled", m.total_cancelled)
      .Field("total_picked_up", m.total_picked_up)
      .Field("total_dropped_off", m.total_dropped_off)
      .Field("booked_utility", m.booked_utility)
      .Field("driven_cost", m.driven_cost)
      .Field("total_breakdowns", m.total_breakdowns)
      .Field("total_no_shows", m.total_no_shows)
      .Field("total_edge_disruptions", m.total_edge_disruptions)
      .Field("total_edge_restores", m.total_edge_restores)
      .Field("total_redispatched", m.total_redispatched)
      .Field("total_abandoned", m.total_abandoned)
      .Field("total_deadline_relaxed", m.total_deadline_relaxed)
      .Field("overlay_queries", m.overlay_queries)
      .Field("overlay_euclid_screened", m.overlay_euclid_screened)
      .Field("overlay_fallbacks", m.overlay_fallbacks)
      .Field("overlay_epoch", static_cast<int64_t>(m.overlay_epoch))
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
  w.Field("num_windows", static_cast<int>(m.windows.size()));
  percentile_field("pickup_wait_p50", m.pickup_waits, 50);
  percentile_field("pickup_wait_p95", m.pickup_waits, 95);
  percentile_field("pickup_wait_p99", m.pickup_waits, 99);
  percentile_field("solve_latency_p50", m.solve_latencies, 50);
  percentile_field("solve_latency_p95", m.solve_latencies, 95);
  percentile_field("solve_latency_p99", m.solve_latencies, 99);
  percentile_field("retrieval_latency_p50", m.retrieval_latencies, 50);
  percentile_field("retrieval_latency_p95", m.retrieval_latencies, 95);
  percentile_field("retrieval_latency_p99", m.retrieval_latencies, 99);
  if (include_windows) {
    w.Key("windows").BeginArray();
    for (const WindowMetrics& win : m.windows) {
      w.BeginObject()
          .Field("start", win.window_start)
          .Field("end", win.window_end)
          .Field("arrivals", win.arrivals)
          .Field("queue_depth", win.queue_depth)
          .Field("accepted", win.accepted)
          .Field("expired", win.expired)
          .Field("cancelled", win.cancelled)
          .Field("booked_utility", win.booked_utility)
          .Field("driven_cost", win.driven_cost)
          .Field("solve_seconds", win.solve_seconds)
          .Field("retrieval_seconds", win.retrieval_seconds)
          .Field("retrieval_candidates", win.retrieval_candidates)
          .Field("fleet_utilization", win.fleet_utilization)
          .EndObject();
    }
    w.EndArray();
  }
  w.EndObject();
  return w.str();
}

}  // namespace urr
