// Load-test observability for the streaming engine: per-window counters and
// run-level latency percentiles. Wall-clock solve latencies feed ONLY these
// metrics, never the event log — the log stays byte-identical across runs
// and thread counts while the metrics describe the machine they ran on.
#ifndef URR_ENGINE_ENGINE_METRICS_H_
#define URR_ENGINE_ENGINE_METRICS_H_

#include <string>
#include <vector>

#include "sched/transfer_sequence.h"
#include "urr/online.h"

namespace urr {

/// One micro-batch window's outcome.
struct WindowMetrics {
  Cost window_start = 0;
  Cost window_end = 0;
  int arrivals = 0;           // arrivals landing inside the window
  int queue_depth = 0;        // queued riders when the solve started
  int accepted = 0;
  int expired = 0;
  int cancelled = 0;
  double booked_utility = 0;  // utility committed by this window's solve
  double driven_cost = 0;     // cost driven along committed legs this window
  double solve_seconds = 0;   // wall clock (metrics only)
  /// Wall clock spent in candidate retrieval inside this window's solve
  /// (subset of solve_seconds; metrics only) and the candidates returned.
  double retrieval_seconds = 0;
  int retrieval_candidates = 0;
  double fleet_utilization = 0;  // busy vehicles / fleet size at window end
};

/// Whole-run aggregates.
struct EngineMetrics {
  int total_arrivals = 0;
  int total_accepted = 0;
  int total_rejected = 0;   // admission overflow + infeasible
  RejectCounts rejects;     // the same rejections, split by reason
  int total_expired = 0;
  int total_cancelled = 0;
  int total_picked_up = 0;
  int total_dropped_off = 0;
  double booked_utility = 0;  // Σ committed utility, net of cancellations
  double driven_cost = 0;     // total cost driven (incl. the final drain)
  /// Fault-injection outcomes (all 0 in a fault-free run).
  int total_breakdowns = 0;
  int total_no_shows = 0;
  int total_edge_disruptions = 0;
  int total_edge_restores = 0;
  int total_redispatched = 0;   // re-queue events after a disruption
  int total_abandoned = 0;      // riders whose retries/slack ran out
  int total_deadline_relaxed = 0;  // onboard dropoffs forgiven after faults
  /// Disruption-overlay routing counters (see OverlayStats): queries served
  /// while a disruption was active, and how many fell back to exact
  /// Dijkstra on the perturbed graph.
  int64_t overlay_queries = 0;
  int64_t overlay_euclid_screened = 0;
  int64_t overlay_fallbacks = 0;
  uint64_t overlay_epoch = 0;   // final routing epoch (mutation count)
  /// Evaluation-path counters: cross-window eval cache, bound screening and
  /// the exact insertion kernel. Deterministic (same workload + config ⇒
  /// same values at any thread count).
  int64_t eval_cache_hits = 0;
  int64_t eval_cache_misses = 0;
  int64_t screened_pairs = 0;   // (i,j) pairs rejected by the Euclidean bound
  int64_t elided_queries = 0;   // oracle queries the bound made unnecessary
  int64_t kernel_evals = 0;     // exact FindBestInsertion kernel runs
  /// Always 0: there is no distance cache. Kept only because the benchmark
  /// harness (perfbench/) reads them; they go with its next change.
  int64_t oracle_hits = 0;
  int64_t oracle_misses = 0;
  /// Candidate-retrieval counters (see RetrievalStats).
  int64_t retrieval_riders = 0;        // retrieval queries answered
  int64_t retrieval_candidates = 0;    // candidates returned in total
  double retrieval_seconds = 0;        // total wall time in retrieval
  double retrieval_mean_candidates = 0;  // mean |C_i| per query
  double retrieval_p99_candidates = 0;   // p99 |C_i| per query
  std::vector<WindowMetrics> windows;
  /// Per picked-up rider: pickup time − arrival time (simulated clock).
  std::vector<double> pickup_waits;
  /// Per window: wall-clock solve seconds.
  std::vector<double> solve_latencies;
  /// Per window: wall-clock retrieval seconds (subset of solve_latencies).
  std::vector<double> retrieval_latencies;
};

/// Nearest-rank percentile (p in [0,100]) over a copy of `values`; 0 when
/// empty.
double Percentile(std::vector<double> values, double p);

/// One JSON object; `include_windows` adds the per-window array. Percentile
/// fields over an empty sample (no pickups / no solves recorded) are
/// emitted as JSON `null`, never a fabricated number, so consumers can
/// tell "no data" from "zero latency".
std::string EngineMetricsJson(const EngineMetrics& metrics,
                              bool include_windows);

}  // namespace urr

#endif  // URR_ENGINE_ENGINE_METRICS_H_
