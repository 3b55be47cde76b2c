// Solution analytics: the operational quantities behind the paper's
// narrative (detour ratios feeding μ_t, co-riding driving μ_r, occupancy
// behind the capacity experiments) plus an instance-level utility upper
// bound used to report optimality gaps for the heuristics.
#ifndef URR_URR_METRICS_H_
#define URR_URR_METRICS_H_

#include "urr/solution.h"

namespace urr {

/// Aggregated per-solution statistics.
struct SolutionMetrics {
  int riders_total = 0;
  int riders_served = 0;
  double service_rate = 0;          // served / total
  double total_utility = 0;         // the URR objective
  double mean_utility_served = 0;   // per served rider
  Cost total_travel_cost = 0;       // Σ cost(S_j)
  Cost mean_detour_sigma = 1;       // mean Eq.-4 ratio over served riders
  double shared_rider_fraction = 0; // served riders with >=1 co-rider leg
  double mean_onboard = 0;          // cost-weighted average occupancy
  int max_onboard = 0;
  int active_vehicles = 0;          // vehicles with at least one stop
  double mean_riders_per_active_vehicle = 0;

  /// Evaluation-path counters (filled by AttachEvalStats; 0 otherwise).
  int64_t eval_cache_hits = 0;
  int64_t eval_cache_misses = 0;
  int64_t screened_pairs = 0;   // pairs rejected by the Euclidean lower bound
  int64_t elided_queries = 0;   // oracle queries the bound made unnecessary
  int64_t kernel_evals = 0;     // exact insertion-kernel runs

  /// Candidate-retrieval counters (filled by AttachEvalStats when the
  /// context carries RetrievalStats; 0 otherwise).
  int64_t retrieval_riders = 0;        // retrieval queries answered
  int64_t retrieval_candidates = 0;    // candidates returned in total
  double retrieval_seconds = 0;        // wall time in retrieval
  double retrieval_mean_candidates = 0;   // mean |C_i| per query
  double retrieval_p99_candidates = 0;    // p99 |C_i| per query

  /// Why each unserved rider stays unserved, by re-evaluating them against
  /// the final schedules (filled by AttachRejectionReasons; 0 otherwise).
  /// `unserved_feasible` counts riders who WOULD fit now but lost the
  /// solver's utility competition — distinct from the three hard reasons.
  int unserved_no_reachable_vehicle = 0;
  int unserved_capacity = 0;
  int unserved_deadline = 0;
  int unserved_feasible = 0;
};

/// Computes the metrics for a (valid) solution.
SolutionMetrics ComputeMetrics(const UrrInstance& instance,
                               const UtilityModel& model,
                               const UrrSolution& solution);

/// Copies the context's eval-path counters (eval cache, bound screening,
/// kernel runs) and retrieval counters into `metrics`. Counters the context
/// does not carry stay 0.
void AttachEvalStats(const SolverContext& ctx, SolutionMetrics* metrics);

/// Classifies every unserved rider with the shared online decision helper
/// (EvaluateArrival against the final schedules) and fills the unserved_*
/// counters: no vehicle reachable in time, reachable but full, insertions
/// exist but all violate deadlines, or feasible-yet-unassigned (lost the
/// utility competition).
void AttachRejectionReasons(const UrrInstance& instance, SolverContext* ctx,
                            const UrrSolution& solution,
                            SolutionMetrics* metrics);

/// Renders the metrics as a short human-readable report.
std::string FormatMetrics(const SolutionMetrics& metrics);

/// Renders the metrics as one JSON object (%.17g doubles, so values
/// round-trip exactly). Consumed by urr_engine --json and bench_engine.
std::string MetricsJson(const SolutionMetrics& metrics);

/// An upper bound on the achievable overall utility: every rider served by
/// their best vehicle at zero detour with perfect co-rider similarity —
/// Σ_i (α·max_j μ_v(i,j) + β·1 + (1-α-β)·1), restricted to riders with at
/// least one vehicle able to reach them in time. No solution can exceed it,
/// so `utility / UpperBoundUtility` is a (loose) optimality lower bound.
double UpperBoundUtility(const UrrInstance& instance, const UtilityModel& model,
                         VehicleIndex* vehicle_index);

}  // namespace urr

#endif  // URR_URR_METRICS_H_
