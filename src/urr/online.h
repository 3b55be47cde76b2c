// The per-arrival decision rule: a rider who must be answered immediately
// (the real-time setting of Sec 3 and the related-work systems [20, 25]) is
// assigned greedily to the vehicle that yields the best immediate objective
// under Algorithm 1, with no reordering of committed schedules and no
// reassignments. The streaming engine's W = 0 path commits these decisions
// (`urr_dispatch --approach online` drives it); the unserved-rider
// diagnostics in metrics.cc re-evaluate with it.
#ifndef URR_URR_ONLINE_H_
#define URR_URR_ONLINE_H_

#include "urr/solution.h"

namespace urr {

/// What the per-arrival decision optimizes.
enum class OnlineObjective {
  /// Highest schedule-utility increase (utility-aware, like EG's numerator).
  kUtilityGain,
  /// Lowest incremental travel cost (like the kinetic-tree systems [20]).
  kMinCostIncrease,
};

/// Why an arrival was turned down: EvaluateArrival's verdicts, plus the
/// streaming engine's admission-control overflow.
enum class RejectReason : uint8_t {
  kNone = 0,             // accepted
  kNoReachableVehicle,   // no vehicle can reach the pickup by its deadline
  kCapacity,             // reachable vehicles are full at every position
  kDeadline,             // insertions exist but all violate time windows
  kQueueFull,            // admission control: the engine's max_queue exceeded
};

/// Stable snake_case name ("queue_full", ...) used in JSON and responses.
const char* RejectReasonName(RejectReason reason);

/// Per-reason rejection counters (kNone is not counted).
struct RejectCounts {
  int no_reachable_vehicle = 0;
  int capacity = 0;
  int deadline = 0;
  int queue_full = 0;

  void Bump(RejectReason reason);
  int total() const {
    return no_reachable_vehicle + capacity + deadline + queue_full;
  }
};

/// Per-arrival outcome.
struct DispatchDecision {
  bool accepted = false;
  RejectReason reason = RejectReason::kNone;
  int vehicle = -1;
  InsertionPlan plan;
  double utility_gain = 0;
  Cost cost_increase = kInfiniteCost;
};

/// Evaluates rider `rider` against every valid vehicle of `sol` under
/// `objective` and returns the best feasible decision WITHOUT committing it
/// (first-best wins ties, in ascending-vehicle-id order — the canonical
/// order retrieval emits).
DispatchDecision EvaluateArrival(const UrrInstance& instance,
                                 SolverContext* ctx, const UrrSolution& sol,
                                 RiderId rider, OnlineObjective objective);

}  // namespace urr

#endif  // URR_URR_ONLINE_H_
