#include "urr/online.h"

namespace urr {

const char* RejectReasonName(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone: return "none";
    case RejectReason::kNoReachableVehicle: return "no_reachable_vehicle";
    case RejectReason::kCapacity: return "capacity";
    case RejectReason::kDeadline: return "deadline";
    case RejectReason::kQueueFull: return "queue_full";
  }
  return "unknown";
}

void RejectCounts::Bump(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone: break;
    case RejectReason::kNoReachableVehicle: ++no_reachable_vehicle; break;
    case RejectReason::kCapacity: ++capacity; break;
    case RejectReason::kDeadline: ++deadline; break;
    case RejectReason::kQueueFull: ++queue_full; break;
  }
}

DispatchDecision EvaluateArrival(const UrrInstance& instance,
                                 SolverContext* ctx, const UrrSolution& sol,
                                 RiderId rider, OnlineObjective objective) {
  DispatchDecision best;
  const bool need_utility = objective == OnlineObjective::kUtilityGain;
  const std::vector<int> valid =
      CandidateVehiclesForRider(instance, ctx, rider, nullptr);
  if (valid.empty()) {
    best.reason = RejectReason::kNoReachableVehicle;
    return best;
  }
  // Score every candidate in one fan-out, then reduce in candidate order so
  // the decision is the serial loop's for any pool size.
  std::vector<RiderVehiclePair> pairs;
  pairs.reserve(valid.size());
  for (int j : valid) pairs.push_back({rider, j});
  const std::vector<CandidateEval> evals =
      EvaluateCandidates(instance, ctx, sol, pairs, need_utility);
  bool any_capacity_blocked = false;
  for (size_t k = 0; k < valid.size(); ++k) {
    const int j = valid[k];
    const CandidateEval& eval = evals[k];
    if (!eval.feasible) {
      any_capacity_blocked |= eval.capacity_blocked;
      continue;
    }
    bool better;
    if (!best.accepted) {
      better = true;
    } else if (objective == OnlineObjective::kUtilityGain) {
      better = eval.delta_utility > best.utility_gain;
    } else {
      better = eval.delta_cost < best.cost_increase;
    }
    if (better) {
      best.accepted = true;
      best.vehicle = j;
      best.plan = eval.plan;
      best.utility_gain = eval.delta_utility;
      best.cost_increase = eval.delta_cost;
    }
  }
  if (!best.accepted) {
    best.reason = any_capacity_blocked ? RejectReason::kCapacity
                                       : RejectReason::kDeadline;
  }
  return best;
}

}  // namespace urr
