#include "urr/online.h"

namespace urr {

OnlineDispatcher::OnlineDispatcher(const UrrInstance* instance,
                                   SolverContext* ctx,
                                   OnlineObjective objective)
    : instance_(instance),
      ctx_(ctx),
      objective_(objective),
      solution_(MakeEmptySolution(*instance, ctx->oracle)) {}

const char* RejectReasonName(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone: return "none";
    case RejectReason::kNoReachableVehicle: return "no_reachable_vehicle";
    case RejectReason::kCapacity: return "capacity";
    case RejectReason::kDeadline: return "deadline";
  }
  return "unknown";
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
  bool any_capacity_blocked = false;
  for (int j : valid) {
    const CandidateEval eval =
        EvaluateCandidate(instance, ctx, sol, rider, j, need_utility);
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

DispatchDecision OnlineDispatcher::Dispatch(RiderId rider) {
  DispatchDecision best =
      EvaluateArrival(*instance_, ctx_, solution_, rider, objective_);
  if (best.accepted) {
    TransferSequence& seq = solution_.schedules[static_cast<size_t>(best.vehicle)];
    // Re-derive the plan on the live schedule (it may have changed since the
    // eval if callers interleave; within Dispatch it has not, so this is the
    // same plan) and commit.
    const Status applied =
        ApplyInsertion(&seq, instance_->Trip(rider), best.plan);
    if (!applied.ok()) {
      best = DispatchDecision{};
      best.reason = RejectReason::kDeadline;
      ++rejected_;
      return best;
    }
    solution_.assignment[static_cast<size_t>(rider)] = best.vehicle;
    ++accepted_;
  } else {
    ++rejected_;
  }
  return best;
}

const UrrSolution& OnlineDispatcher::DispatchAll(
    const std::vector<RiderId>& arrival_order) {
  for (RiderId rider : arrival_order) {
    if (solution_.assignment[static_cast<size_t>(rider)] < 0) {
      Dispatch(rider);
    }
  }
  return solution_;
}

}  // namespace urr
