// Online dispatch: riders arrive one by one and must be answered
// immediately (the real-time setting of Sec 3 and the related-work systems
// [20, 25]). Each arrival is assigned greedily to the vehicle that yields
// the best immediate objective using Algorithm 1, with no reordering of
// committed schedules and no reassignments. This is the natural streaming
// counterpart of the paper's batch algorithms and the baseline its
// batch-vs-online discussion implies.
#ifndef URR_URR_ONLINE_H_
#define URR_URR_ONLINE_H_

#include "urr/solution.h"

namespace urr {

/// What the online dispatcher optimizes per arrival.
enum class OnlineObjective {
  /// Highest schedule-utility increase (utility-aware, like EG's numerator).
  kUtilityGain,
  /// Lowest incremental travel cost (like the kinetic-tree systems [20]).
  kMinCostIncrease,
};

/// Why an arrival was turned down.
enum class RejectReason : uint8_t {
  kNone = 0,             // accepted
  kNoReachableVehicle,   // no vehicle can reach the pickup by its deadline
  kCapacity,             // reachable vehicles are full at every position
  kDeadline,             // insertions exist but all violate time windows
};

/// Human-readable name for logs and reports.
const char* RejectReasonName(RejectReason reason);

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
/// order retrieval emits). Shared by OnlineDispatcher and the
/// streaming engine's W=0 path so both make identical choices.
DispatchDecision EvaluateArrival(const UrrInstance& instance,
                                 SolverContext* ctx, const UrrSolution& sol,
                                 RiderId rider, OnlineObjective objective);

/// Streaming dispatcher over one instance. Vehicles' schedules grow
/// monotonically; committed riders are never moved (the non-reordering
/// regime the paper adopts from [25]).
class OnlineDispatcher {
 public:
  /// Borrows everything; the context's members must outlive the dispatcher.
  OnlineDispatcher(const UrrInstance* instance, SolverContext* ctx,
                   OnlineObjective objective);

  /// Handles one rider arrival: evaluates the valid vehicles, commits the
  /// best feasible insertion (if any) and returns the decision.
  DispatchDecision Dispatch(RiderId rider);

  /// Dispatches riders in the given arrival order; returns the final
  /// solution (also available via `solution()`).
  const UrrSolution& DispatchAll(const std::vector<RiderId>& arrival_order);

  const UrrSolution& solution() const { return solution_; }
  int num_accepted() const { return accepted_; }
  int num_rejected() const { return rejected_; }

 private:
  const UrrInstance* instance_;
  SolverContext* ctx_;
  OnlineObjective objective_;
  UrrSolution solution_;
  int accepted_ = 0;
  int rejected_ = 0;
};

}  // namespace urr

#endif  // URR_URR_ONLINE_H_
