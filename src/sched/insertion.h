// ArrangeSingleRider (Sec 3.2, Algorithm 1): exact minimum-incremental-cost
// insertion of one rider into an existing transfer sequence without
// reordering it. Implements the Lemma-3.1 validity conditions, the
// Lemma-3.2 earliest-start pruning and the Δ-sorted early break.
//
// The kernel is zero-copy: it derives the trial schedule's Eq. 6-8 fields
// into reusable flat arrays from a read-only ScheduleView instead of
// cloning the schedule per pickup candidate, and optionally applies a
// Euclidean lower-bound screen that elides oracle queries whose outcome the
// bound already decides. FindBestInsertionBruteForce is its test referee.
#ifndef URR_SCHED_INSERTION_H_
#define URR_SCHED_INSERTION_H_

#include "common/result.h"
#include "sched/transfer_sequence.h"

namespace urr {

/// A rider's trip as the scheduler sees it.
struct RiderTrip {
  RiderId rider = -1;
  NodeId source = kInvalidNode;
  NodeId destination = kInvalidNode;
  Cost pickup_deadline = kInfiniteCost;   // rt⁻
  Cost dropoff_deadline = kInfiniteCost;  // rt⁺
};

/// Where to insert the rider's two stops and the incremental travel cost.
/// `pickup_pos` is the index the pickup stop will occupy; `dropoff_pos` is
/// the index the dropoff stop will occupy after the pickup is inserted
/// (so dropoff_pos > pickup_pos always).
struct InsertionPlan {
  int pickup_pos = -1;
  int dropoff_pos = -1;
  Cost delta_cost = kInfiniteCost;
};

/// Reusable per-worker workspace for the zero-copy kernel: flat SoA arrays
/// for the trial schedule's stop nodes, leg costs and Eq. 6-8
/// earliest/latest/flexible-time fields. Vectors keep their capacity across
/// calls, so a warmed-up scratch makes the kernel allocation-free. One
/// scratch must not be shared between concurrent callers.
struct InsertionScratch {
  /// Valid pickup position with its cached oracle distances: `to_s` is
  /// dist(origin(pos), source); `next_dist` is dist(source, old stop at
  /// pos) for non-append positions (unused when pos == w).
  struct Pickup {
    int pos;
    Cost delta;
    Cost to_s;
    Cost next_dist;
  };
  std::vector<Pickup> pickups;

  // Trial-schedule derived fields, indexed by trial stop index. Only the
  // suffix [pickup_pos, w] is materialized per candidate — the prefix is
  // shared with the base schedule and read through the view.
  std::vector<Cost> arrival;
  std::vector<Cost> latest;
  std::vector<Cost> flex;

  // Double-insert trial arrays (pickup + dropoff applied): used by
  // solution.cc to build a ScheduleView of the committed-shape trial for
  // utility evaluation without cloning the schedule.
  std::vector<Stop> trial_stops;
  std::vector<Cost> trial_legs;
  std::vector<int> trial_onboard;
  std::vector<Cost> trial_arrival;
  std::vector<Cost> trial_latest;
  std::vector<Cost> trial_flex;

  // Monotone counters, diffed by callers around a kernel invocation.
  uint64_t elided_queries = 0;   // oracle queries skipped by screening
  uint64_t screened_pairs = 0;   // infeasible verdicts with zero queries
  uint64_t oracle_queries = 0;   // exact queries the kernel issued
};

/// Optimistic Euclidean lower bound on network distance: straight-line
/// length divided by the network's maximum speed never exceeds the
/// shortest-path travel cost. Disabled (never screens) without coordinates
/// or a positive speed. Generalizes the ValidVehiclesForRider prefilter
/// down into the insertion kernel's inner loops.
struct InsertionScreen {
  const RoadNetwork* network = nullptr;
  double speed = 0;

  bool enabled() const {
    return network != nullptr && speed > 0 && network->has_coords();
  }
  Cost LowerBound(NodeId a, NodeId b) const {
    return EuclideanDistance(network->coord(a), network->coord(b)) / speed;
  }
};

/// Finds the minimum-Δcost valid insertion of `trip` into `seq`
/// (Algorithm 1). Returns Infeasible when no valid pair of positions exists.
/// O(w²) worst case; the Lemma-3.2 break and Δ-sorted early exit prune most
/// candidates in practice. Pickup positions below seq.commit_floor() (an
/// in-flight leg) are never considered. When `capacity_blocked` is non-null
/// it is set to true iff some position failed only on the capacity
/// condition — a diagnostic for rejection reporting.
/// This entry point runs the zero-copy kernel on a thread-local scratch.
Result<InsertionPlan> FindBestInsertion(const TransferSequence& seq,
                                        const RiderTrip& trip,
                                        bool* capacity_blocked = nullptr);

/// The zero-copy kernel. `seq` is a read-only view whose `oracle` field
/// answers leg-cost queries (point it at a worker's private clone instead
/// of copying the schedule). `screen`, when non-null and enabled, elides
/// oracle queries that a Euclidean lower bound already proves futile —
/// the returned plan and `capacity_blocked` are unchanged by screening.
Result<InsertionPlan> FindBestInsertionScratch(const ScheduleView& seq,
                                               const RiderTrip& trip,
                                               bool* capacity_blocked,
                                               const InsertionScreen* screen,
                                               InsertionScratch* scratch);

/// Materializes `plan` (as returned by FindBestInsertion) into `seq`.
Status ApplyInsertion(TransferSequence* seq, const RiderTrip& trip,
                      const InsertionPlan& plan);

/// Find + apply in one call; returns the applied plan.
Result<InsertionPlan> ArrangeSingleRider(TransferSequence* seq,
                                         const RiderTrip& trip);

/// Reference implementation for tests: tries every (pickup, dropoff)
/// position pair, validates the resulting schedule with
/// TransferSequence::Validate(), and returns the cheapest. O(w³) + oracle.
Result<InsertionPlan> FindBestInsertionBruteForce(const TransferSequence& seq,
                                                  const RiderTrip& trip);

/// Fills `scratch`'s trial_* arrays with the schedule that results from
/// applying `plan` to `seq` — stops, leg costs and all derived fields,
/// recomputed with exactly TransferSequence::Rebuild's recurrences — and
/// returns a ScheduleView over them. Only the four legs changed by the two
/// insertions are re-queried from the oracle; unchanged legs are copied
/// from the base view. The view borrows `scratch` and stays valid until the
/// next call on the same scratch.
ScheduleView BuildTrialView(const ScheduleView& seq, const RiderTrip& trip,
                            const InsertionPlan& plan,
                            InsertionScratch* scratch);

}  // namespace urr

#endif  // URR_SCHED_INSERTION_H_
