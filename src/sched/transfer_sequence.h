// Transfer-event sequence (Sec 3.1): a vehicle's schedule as a list of
// pickup/dropoff stops with the derived per-leg fields of Fig. 4 — earliest
// start time (Eq. 6), latest completion time (Eq. 7) and flexible time
// (Eq. 8) — maintained incrementally so Lemma-3.1 validity checks are O(1).
#ifndef URR_SCHED_TRANSFER_SEQUENCE_H_
#define URR_SCHED_TRANSFER_SEQUENCE_H_

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "routing/distance_oracle.h"
#include "graph/road_network.h"

namespace urr {

/// Rider index within a URR instance.
using RiderId = int32_t;

/// Stop kind: a leg ends either at a rider's source or destination.
enum class StopType : uint8_t { kPickup, kDropoff };

/// One schedule stop (the end of one transfer event).
struct Stop {
  NodeId location = kInvalidNode;
  RiderId rider = -1;
  StopType type = StopType::kPickup;
  /// Deadline dl(l) to reach this location: the rider's rt⁻ for pickups,
  /// rt⁺ for dropoffs.
  Cost deadline = kInfiniteCost;
};

/// A stop the vehicle has completed, with its realized completion time.
/// `no_show` marks a pickup where the rider was absent (fault injection):
/// the vehicle arrived but nobody boarded, and the rider's dropoff was
/// excised from the remaining schedule.
struct ExecutedStop {
  Stop stop;
  Cost time = 0;
  bool no_show = false;
};

/// Read-only, zero-copy view of a schedule's flat arrays. The insertion
/// kernel and the utility model consume this instead of a TransferSequence
/// so that trial schedules can be represented as scratch arrays without
/// cloning the vehicle's schedule. All pointers borrow from the owner and
/// stay valid only while the owner is unmodified. `oracle` is the oracle
/// leg costs were computed with — callers evaluating on a worker thread
/// substitute that worker's clone here instead of copying the schedule.
struct ScheduleView {
  NodeId start = kInvalidNode;
  Cost now = 0;
  int capacity = 0;
  int commit_floor = 0;
  int num_stops = 0;
  const Stop* stops = nullptr;
  const Cost* leg_cost = nullptr;
  const Cost* arrival = nullptr;  // earliest arrival at stop u
  const Cost* latest = nullptr;   // latest completion of leg u (Eq. 7)
  const Cost* flex = nullptr;     // flexible time of leg u (Eq. 8)
  const int* onboard = nullptr;   // |R_u| during leg u
  const RiderId* initial_onboard = nullptr;
  int num_initial_onboard = 0;
  DistanceOracle* oracle = nullptr;

  const Stop& stop(int u) const { return stops[u]; }
  NodeId LegOrigin(int u) const {
    return u == 0 ? start : stops[u - 1].location;
  }
  Cost EarliestStart(int u) const { return u == 0 ? now : arrival[u - 1]; }
  Cost EarliestArrival(int u) const { return arrival[u]; }
  Cost LatestCompletion(int u) const { return latest[u]; }
  Cost FlexTime(int u) const { return flex[u]; }
  int Onboard(int u) const { return onboard[u]; }
  Cost EndTime() const { return num_stops == 0 ? now : arrival[num_stops - 1]; }
  int EndOnboard() const {
    int n = num_initial_onboard;
    for (int u = 0; u < num_stops; ++u) {
      n += (stops[u].type == StopType::kPickup) ? 1 : -1;
    }
    return n;
  }

  /// Rider ids onboard during leg u (the set R_u; O(w) scan).
  std::vector<RiderId> OnboardRiders(int u) const;
  /// Stop indices of `rider`'s pickup/dropoff; {-1, -1} when absent.
  std::pair<int, int> RiderStops(RiderId rider) const;
  /// Rider ids with a pickup in this schedule.
  std::vector<RiderId> Riders() const;
  /// Sum of all leg costs — the schedule's total travel cost cost(S_j).
  Cost TotalCost() const;
};

/// A vehicle's schedule: start location + stops, with derived leg fields.
/// Leg u (0-based) is the transfer event from stop u-1 (or the start
/// location for u = 0) to stop u. All mutations recompute the derived
/// fields; they are O(w) plus the oracle calls for changed legs.
class TransferSequence {
 public:
  /// Creates an empty schedule for a vehicle at `start`, time `now`, with
  /// rider `capacity`. The oracle is borrowed and must outlive the sequence.
  TransferSequence(NodeId start, Cost now, int capacity,
                   DistanceOracle* oracle);

  /// Copies are counted (see CopyCount) so tests can assert the evaluation
  /// hot path is copy-free; moves are free and uncounted, so container
  /// growth does not pollute the counter. A copy keeps the source's
  /// schedule version — the content is identical.
  TransferSequence(const TransferSequence& other);
  TransferSequence& operator=(const TransferSequence& other);
  TransferSequence(TransferSequence&&) noexcept = default;
  TransferSequence& operator=(TransferSequence&&) noexcept = default;

  // --- structure ---------------------------------------------------------
  int num_stops() const { return static_cast<int>(stops_.size()); }
  bool empty() const { return stops_.empty(); }
  const Stop& stop(int u) const { return stops_[static_cast<size_t>(u)]; }
  NodeId start_location() const { return start_; }
  Cost now() const { return now_; }
  int capacity() const { return capacity_; }

  /// Riders already in the vehicle at `start` (picked up before `now`).
  /// Their dropoff stop is in `stops_` but their pickup is not.
  const std::vector<RiderId>& initial_onboard() const {
    return initial_onboard_;
  }

  /// First stop position a pickup may be inserted at. 0 when the vehicle is
  /// parked at `start`; 1 when it is physically mid-leg towards stop 0 (the
  /// in-flight leg cannot be diverted).
  int commit_floor() const { return commit_floor_; }

  /// Location a leg departs from: start for u == 0, otherwise stop u-1.
  NodeId LegOrigin(int u) const {
    return u == 0 ? start_ : stops_[static_cast<size_t>(u) - 1].location;
  }

  // --- derived fields (valid for 0 <= u < num_stops()) --------------------
  /// Travel cost of leg u (shortest path, Sec 2.3).
  Cost leg_cost(int u) const { return leg_cost_[static_cast<size_t>(u)]; }
  /// Earliest start time t_u^- of leg u (Eq. 6): earliest time the vehicle
  /// can be at LegOrigin(u). For u = 0 this is `now`.
  Cost EarliestStart(int u) const {
    return u == 0 ? now_ : arrival_[static_cast<size_t>(u) - 1];
  }
  /// Earliest arrival at stop u.
  Cost EarliestArrival(int u) const { return arrival_[static_cast<size_t>(u)]; }
  /// Latest completion time t_u^+ of leg u (Eq. 7).
  Cost LatestCompletion(int u) const { return latest_[static_cast<size_t>(u)]; }
  /// Flexible time ft_u of leg u (Eq. 8).
  Cost FlexTime(int u) const { return flex_[static_cast<size_t>(u)]; }
  /// Number of riders in the vehicle during leg u (|R_u|).
  int Onboard(int u) const { return onboard_[static_cast<size_t>(u)]; }
  /// Earliest time the vehicle is idle after the last stop (== now when
  /// empty) — the earliest start of a hypothetical appended leg.
  Cost EndTime() const { return stops_.empty() ? now_ : arrival_.back(); }
  /// Riders onboard after the final stop (> 0 only for unmatched pickups).
  int EndOnboard() const;

  /// Rider ids onboard during leg u (the set R_u; O(w) scan).
  std::vector<RiderId> OnboardRiders(int u) const;

  /// Sum of all leg costs — the schedule's total travel cost cost(S_j).
  Cost TotalCost() const;

  /// Stop indices of `rider`'s pickup/dropoff; {-1, -1} when absent.
  std::pair<int, int> RiderStops(RiderId rider) const;

  /// Rider ids with a pickup in this schedule.
  std::vector<RiderId> Riders() const;

  // --- mutation -----------------------------------------------------------
  /// Inserts `stop` so that it becomes stop `pos` (0 <= pos <= num_stops()).
  /// Recomputes derived fields. Does NOT check feasibility (callers use
  /// insertion.h); invalid schedules are detectable via Validate().
  void InsertStop(int pos, const Stop& stop);

  /// Removes both stops of `rider` and recomputes. Returns NotFound when the
  /// rider has no stops here, InvalidArgument when the rider is already
  /// onboard (their dropoff must stay).
  Status RemoveRider(RiderId rider);

  /// Advances the vehicle along its committed route to simulated time `t`:
  /// every stop with earliest arrival strictly before `t` is executed and
  /// removed, the start anchor moves to the last executed stop, executed
  /// pickups join `initial_onboard()` and executed dropoffs leave it.
  /// Afterwards `commit_floor()` is 1 iff the vehicle is mid-leg at `t`.
  /// Returns the executed stops in completion order.
  ///
  /// `no_show`, when non-null, flags riders who are absent at their pickup
  /// (indexed by RiderId): executing such a pickup boards nobody, marks the
  /// executed stop `no_show`, and excises the rider's dropoff before the
  /// advance continues (removing a stop never delays later arrivals — legs
  /// are shortest paths, so the direct leg is never longer than the detour).
  /// When no executed pickup is flagged, behavior, oracle call counts and
  /// version stamps are identical to the mask-free overload.
  std::vector<ExecutedStop> AdvanceTo(Cost t);
  std::vector<ExecutedStop> AdvanceTo(Cost t,
                                      const std::vector<bool>* no_show);

  /// Cancellation repair: removes a not-yet-picked-up rider's stops. When the
  /// vehicle is already mid-leg towards the rider's pickup, that leg is
  /// completed as a deadhead move (the pickup node becomes the new start
  /// anchor) — no teleporting. InvalidArgument for onboard riders.
  Status ExciseRider(RiderId rider);

  /// Recomputes every derived field from the oracle and stamps a fresh
  /// version. Call after the effective network changed underneath the
  /// oracle (edge disruption/restore): leg costs, arrivals and the Eq. 6–8
  /// fields are rebuilt against the new distances.
  void Refresh();

  /// Relaxes stop `u`'s deadline to at least `deadline` (never tightens)
  /// and recomputes the Eq. 7/8 fields. Disruption repair uses this for
  /// onboard riders whose dropoff became unreachable in time: the rider is
  /// already in the vehicle, so the engine forgives the deadline rather
  /// than violate the onboard-dropoff invariant.
  void RelaxStopDeadline(int u, Cost deadline);

  /// Reassembles a sequence from checkpointed parts: sets the anchor,
  /// onboard set and stops verbatim, then recomputes every derived field
  /// via the oracle (deterministic oracles make the rebuilt Eq. 6–8 fields
  /// identical to the checkpointed originals).
  static TransferSequence FromParts(NodeId start, Cost now, int capacity,
                                    DistanceOracle* oracle, int commit_floor,
                                    std::vector<RiderId> initial_onboard,
                                    std::vector<Stop> stops);

  /// Full invariant check: pickup precedes dropoff, stops paired, deadlines
  /// met by earliest arrivals, capacity respected, flex times non-negative.
  Status Validate() const;

  /// The oracle used for leg costs.
  DistanceOracle* oracle() const { return oracle_; }

  /// Monotone schedule-content version, unique process-wide: every mutation
  /// (InsertStop, RemoveRider, ExciseRider, and any AdvanceTo that changes
  /// observable state) stamps a fresh value from a global counter. Two
  /// sequences with different content never share a version, so
  /// (rider, vehicle, version) keys cached candidate evaluations safely —
  /// even across whole-schedule replacement. Copies keep the source's
  /// version (identical content).
  uint64_t version() const { return version_; }

  /// Zero-copy read view over the derived arrays. Valid until the next
  /// mutation of this sequence.
  ScheduleView View() const;

  /// Process-wide count of TransferSequence copy constructions/assignments.
  /// Tests diff this around the evaluation hot path to prove it zero-copy.
  static uint64_t CopyCount();

 private:
  /// Recomputes every derived array from `stops_` (O(w) oracle calls for
  /// changed legs are the caller's concern; this recomputes all legs).
  void Rebuild();

  NodeId start_;
  Cost now_;
  int capacity_;
  DistanceOracle* oracle_;
  int commit_floor_ = 0;
  uint64_t version_ = 0;  // stamped in the constructor and every mutation

  std::vector<RiderId> initial_onboard_;
  std::vector<Stop> stops_;
  std::vector<Cost> leg_cost_;
  std::vector<Cost> arrival_;  // earliest arrival at stop u
  std::vector<Cost> latest_;   // latest completion of leg u (Eq. 7)
  std::vector<Cost> flex_;     // flexible time of leg u (Eq. 8)
  std::vector<int> onboard_;   // |R_u| during leg u
};

}  // namespace urr

#endif  // URR_SCHED_TRANSFER_SEQUENCE_H_
