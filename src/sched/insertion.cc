#include "sched/insertion.h"

#include <algorithm>

namespace urr {

namespace {

constexpr Cost kEps = 1e-7;

/// Location a stop inserted at `pos` would depart from.
NodeId OriginAt(const ScheduleView& seq, int pos) {
  return pos == 0 ? seq.start : seq.stop(pos - 1).location;
}

/// Earliest start time of (possibly appended) leg `pos`.
Cost EarliestStartAt(const ScheduleView& seq, int pos) {
  return pos < seq.num_stops ? seq.EarliestStart(pos) : seq.EndTime();
}

}  // namespace

Result<InsertionPlan> FindBestInsertionScratch(const ScheduleView& seq,
                                               const RiderTrip& trip,
                                               bool* capacity_blocked,
                                               const InsertionScreen* screen,
                                               InsertionScratch* scratch) {
  DistanceOracle* oracle = seq.oracle;
  const int w = seq.num_stops;
  const bool scr = screen != nullptr && screen->enabled();
  if (capacity_blocked != nullptr) *capacity_blocked = false;
  uint64_t queries = 0;

  // --- Valid pickup positions (Lemma 3.1 conditions a–d for x = s_i). -----
  // Positions below commit_floor belong to a leg the vehicle is already
  // driving and cannot be diverted. Screening only converts a position that
  // would provably `continue` into the same `continue` without the oracle
  // query, so results and the capacity_blocked flag cannot change
  // (conditions a–c precede d).
  auto& pickups = scratch->pickups;
  pickups.clear();
  for (int u = seq.commit_floor; u <= w; ++u) {
    const Cost estart = EarliestStartAt(seq, u);
    // Lemma 3.2: earliest start times are non-decreasing along the sequence,
    // so once one exceeds the pickup deadline no later position is valid.
    if (estart > trip.pickup_deadline + kEps) break;
    if (scr && estart + screen->LowerBound(OriginAt(seq, u), trip.source) >
                   trip.pickup_deadline + kEps) {
      ++scratch->elided_queries;
      continue;  // conditions a+b fail even at the optimistic bound
    }
    const Cost to_s = oracle->Distance(OriginAt(seq, u), trip.source);
    ++queries;
    // Conditions a+b in their tight form: the vehicle must reach s_i by its
    // deadline departing at the leg's earliest start.
    if (estart + to_s > trip.pickup_deadline + kEps) continue;
    if (u < w) {
      if (scr &&
          to_s + screen->LowerBound(trip.source, seq.stop(u).location) -
                  seq.leg_cost[u] >
              seq.FlexTime(u) + kEps) {
        ++scratch->elided_queries;
        continue;  // condition c fails even at the optimistic bound
      }
      const Cost next_dist =
          oracle->Distance(trip.source, seq.stop(u).location);
      ++queries;
      const Cost delta = to_s + next_dist - seq.leg_cost[u];
      if (delta > seq.FlexTime(u) + kEps) continue;        // condition c
      if (seq.Onboard(u) + 1 > seq.capacity) {             // condition d
        if (capacity_blocked != nullptr) *capacity_blocked = true;
        continue;
      }
      pickups.push_back({u, delta, to_s, next_dist});
    } else {
      if (seq.EndOnboard() + 1 > seq.capacity) {            // condition d
        if (capacity_blocked != nullptr) *capacity_blocked = true;
        continue;
      }
      pickups.push_back({u, to_s, to_s, 0});                 // appended leg
    }
  }
  scratch->oracle_queries += queries;
  if (pickups.empty()) {
    if (scr && queries == 0) ++scratch->screened_pairs;
    return Status::Infeasible("no valid pickup position");
  }
  std::sort(pickups.begin(), pickups.end(),
            [](const InsertionScratch::Pickup& a,
               const InsertionScratch::Pickup& b) { return a.delta < b.delta; });

  // Trial-schedule derived fields (updateEventFields in Algorithm 1). The
  // prefix [0, pos) is untouched (read through `seq`) and only the suffix
  // [pos, w] is materialized, with the exact Rebuild recurrences — so every
  // comparison below sees the operands an inserted-then-rebuilt schedule
  // would.
  const int w2 = w + 1;  // trial length with the pickup inserted
  auto& arrival = scratch->arrival;
  auto& latest = scratch->latest;
  auto& flex = scratch->flex;
  arrival.resize(static_cast<size_t>(w2));
  latest.resize(static_cast<size_t>(w2));
  flex.resize(static_cast<size_t>(w2));

  InsertionPlan best;
  for (const InsertionScratch::Pickup& cand : pickups) {
    if (cand.delta >= best.delta_cost) break;  // Δ-sorted early exit
    const int pos = cand.pos;
    // Trial leg cost at index v (>= pos): the inserted leg, the shortened
    // successor leg, or the base leg shifted by one.
    auto trial_leg = [&](int v) -> Cost {
      if (v == pos) return cand.to_s;
      if (v == pos + 1) return cand.next_dist;
      return seq.leg_cost[v - 1];
    };
    // Forward pass (Eq. 6): earliest arrivals for the suffix.
    arrival[static_cast<size_t>(pos)] = EarliestStartAt(seq, pos) + cand.to_s;
    for (int v = pos + 1; v < w2; ++v) {
      arrival[static_cast<size_t>(v)] =
          arrival[static_cast<size_t>(v) - 1] + trial_leg(v);
    }
    // Backward pass (Eqs. 7+8) for trial indices [pos+1, w2-1] — the only
    // ones the dropoff loop's condition-c check reads. Trial stop i > pos
    // is base stop i-1.
    for (int i = w2 - 1; i >= pos + 1; --i) {
      const Cost deadline = seq.stop(i - 1).deadline;
      if (i + 1 == w2) {
        latest[static_cast<size_t>(i)] = deadline;
        flex[static_cast<size_t>(i)] = latest[static_cast<size_t>(i)] -
                                       arrival[static_cast<size_t>(i) - 1] -
                                       trial_leg(i);
      } else {
        latest[static_cast<size_t>(i)] =
            std::min(latest[static_cast<size_t>(i) + 1] - trial_leg(i + 1),
                     deadline);
        flex[static_cast<size_t>(i)] =
            std::min(latest[static_cast<size_t>(i)] -
                         arrival[static_cast<size_t>(i) - 1] - trial_leg(i),
                     flex[static_cast<size_t>(i) + 1]);
      }
    }
    // --- Valid dropoff positions v > pickup position, on the updated
    // sequence. The rider is onboard legs pos+1 .. v, so every such leg
    // must respect capacity; trial occupancy is base occupancy plus one.
    for (int v = pos + 1; v <= w2; ++v) {
      if (v < w2 && seq.Onboard(v - 1) + 1 > seq.capacity) {
        if (capacity_blocked != nullptr) *capacity_blocked = true;
        break;
      }
      const Cost estart = arrival[static_cast<size_t>(v) - 1];
      if (estart > trip.dropoff_deadline + kEps) break;  // Lemma 3.2
      const NodeId vorigin =
          (v - 1 == pos) ? trip.source : seq.stop(v - 2).location;
      Cost lb_next = 0;
      if (scr) {
        const Cost lb_to_e = screen->LowerBound(vorigin, trip.destination);
        if (estart + lb_to_e > trip.dropoff_deadline + kEps) {
          ++scratch->elided_queries;
          continue;
        }
        Cost lb_delta = lb_to_e;
        if (v < w2) {
          lb_next =
              screen->LowerBound(trip.destination, seq.stop(v - 1).location);
          lb_delta += lb_next - trial_leg(v);
          if (lb_delta > flex[static_cast<size_t>(v)] + kEps) {
            ++scratch->elided_queries;
            continue;
          }
        }
        // Best-update requires strict `<`, so a bound that cannot go below
        // the incumbent makes this position a no-op.
        if (cand.delta + lb_delta >= best.delta_cost) {
          ++scratch->elided_queries;
          continue;
        }
      }
      const Cost to_e = oracle->Distance(vorigin, trip.destination);
      ++queries;
      ++scratch->oracle_queries;
      if (estart + to_e > trip.dropoff_deadline + kEps) continue;
      Cost delta_e;
      if (v < w2) {
        if (scr) {
          const Cost lb_delta = to_e + lb_next - trial_leg(v);
          if (lb_delta > flex[static_cast<size_t>(v)] + kEps ||
              cand.delta + lb_delta >= best.delta_cost) {
            ++scratch->elided_queries;
            continue;
          }
        }
        delta_e =
            to_e +
            oracle->Distance(trip.destination, seq.stop(v - 1).location) -
            trial_leg(v);
        ++queries;
        ++scratch->oracle_queries;
        if (delta_e > flex[static_cast<size_t>(v)] + kEps) continue;  // cond c
      } else {
        delta_e = to_e;
      }
      const Cost total = cand.delta + delta_e;
      if (total < best.delta_cost) {
        best = {pos, v, total};
      }
    }
  }
  if (best.pickup_pos < 0) {
    if (scr && queries == 0) ++scratch->screened_pairs;
    return Status::Infeasible("no valid (pickup, dropoff) position pair");
  }
  return best;
}

Result<InsertionPlan> FindBestInsertion(const TransferSequence& seq,
                                        const RiderTrip& trip,
                                        bool* capacity_blocked) {
  static thread_local InsertionScratch scratch;
  return FindBestInsertionScratch(seq.View(), trip, capacity_blocked,
                                  /*screen=*/nullptr, &scratch);
}

ScheduleView BuildTrialView(const ScheduleView& seq, const RiderTrip& trip,
                            const InsertionPlan& plan,
                            InsertionScratch* scratch) {
  const int w = seq.num_stops;
  const int w2 = w + 2;
  const int P = plan.pickup_pos;
  const int Q = plan.dropoff_pos;
  auto& stops = scratch->trial_stops;
  auto& legs = scratch->trial_legs;
  auto& onboard = scratch->trial_onboard;
  auto& arrival = scratch->trial_arrival;
  auto& latest = scratch->trial_latest;
  auto& flex = scratch->trial_flex;
  stops.resize(static_cast<size_t>(w2));
  legs.resize(static_cast<size_t>(w2));
  onboard.resize(static_cast<size_t>(w2));
  arrival.resize(static_cast<size_t>(w2));
  latest.resize(static_cast<size_t>(w2));
  flex.resize(static_cast<size_t>(w2));

  for (int idx = 0; idx < w2; ++idx) {
    if (idx < P) {
      stops[static_cast<size_t>(idx)] = seq.stop(idx);
    } else if (idx == P) {
      stops[static_cast<size_t>(idx)] =
          Stop{trip.source, trip.rider, StopType::kPickup,
               trip.pickup_deadline};
    } else if (idx < Q) {
      stops[static_cast<size_t>(idx)] = seq.stop(idx - 1);
    } else if (idx == Q) {
      stops[static_cast<size_t>(idx)] =
          Stop{trip.destination, trip.rider, StopType::kDropoff,
               trip.dropoff_deadline};
    } else {
      stops[static_cast<size_t>(idx)] = seq.stop(idx - 2);
    }
  }
  // Leg costs: only the (at most four) legs adjacent to an inserted stop
  // changed; the rest are shifted copies. Re-queried legs hit the same
  // deterministic oracle Rebuild would, so values are bit-identical to
  // ApplyInsertion on a copy.
  DistanceOracle* oracle = seq.oracle;
  for (int v = 0; v < w2; ++v) {
    const NodeId origin =
        v == 0 ? seq.start : stops[static_cast<size_t>(v) - 1].location;
    const NodeId dest = stops[static_cast<size_t>(v)].location;
    Cost c;
    if (v < P) {
      c = seq.leg_cost[v];
    } else if (v <= Q + 1) {
      if (v == P || v == P + 1 || v == Q || v == Q + 1) {
        c = oracle->Distance(origin, dest);
        scratch->oracle_queries += 1;
      } else {
        c = seq.leg_cost[v - 1];
      }
    } else {
      c = seq.leg_cost[v - 2];
    }
    legs[static_cast<size_t>(v)] = c;
  }
  // Forward / backward passes: Rebuild's recurrences verbatim.
  for (int u = 0; u < w2; ++u) {
    arrival[static_cast<size_t>(u)] =
        (u == 0 ? seq.now : arrival[static_cast<size_t>(u) - 1]) +
        legs[static_cast<size_t>(u)];
  }
  for (int i = w2 - 1; i >= 0; --i) {
    const Cost estart =
        i == 0 ? seq.now : arrival[static_cast<size_t>(i) - 1];
    if (i + 1 == w2) {
      latest[static_cast<size_t>(i)] = stops[static_cast<size_t>(i)].deadline;
      flex[static_cast<size_t>(i)] =
          latest[static_cast<size_t>(i)] - estart - legs[static_cast<size_t>(i)];
    } else {
      latest[static_cast<size_t>(i)] =
          std::min(latest[static_cast<size_t>(i) + 1] -
                       legs[static_cast<size_t>(i) + 1],
                   stops[static_cast<size_t>(i)].deadline);
      flex[static_cast<size_t>(i)] =
          std::min(latest[static_cast<size_t>(i)] - estart -
                       legs[static_cast<size_t>(i)],
                   flex[static_cast<size_t>(i) + 1]);
    }
  }
  // Occupancy: diff array over legs, exactly as Rebuild.
  std::fill(onboard.begin(), onboard.end(), 0);
  auto add_range = [&](int lo, int hi) {
    if (lo <= hi) {
      onboard[static_cast<size_t>(lo)] += 1;
      if (hi + 1 < w2) onboard[static_cast<size_t>(hi) + 1] -= 1;
    }
  };
  for (int r_idx = 0; r_idx < seq.num_initial_onboard; ++r_idx) {
    const RiderId r = seq.initial_onboard[r_idx];
    int q = w2 - 1;
    for (int j = 0; j < w2; ++j) {
      if (stops[static_cast<size_t>(j)].type == StopType::kDropoff &&
          stops[static_cast<size_t>(j)].rider == r) {
        q = j;
        break;
      }
    }
    add_range(0, q);
  }
  for (int p = 0; p < w2; ++p) {
    if (stops[static_cast<size_t>(p)].type != StopType::kPickup) continue;
    int q = w2;  // exclusive end (leg after last) when unmatched
    for (int j = p + 1; j < w2; ++j) {
      if (stops[static_cast<size_t>(j)].type == StopType::kDropoff &&
          stops[static_cast<size_t>(j)].rider ==
              stops[static_cast<size_t>(p)].rider) {
        q = j;
        break;
      }
    }
    add_range(p + 1, std::min(q, w2 - 1));
  }
  int run = 0;
  for (int u = 0; u < w2; ++u) {
    run += onboard[static_cast<size_t>(u)];
    onboard[static_cast<size_t>(u)] = run;
  }

  ScheduleView out;
  out.start = seq.start;
  out.now = seq.now;
  out.capacity = seq.capacity;
  out.commit_floor = seq.commit_floor;
  out.num_stops = w2;
  out.stops = stops.data();
  out.leg_cost = legs.data();
  out.arrival = arrival.data();
  out.latest = latest.data();
  out.flex = flex.data();
  out.onboard = onboard.data();
  out.initial_onboard = seq.initial_onboard;
  out.num_initial_onboard = seq.num_initial_onboard;
  out.oracle = seq.oracle;
  return out;
}

Status ApplyInsertion(TransferSequence* seq, const RiderTrip& trip,
                      const InsertionPlan& plan) {
  if (plan.pickup_pos < 0 || plan.dropoff_pos <= plan.pickup_pos ||
      plan.pickup_pos > seq->num_stops() ||
      plan.dropoff_pos > seq->num_stops() + 1) {
    return Status::InvalidArgument("malformed insertion plan");
  }
  if (plan.pickup_pos < seq->commit_floor()) {
    return Status::InvalidArgument("pickup would divert the in-flight leg");
  }
  seq->InsertStop(plan.pickup_pos, Stop{trip.source, trip.rider,
                                        StopType::kPickup,
                                        trip.pickup_deadline});
  seq->InsertStop(plan.dropoff_pos, Stop{trip.destination, trip.rider,
                                         StopType::kDropoff,
                                         trip.dropoff_deadline});
  return Status::OK();
}

Result<InsertionPlan> ArrangeSingleRider(TransferSequence* seq,
                                         const RiderTrip& trip) {
  URR_ASSIGN_OR_RETURN(InsertionPlan plan, FindBestInsertion(*seq, trip));
  URR_RETURN_NOT_OK(ApplyInsertion(seq, trip, plan));
  return plan;
}

Result<InsertionPlan> FindBestInsertionBruteForce(const TransferSequence& seq,
                                                  const RiderTrip& trip) {
  const Cost base_cost = seq.TotalCost();
  InsertionPlan best;
  for (int p = seq.commit_floor(); p <= seq.num_stops(); ++p) {
    for (int q = p + 1; q <= seq.num_stops() + 1; ++q) {
      TransferSequence trial = seq;
      const Status applied = ApplyInsertion(&trial, trip, {p, q, 0});
      if (!applied.ok()) continue;
      if (!trial.Validate().ok()) continue;
      const Cost delta = trial.TotalCost() - base_cost;
      if (delta < best.delta_cost) best = {p, q, delta};
    }
  }
  if (best.pickup_pos < 0) {
    return Status::Infeasible("no valid insertion (brute force)");
  }
  return best;
}

}  // namespace urr
