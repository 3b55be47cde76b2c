#include "sched/transfer_sequence.h"

#include <algorithm>

namespace urr {

namespace {
constexpr Cost kTimeEps = 1e-7;  // tolerance for deadline comparisons

// Process-wide version source. Relaxed is enough: uniqueness is all the
// eval cache needs, and fetch_add is atomic regardless of ordering.
std::atomic<uint64_t> g_schedule_version{1};
uint64_t NextVersion() {
  return g_schedule_version.fetch_add(1, std::memory_order_relaxed);
}

std::atomic<uint64_t> g_copy_count{0};
}  // namespace

TransferSequence::TransferSequence(NodeId start, Cost now, int capacity,
                                   DistanceOracle* oracle)
    : start_(start), now_(now), capacity_(capacity), oracle_(oracle),
      version_(NextVersion()) {}

TransferSequence::TransferSequence(const TransferSequence& other)
    : start_(other.start_), now_(other.now_), capacity_(other.capacity_),
      oracle_(other.oracle_), commit_floor_(other.commit_floor_),
      version_(other.version_), initial_onboard_(other.initial_onboard_),
      stops_(other.stops_), leg_cost_(other.leg_cost_),
      arrival_(other.arrival_), latest_(other.latest_), flex_(other.flex_),
      onboard_(other.onboard_) {
  g_copy_count.fetch_add(1, std::memory_order_relaxed);
}

TransferSequence& TransferSequence::operator=(const TransferSequence& other) {
  if (this != &other) {
    start_ = other.start_;
    now_ = other.now_;
    capacity_ = other.capacity_;
    oracle_ = other.oracle_;
    commit_floor_ = other.commit_floor_;
    version_ = other.version_;
    initial_onboard_ = other.initial_onboard_;
    stops_ = other.stops_;
    leg_cost_ = other.leg_cost_;
    arrival_ = other.arrival_;
    latest_ = other.latest_;
    flex_ = other.flex_;
    onboard_ = other.onboard_;
  }
  g_copy_count.fetch_add(1, std::memory_order_relaxed);
  return *this;
}

uint64_t TransferSequence::CopyCount() {
  return g_copy_count.load(std::memory_order_relaxed);
}

ScheduleView TransferSequence::View() const {
  ScheduleView v;
  v.start = start_;
  v.now = now_;
  v.capacity = capacity_;
  v.commit_floor = commit_floor_;
  v.num_stops = num_stops();
  v.stops = stops_.data();
  v.leg_cost = leg_cost_.data();
  v.arrival = arrival_.data();
  v.latest = latest_.data();
  v.flex = flex_.data();
  v.onboard = onboard_.data();
  v.initial_onboard = initial_onboard_.data();
  v.num_initial_onboard = static_cast<int>(initial_onboard_.size());
  v.oracle = oracle_;
  return v;
}

int TransferSequence::EndOnboard() const {
  int onboard = static_cast<int>(initial_onboard_.size());
  for (const Stop& s : stops_) {
    onboard += (s.type == StopType::kPickup) ? 1 : -1;
  }
  return onboard;
}

std::vector<RiderId> ScheduleView::OnboardRiders(int u) const {
  // Rider picked up at stop p and dropped at stop q is onboard during legs
  // p+1 .. q. An unmatched pickup stays onboard to the end. Riders already
  // in the vehicle at `start` are onboard from leg 0 to their dropoff.
  std::vector<RiderId> out;
  for (int r_idx = 0; r_idx < num_initial_onboard; ++r_idx) {
    const RiderId r = initial_onboard[r_idx];
    bool dropped_before_leg = false;
    for (int q = 0; q < u; ++q) {
      const Stop& t = stops[q];
      if (t.type == StopType::kDropoff && t.rider == r) {
        dropped_before_leg = true;
        break;
      }
    }
    if (!dropped_before_leg) out.push_back(r);
  }
  for (int p = 0; p < num_stops; ++p) {
    const Stop& s = stops[p];
    if (s.type != StopType::kPickup || p >= u) continue;
    bool dropped_before_leg = false;
    for (int q = p + 1; q < u; ++q) {
      const Stop& t = stops[q];
      if (t.type == StopType::kDropoff && t.rider == s.rider) {
        dropped_before_leg = true;
        break;
      }
    }
    if (!dropped_before_leg) out.push_back(s.rider);
  }
  return out;
}

Cost ScheduleView::TotalCost() const {
  Cost total = 0;
  for (int u = 0; u < num_stops; ++u) total += leg_cost[u];
  return total;
}

std::pair<int, int> ScheduleView::RiderStops(RiderId rider) const {
  int pickup = -1, dropoff = -1;
  for (int u = 0; u < num_stops; ++u) {
    const Stop& s = stops[u];
    if (s.rider != rider) continue;
    if (s.type == StopType::kPickup) pickup = u;
    else dropoff = u;
  }
  return {pickup, dropoff};
}

std::vector<RiderId> ScheduleView::Riders() const {
  std::vector<RiderId> out;
  for (int u = 0; u < num_stops; ++u) {
    if (stops[u].type == StopType::kPickup) out.push_back(stops[u].rider);
  }
  return out;
}

// The TransferSequence queries delegate to the view implementations so a
// schedule and the zero-copy kernel's views run the same code by
// construction — bit-identity between them cannot drift.
std::vector<RiderId> TransferSequence::OnboardRiders(int u) const {
  return View().OnboardRiders(u);
}

Cost TransferSequence::TotalCost() const { return View().TotalCost(); }

std::pair<int, int> TransferSequence::RiderStops(RiderId rider) const {
  return View().RiderStops(rider);
}

std::vector<RiderId> TransferSequence::Riders() const {
  return View().Riders();
}

void TransferSequence::InsertStop(int pos, const Stop& stop) {
  stops_.insert(stops_.begin() + pos, stop);
  Rebuild();
  version_ = NextVersion();
}

Status TransferSequence::RemoveRider(RiderId rider) {
  for (RiderId r : initial_onboard_) {
    if (r == rider) {
      return Status::InvalidArgument(
          "rider " + std::to_string(rider) +
          " is already onboard; their dropoff cannot be removed");
    }
  }
  const auto before = stops_.size();
  stops_.erase(std::remove_if(stops_.begin(), stops_.end(),
                              [rider](const Stop& s) { return s.rider == rider; }),
               stops_.end());
  if (stops_.size() == before) {
    return Status::NotFound("rider " + std::to_string(rider) +
                            " not in schedule");
  }
  Rebuild();
  version_ = NextVersion();
  return Status::OK();
}

std::vector<ExecutedStop> TransferSequence::AdvanceTo(Cost t) {
  return AdvanceTo(t, nullptr);
}

std::vector<ExecutedStop> TransferSequence::AdvanceTo(
    Cost t, const std::vector<bool>* no_show) {
  // Earliest arrivals are non-decreasing, so the executed prefix is the
  // stops with arrival strictly before t. Strict `<` keeps a stop reached
  // exactly at t pending — an arrival at the same instant still sees it.
  std::vector<ExecutedStop> done;
  size_t k = 0;
  bool has_no_show = false;
  while (k < stops_.size() && arrival_[k] < t) {
    const Stop& s = stops_[k];
    if (no_show != nullptr && s.type == StopType::kPickup &&
        static_cast<size_t>(s.rider) < no_show->size() &&
        (*no_show)[static_cast<size_t>(s.rider)]) {
      has_no_show = true;
      break;
    }
    ++k;
  }
  if (has_no_show) {
    // Slow path, only when an absent rider's pickup actually executes:
    // stop-by-stop so each excision re-times the remaining stops before
    // they run. Excising a stop never delays later arrivals (legs are
    // shortest paths), so nothing already executed could have been later.
    while (!stops_.empty() && arrival_[0] < t) {
      const Stop s = stops_[0];
      const Cost at = arrival_[0];
      const bool absent =
          no_show != nullptr && s.type == StopType::kPickup &&
          static_cast<size_t>(s.rider) < no_show->size() &&
          (*no_show)[static_cast<size_t>(s.rider)];
      done.push_back({s, at, absent});
      start_ = s.location;
      now_ = at;
      stops_.erase(stops_.begin());
      if (s.type == StopType::kPickup) {
        if (absent) {
          // Nobody boarded: drop the rider's remaining (dropoff) stop.
          stops_.erase(std::remove_if(stops_.begin(), stops_.end(),
                                      [&s](const Stop& q) {
                                        return q.rider == s.rider;
                                      }),
                       stops_.end());
        } else {
          initial_onboard_.push_back(s.rider);
        }
      } else {
        initial_onboard_.erase(std::remove(initial_onboard_.begin(),
                                           initial_onboard_.end(), s.rider),
                               initial_onboard_.end());
      }
      Rebuild();
    }
    if (stops_.empty()) {
      const Cost idle_now = std::max(now_, t);
      now_ = idle_now;
      commit_floor_ = 0;
    } else {
      commit_floor_ = (t > now_) ? 1 : 0;
    }
    version_ = NextVersion();
    return done;
  }
  // Version is bumped only when observable state actually changes, so a
  // busy vehicle that merely sits mid-route across a window boundary keeps
  // its cached candidate evaluations.
  bool mutated = (k > 0);
  if (k > 0) {
    done.reserve(k);
    for (size_t u = 0; u < k; ++u) {
      const Stop& s = stops_[u];
      done.push_back({s, arrival_[u]});
      if (s.type == StopType::kPickup) {
        initial_onboard_.push_back(s.rider);
      } else {
        initial_onboard_.erase(std::remove(initial_onboard_.begin(),
                                           initial_onboard_.end(), s.rider),
                               initial_onboard_.end());
      }
    }
    start_ = stops_[k - 1].location;
    now_ = arrival_[k - 1];
    stops_.erase(stops_.begin(), stops_.begin() + static_cast<long>(k));
    Rebuild();
  }
  if (stops_.empty()) {
    // Idle vehicle: it simply waits at the anchor until t.
    const Cost idle_now = std::max(now_, t);
    if (idle_now != now_) {
      now_ = idle_now;
      mutated = true;
    }
    if (commit_floor_ != 0) {
      commit_floor_ = 0;
      mutated = true;
    }
  } else {
    const int floor = (t > now_) ? 1 : 0;
    if (floor != commit_floor_) {
      commit_floor_ = floor;
      mutated = true;
    }
  }
  if (mutated) version_ = NextVersion();
  return done;
}

RoutePosition TransferSequence::PositionAt(Cost t) const {
  RoutePosition pos;
  pos.at = start_;
  pos.depart_time = now_;
  for (int u = 0; u < num_stops(); ++u) {
    if (arrival_[static_cast<size_t>(u)] > t) {
      pos.next_stop = u;
      pos.next_arrival = arrival_[static_cast<size_t>(u)];
      return pos;
    }
    pos.at = stops_[static_cast<size_t>(u)].location;
    pos.depart_time = arrival_[static_cast<size_t>(u)];
  }
  return pos;  // past the last stop: idle
}

Status TransferSequence::ExciseRider(RiderId rider) {
  const auto [p, q] = RiderStops(rider);
  if (p == -1 && q != -1) {
    return Status::InvalidArgument("rider " + std::to_string(rider) +
                                   " is already onboard and cannot cancel");
  }
  if (p == -1) {
    return Status::NotFound("rider " + std::to_string(rider) +
                            " not in schedule");
  }
  if (p == 0 && commit_floor_ > 0) {
    // The vehicle is physically mid-leg towards this pickup: it completes
    // the leg as a deadhead move and re-plans from the pickup node.
    start_ = stops_[0].location;
    now_ = arrival_[0];
    stops_.erase(stops_.begin());
    commit_floor_ = 0;
  }
  Status removed = RemoveRider(rider);
  if (!removed.ok()) return removed;
  return Validate();
}

void TransferSequence::Refresh() {
  Rebuild();
  version_ = NextVersion();
}

void TransferSequence::RelaxStopDeadline(int u, Cost deadline) {
  Stop& s = stops_[static_cast<size_t>(u)];
  if (deadline <= s.deadline) return;
  s.deadline = deadline;
  Rebuild();
  version_ = NextVersion();
}

TransferSequence TransferSequence::FromParts(
    NodeId start, Cost now, int capacity, DistanceOracle* oracle,
    int commit_floor, std::vector<RiderId> initial_onboard,
    std::vector<Stop> stops) {
  TransferSequence seq(start, now, capacity, oracle);
  seq.commit_floor_ = commit_floor;
  seq.initial_onboard_ = std::move(initial_onboard);
  seq.stops_ = std::move(stops);
  seq.Rebuild();
  seq.version_ = NextVersion();
  return seq;
}

void TransferSequence::Rebuild() {
  const auto w = stops_.size();
  leg_cost_.resize(w);
  arrival_.resize(w);
  latest_.resize(w);
  flex_.resize(w);
  onboard_.resize(w);

  // Forward pass: leg costs and earliest arrivals (Eq. 6), one oracle query
  // per leg in leg order.
  for (size_t u = 0; u < w; ++u) {
    leg_cost_[u] =
        oracle_->Distance(LegOrigin(static_cast<int>(u)), stops_[u].location);
    arrival_[u] = (u == 0 ? now_ : arrival_[u - 1]) + leg_cost_[u];
  }
  // Backward pass: latest completion times (Eq. 7) and flex times (Eq. 8).
  for (size_t i = w; i-- > 0;) {
    if (i + 1 == w) {
      latest_[i] = stops_[i].deadline;
      flex_[i] = latest_[i] - EarliestStart(static_cast<int>(i)) - leg_cost_[i];
    } else {
      latest_[i] = std::min(latest_[i + 1] - leg_cost_[i + 1],
                            stops_[i].deadline);
      flex_[i] = std::min(
          latest_[i] - EarliestStart(static_cast<int>(i)) - leg_cost_[i],
          flex_[i + 1]);
    }
  }
  // Occupancy: diff array over legs. Rider picked at p, dropped at q is
  // onboard during legs p+1..q; unmatched pickups remain to the end.
  // Initially-onboard riders occupy a seat from leg 0 to their dropoff.
  std::vector<int> diff(w + 1, 0);
  for (RiderId r : initial_onboard_) {
    size_t q = (w == 0) ? 0 : w - 1;  // to the end when no dropoff present
    for (size_t j = 0; j < w; ++j) {
      if (stops_[j].type == StopType::kDropoff && stops_[j].rider == r) {
        q = j;
        break;
      }
    }
    if (w > 0) {
      diff[0] += 1;
      diff[q + 1] -= 1;
    }
  }
  for (size_t p = 0; p < w; ++p) {
    if (stops_[p].type != StopType::kPickup) continue;
    size_t q = w;  // exclusive end (leg after last) when unmatched
    for (size_t j = p + 1; j < w; ++j) {
      if (stops_[j].type == StopType::kDropoff &&
          stops_[j].rider == stops_[p].rider) {
        q = j;
        break;
      }
    }
    // Legs p+1 .. q inclusive (q == w means to the end; last leg is w-1).
    const size_t lo = p + 1;
    const size_t hi = std::min(q, w - 1);
    if (lo <= hi) {
      diff[lo] += 1;
      diff[hi + 1] -= 1;
    }
  }
  int run = 0;
  for (size_t u = 0; u < w; ++u) {
    run += diff[u];
    onboard_[u] = run;
  }
}

Status TransferSequence::Validate() const {
  // Each initially-onboard rider must still have their dropoff scheduled
  // (and no pickup: they are in the vehicle already).
  for (RiderId r : initial_onboard_) {
    const auto [p, q] = RiderStops(r);
    if (p != -1) {
      return Status::Infeasible("onboard rider " + std::to_string(r) +
                                " has a scheduled pickup");
    }
    if (q == -1) {
      return Status::Infeasible("onboard rider " + std::to_string(r) +
                                " has no scheduled dropoff");
    }
  }
  // Pairing and ordering.
  for (int u = 0; u < num_stops(); ++u) {
    const Stop& s = stops_[static_cast<size_t>(u)];
    const auto [p, q] = RiderStops(s.rider);
    if (s.type == StopType::kDropoff) {
      const bool onboard = std::find(initial_onboard_.begin(),
                                     initial_onboard_.end(),
                                     s.rider) != initial_onboard_.end();
      if (p == -1 && !onboard) {
        return Status::Infeasible("dropoff without pickup for rider " +
                                  std::to_string(s.rider));
      }
      if (p > u) {
        return Status::Infeasible("dropoff precedes pickup for rider " +
                                  std::to_string(s.rider));
      }
    }
    if (s.type == StopType::kPickup && q != -1 && q < u) {
      return Status::Infeasible("pickup after dropoff for rider " +
                                std::to_string(s.rider));
    }
  }
  // Deadlines (vehicle takes shortest paths, leaves as early as possible).
  for (int u = 0; u < num_stops(); ++u) {
    if (EarliestArrival(u) > stop(u).deadline + kTimeEps) {
      return Status::DeadlineViolated(
          "stop " + std::to_string(u) + " arrives at " +
          std::to_string(EarliestArrival(u)) + " after deadline " +
          std::to_string(stop(u).deadline));
    }
    if (FlexTime(u) < -kTimeEps) {
      return Status::DeadlineViolated("negative flex time at leg " +
                                      std::to_string(u));
    }
  }
  // Capacity.
  for (int u = 0; u < num_stops(); ++u) {
    if (Onboard(u) > capacity_) {
      return Status::CapacityExceeded("leg " + std::to_string(u) + " carries " +
                                      std::to_string(Onboard(u)) + " > " +
                                      std::to_string(capacity_));
    }
  }
  return Status::OK();
}

}  // namespace urr
