// The URR problem instance (Definition 4): riders, vehicles, the road
// network, the social graph and the vehicle-related utility matrix.
#ifndef URR_URR_INSTANCE_H_
#define URR_URR_INSTANCE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "sched/insertion.h"
#include "social/history_similarity.h"
#include "social/social_graph.h"
#include "graph/road_network.h"

namespace urr {

/// A time-constrained rider (Definition 1) plus their social identity.
struct Rider {
  NodeId source = kInvalidNode;        // s_i
  NodeId destination = kInvalidNode;   // e_i
  Cost pickup_deadline = kInfiniteCost;   // rt⁻_i
  Cost dropoff_deadline = kInfiniteCost;  // rt⁺_i
  UserId user = -1;  // social identity (nearest check-in user)
};

/// A dynamically moving vehicle (Definition 2).
struct Vehicle {
  NodeId location = kInvalidNode;  // l(c_j)
  int capacity = 3;                // a_j
};

/// One URR instance. Borrowed pointers must outlive the instance. Copies
/// share the μ_v matrix (immutable once published); riders, vehicles and
/// `now` are per-copy values.
struct UrrInstance {
  const RoadNetwork* network = nullptr;
  const SocialGraph* social = nullptr;
  /// Optional fallback similarity from location histories (Sec 2.4: riders
  /// without social accounts are compared by their historical records).
  const LocationHistorySimilarity* history = nullptr;
  std::vector<Rider> riders;
  std::vector<Vehicle> vehicles;
  /// Row-major riders x vehicles matrix of vehicle-related utilities
  /// μ_v(r_i, c_j) in [0,1], or null, meaning μ_v ≡ 0. Immutable and
  /// shared by every copy of the instance, so copying an instance never
  /// costs riders x vehicles. Written only through SetVehicleUtility.
  std::shared_ptr<const std::vector<float>> vehicle_utility;
  /// Current timestamp t̄ (all deadlines are absolute in the same clock).
  Cost now = 0;

  int num_riders() const { return static_cast<int>(riders.size()); }
  int num_vehicles() const { return static_cast<int>(vehicles.size()); }

  /// Publishes the row-major μ_v matrix; call after riders and vehicles
  /// are set. An empty matrix means μ_v ≡ 0; any other size than
  /// riders x vehicles is rejected.
  Status SetVehicleUtility(std::vector<float> mu) {
    if (mu.empty()) {
      vehicle_utility.reset();
      return Status::OK();
    }
    const size_t expected = riders.size() * vehicles.size();
    if (mu.size() != expected) {
      return Status::InvalidArgument(
          "vehicle utility matrix has " + std::to_string(mu.size()) +
          " entries, expected " + std::to_string(riders.size()) +
          " riders x " + std::to_string(vehicles.size()) + " vehicles = " +
          std::to_string(expected));
    }
    vehicle_utility = std::make_shared<const std::vector<float>>(std::move(mu));
    return Status::OK();
  }

  /// μ_v(r_i, c_j).
  double VehicleUtility(RiderId i, int j) const {
    if (vehicle_utility == nullptr) return 0.0;
    return (*vehicle_utility)[static_cast<size_t>(i) *
                                  static_cast<size_t>(vehicles.size()) +
                              static_cast<size_t>(j)];
  }

  /// The rider's trip in scheduler form.
  RiderTrip Trip(RiderId i) const {
    const Rider& r = riders[static_cast<size_t>(i)];
    return {i, r.source, r.destination, r.pickup_deadline, r.dropoff_deadline};
  }

  /// Social similarity s(r_a, r_b) (Eq. 3) via the riders' mapped users.
  /// Friend-set Jaccard when both users have social presence; otherwise the
  /// location-history fallback (when attached); otherwise 0.
  double Similarity(RiderId a, RiderId b) const {
    const UserId ua = riders[static_cast<size_t>(a)].user;
    const UserId ub = riders[static_cast<size_t>(b)].user;
    if (ua < 0 || ub < 0) return 0.0;
    if (social != nullptr &&
        (social->Degree(ua) > 0 || social->Degree(ub) > 0)) {
      return social->Jaccard(ua, ub);
    }
    if (history != nullptr) return history->Similarity(ua, ub);
    return social == nullptr ? 0.0 : social->Jaccard(ua, ub);
  }
};

}  // namespace urr

#endif  // URR_URR_INSTANCE_H_
