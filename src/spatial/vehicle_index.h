// VehicleIndex: maps road nodes to the vehicles currently positioned there
// and answers "which vehicles can reach node X within travel-cost r" with a
// single reverse Dijkstra — the retrieval step of Algorithms 2 and 3
// (Lemma 3.1 conditions a/b as a prefilter).
#ifndef URR_SPATIAL_VEHICLE_INDEX_H_
#define URR_SPATIAL_VEHICLE_INDEX_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "routing/dijkstra.h"
#include "graph/road_network.h"

namespace urr {

/// A vehicle id together with its current network distance to the query node.
struct VehicleWithDistance {
  int vehicle = -1;
  Cost distance = kInfiniteCost;
};

/// Node -> vehicles map with reverse-Dijkstra range retrieval.
class VehicleIndex {
 public:
  /// `locations[j]` is the current node of vehicle j. The index keeps a
  /// reference to `network`, which must outlive it.
  VehicleIndex(const RoadNetwork& network, const std::vector<NodeId>& locations);

  /// Moves vehicle `vehicle` to `node`.
  void Update(int vehicle, NodeId node);

  /// All vehicles whose travel cost *to* `target` is at most `radius`
  /// (i.e. cost(l(c_j), target) <= radius), with exact network distances.
  /// One bounded reverse Dijkstra, independent of the number of vehicles,
  /// on worker `worker`'s own engine: calls with distinct worker ids below
  /// ReserveWorkers() may run concurrently (no Update in between).
  std::vector<VehicleWithDistance> VehiclesWithinCost(NodeId target,
                                                      Cost radius,
                                                      int worker = 0);

  /// Gives worker ids [0, n) a Dijkstra engine each. Not thread-safe: call
  /// before fanning retrievals out. Worker 0 always has one.
  void ReserveWorkers(int n);

  /// Number of indexed vehicles.
  int num_vehicles() const { return static_cast<int>(location_.size()); }

  /// Current node of vehicle `vehicle`.
  NodeId location(int vehicle) const {
    return location_[static_cast<size_t>(vehicle)];
  }

 private:
  const RoadNetwork& network_;
  std::vector<std::unique_ptr<DijkstraEngine>> engines_;  // per worker id
  std::vector<NodeId> location_;
  std::unordered_map<NodeId, std::vector<int>> by_node_;
};

}  // namespace urr

#endif  // URR_SPATIAL_VEHICLE_INDEX_H_
