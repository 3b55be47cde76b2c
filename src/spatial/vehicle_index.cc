#include "spatial/vehicle_index.h"

#include <algorithm>

namespace urr {

VehicleIndex::VehicleIndex(const RoadNetwork& network,
                           const std::vector<NodeId>& locations)
    : network_(network), location_(locations) {
  ReserveWorkers(1);
  for (size_t j = 0; j < locations.size(); ++j) {
    by_node_[locations[j]].push_back(static_cast<int>(j));
  }
}

void VehicleIndex::Update(int vehicle, NodeId node) {
  const NodeId old = location_[static_cast<size_t>(vehicle)];
  auto it = by_node_.find(old);
  if (it != by_node_.end()) {
    auto& list = it->second;
    list.erase(std::remove(list.begin(), list.end(), vehicle), list.end());
    if (list.empty()) by_node_.erase(it);
  }
  location_[static_cast<size_t>(vehicle)] = node;
  by_node_[node].push_back(vehicle);
}

void VehicleIndex::ReserveWorkers(int n) {
  while (engines_.size() < static_cast<size_t>(n)) {
    engines_.push_back(std::make_unique<DijkstraEngine>(network_));
  }
}

std::vector<VehicleWithDistance> VehicleIndex::VehiclesWithinCost(
    NodeId target, Cost radius, int worker) {
  std::vector<VehicleWithDistance> out;
  engines_[static_cast<size_t>(worker)]->Explore(
      target, radius, /*reverse=*/true, [&](NodeId v, Cost d) {
        auto it = by_node_.find(v);
        if (it == by_node_.end()) return;
        for (int vehicle : it->second) out.push_back({vehicle, d});
      });
  return out;
}

}  // namespace urr
