#include "routing/dijkstra.h"

#include <algorithm>

namespace urr {

DijkstraEngine::DijkstraEngine(const RoadNetwork& network)
    : network_(network),
      dist_(static_cast<size_t>(network.num_nodes()), kInfiniteCost),
      stamp_(static_cast<size_t>(network.num_nodes()), 0) {}

void DijkstraEngine::Prepare() {
  ++current_stamp_;
  if (current_stamp_ == 0) {  // stamp wrapped: hard reset
    std::fill(stamp_.begin(), stamp_.end(), 0);
    current_stamp_ = 1;
  }
}

void DijkstraEngine::ClearQueue() {
  while (!queue_.empty()) queue_.pop();
}

Cost DijkstraEngine::Distance(NodeId source, NodeId target) {
  if (source == target) return 0;
  Prepare();
  SetDist(source, 0);
  queue_.push({0, source});
  Cost answer = kInfiniteCost;
  while (!queue_.empty()) {
    auto [d, v] = queue_.top();
    queue_.pop();
    if (d > GetDist(v)) continue;
    if (v == target) {
      answer = d;
      break;
    }
    auto heads = network_.OutNeighbors(v);
    auto costs = network_.OutCosts(v);
    for (size_t i = 0; i < heads.size(); ++i) {
      const Cost nd = d + costs[i];
      if (nd < GetDist(heads[i])) {
        SetDist(heads[i], nd);
        queue_.push({nd, heads[i]});
      }
    }
  }
  ClearQueue();
  return answer;
}

std::vector<Cost> DijkstraEngine::Distances(NodeId source,
                                            const std::vector<NodeId>& targets,
                                            Cost radius) {
  std::vector<Cost> out(targets.size(), kInfiniteCost);
  if (targets.empty()) return out;
  // Multiplicity-aware pending-target map.
  std::vector<std::pair<NodeId, size_t>> order(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) order[i] = {targets[i], i};
  std::sort(order.begin(), order.end());
  size_t remaining = targets.size();

  Prepare();
  SetDist(source, 0);
  queue_.push({0, source});
  while (!queue_.empty() && remaining > 0) {
    auto [d, v] = queue_.top();
    queue_.pop();
    if (d > GetDist(v)) continue;
    if (d > radius) break;
    // Record all target slots equal to v.
    auto it = std::lower_bound(order.begin(), order.end(),
                               std::make_pair(v, static_cast<size_t>(0)));
    for (; it != order.end() && it->first == v; ++it) {
      if (out[it->second] == kInfiniteCost) {
        out[it->second] = d;
        --remaining;
      }
    }
    auto heads = network_.OutNeighbors(v);
    auto costs = network_.OutCosts(v);
    for (size_t i = 0; i < heads.size(); ++i) {
      const Cost nd = d + costs[i];
      if (nd < GetDist(heads[i]) && nd <= radius) {
        SetDist(heads[i], nd);
        queue_.push({nd, heads[i]});
      }
    }
  }
  ClearQueue();
  return out;
}

}  // namespace urr
