// Dijkstra shortest paths on a RoadNetwork: a reusable engine (timestamp
// trick, no per-query reinitialization) with one-to-one, cost-bounded
// multi-target and visitor-driven searches. DijkstraOracle wraps it as the
// reference every distance oracle is tested against.
#ifndef URR_ROUTING_DIJKSTRA_H_
#define URR_ROUTING_DIJKSTRA_H_

#include <queue>
#include <vector>

#include "graph/road_network.h"

namespace urr {

/// Reusable Dijkstra engine bound to one network. Queries reuse internal
/// arrays; not thread-safe (use one engine per thread).
class DijkstraEngine {
 public:
  /// The engine keeps a reference; `network` must outlive it.
  explicit DijkstraEngine(const RoadNetwork& network);

  /// One-to-one distance (early exit once target settles).
  Cost Distance(NodeId source, NodeId target);

  /// Distances from `source` to each of `targets` (early exit once all
  /// settle or `radius` is exceeded; unreachable => kInfiniteCost).
  std::vector<Cost> Distances(NodeId source, const std::vector<NodeId>& targets,
                              Cost radius = kInfiniteCost);

  /// Runs a (possibly reverse) search from `source` out to `radius` and
  /// invokes `visit(node, dist)` for every settled node.
  template <typename Visitor>
  void Explore(NodeId source, Cost radius, bool reverse, Visitor&& visit) {
    Prepare();
    SetDist(source, 0);
    queue_.push({0, source});
    while (!queue_.empty()) {
      auto [d, v] = queue_.top();
      queue_.pop();
      if (d > GetDist(v)) continue;
      if (d > radius) break;
      visit(v, d);
      auto heads = reverse ? network_.InNeighbors(v) : network_.OutNeighbors(v);
      auto costs = reverse ? network_.InCosts(v) : network_.OutCosts(v);
      for (size_t i = 0; i < heads.size(); ++i) {
        const Cost nd = d + costs[i];
        if (nd < GetDist(heads[i]) && nd <= radius) {
          SetDist(heads[i], nd);
          queue_.push({nd, heads[i]});
        }
      }
    }
    ClearQueue();
  }

 private:
  void Prepare();
  void ClearQueue();
  Cost GetDist(NodeId v) const {
    return stamp_[static_cast<size_t>(v)] == current_stamp_
               ? dist_[static_cast<size_t>(v)]
               : kInfiniteCost;
  }
  void SetDist(NodeId v, Cost d) {
    stamp_[static_cast<size_t>(v)] = current_stamp_;
    dist_[static_cast<size_t>(v)] = d;
  }

  using QueueEntry = std::pair<Cost, NodeId>;
  const RoadNetwork& network_;
  std::vector<Cost> dist_;
  std::vector<uint32_t> stamp_;
  uint32_t current_stamp_ = 0;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue_;
};

}  // namespace urr

#endif  // URR_ROUTING_DIJKSTRA_H_
