#include "routing/disruption_overlay.h"

#include <algorithm>
#include <cmath>
#include <queue>

namespace urr {

void DisruptionState::Disrupt(NodeId a, NodeId b, double factor) {
  if (!std::isinf(factor)) factor = std::max(1.0, factor);
  overrides_[Key(a, b)] = factor;
  RebuildEdgeList();
  ++epoch_;
}

void DisruptionState::Restore(NodeId a, NodeId b) {
  if (overrides_.erase(Key(a, b)) == 0) return;
  RebuildEdgeList();
  ++epoch_;
}

void DisruptionState::RebuildEdgeList() {
  edges_.clear();
  edges_.reserve(overrides_.size());
  for (const auto& [key, factor] : overrides_) {
    DisruptedEdge e;
    e.a = static_cast<NodeId>(static_cast<int32_t>(key >> 32));
    e.b = static_cast<NodeId>(static_cast<int32_t>(key & 0xffffffffu));
    e.clean_cost = network_->EdgeCost(e.a, e.b);
    e.factor = factor;
    // An (a, b) with no base edge perturbs nothing; keep the state tidy.
    if (std::isinf(e.clean_cost)) continue;
    edges_.push_back(e);
  }
  std::sort(edges_.begin(), edges_.end(),
            [](const DisruptedEdge& x, const DisruptedEdge& y) {
              return x.a != y.a ? x.a < y.a : x.b < y.b;
            });
}

DisruptionOverlay::DisruptionOverlay(DistanceOracle* base,
                                     const RoadNetwork& network,
                                     std::shared_ptr<DisruptionState> state,
                                     std::shared_ptr<OverlayStats> stats)
    : base_(base),
      network_(&network),
      state_(std::move(state)),
      stats_(std::move(stats)) {
  const double max_speed = network_->MaxSpeed();
  if (std::isfinite(max_speed) && max_speed > 0) {
    inv_max_speed_ = 1.0 / max_speed;
  }
}

DisruptionOverlay::DisruptionOverlay(std::unique_ptr<DistanceOracle> owned_base,
                                     const RoadNetwork& network,
                                     std::shared_ptr<DisruptionState> state,
                                     std::shared_ptr<OverlayStats> stats)
    : DisruptionOverlay(owned_base.get(), network, std::move(state),
                        std::move(stats)) {
  owned_base_ = std::move(owned_base);
}

Cost DisruptionOverlay::Distance(NodeId u, NodeId v) {
  ++num_calls_;
  if (!state_->active()) return base_->Distance(u, v);
  stats_->queries.fetch_add(1, std::memory_order_relaxed);
  const Cost d0 = base_->Distance(u, v);
  // Weight increases cannot connect what the clean graph does not.
  if (std::isinf(d0)) return d0;
  bool affected = false;
  bool euclid_settled = true;
  // Slack absorbing float round-up in the lower-bound sums: an edge is only
  // screened out when it clears d0 by more than the slack, so rounding can
  // cause a spare fallback but never a wrongly served clean answer.
  const Cost eps = 1e-9 * std::max(1.0, d0);
  for (const DisruptedEdge& e : state_->edges()) {
    // Screen 1 (free): euclid/max_speed is an admissible lower bound on the
    // clean distance, so lb(u,a) + c + lb(b,v) > d0 already rules the edge
    // off every clean shortest path.
    if (inv_max_speed_ > 0) {
      const Cost lb = network_->EuclideanLowerBound(u, e.a) * inv_max_speed_ +
                      e.clean_cost +
                      network_->EuclideanLowerBound(e.b, v) * inv_max_speed_;
      if (lb > d0 + eps) continue;
    }
    // Screen 2 (exact clean probes through the base oracle).
    euclid_settled = false;
    const Cost via = base_->Distance(u, e.a) + e.clean_cost +
                     base_->Distance(e.b, v);
    if (via > d0 + eps) continue;
    affected = true;
    break;
  }
  if (!affected) {
    if (euclid_settled) {
      stats_->euclid_screened.fetch_add(1, std::memory_order_relaxed);
    }
    return d0;
  }
  stats_->fallbacks.fetch_add(1, std::memory_order_relaxed);
  return PerturbedDistance(u, v);
}

std::unique_ptr<DistanceOracle> DisruptionOverlay::Clone() const {
  return std::unique_ptr<DistanceOracle>(
      new DisruptionOverlay(base_->Clone(), *network_, state_, stats_));
}

Cost DisruptionOverlay::PerturbedDistance(NodeId u, NodeId v) {
  const size_t n = static_cast<size_t>(network_->num_nodes());
  if (dist_.size() != n) {
    dist_.assign(n, kInfiniteCost);
    stamp_.assign(n, 0);
    current_stamp_ = 0;
  }
  ++current_stamp_;
  if (current_stamp_ == 0) {  // wrapped: reset the stamps once
    std::fill(stamp_.begin(), stamp_.end(), 0);
    current_stamp_ = 1;
  }
  auto get = [&](NodeId x) {
    return stamp_[static_cast<size_t>(x)] == current_stamp_
               ? dist_[static_cast<size_t>(x)]
               : kInfiniteCost;
  };
  auto set = [&](NodeId x, Cost d) {
    stamp_[static_cast<size_t>(x)] = current_stamp_;
    dist_[static_cast<size_t>(x)] = d;
  };
  using Entry = std::pair<Cost, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
  set(u, 0);
  queue.push({0, u});
  while (!queue.empty()) {
    const auto [d, x] = queue.top();
    queue.pop();
    if (d > get(x)) continue;
    if (x == v) return d;
    const auto heads = network_->OutNeighbors(x);
    const auto costs = network_->OutCosts(x);
    for (size_t i = 0; i < heads.size(); ++i) {
      const Cost c = state_->PerturbedCost(x, heads[i], costs[i]);
      if (std::isinf(c)) continue;  // closed edge
      const Cost nd = d + c;
      if (nd < get(heads[i])) {
        set(heads[i], nd);
        queue.push({nd, heads[i]});
      }
    }
  }
  return kInfiniteCost;
}

}  // namespace urr
