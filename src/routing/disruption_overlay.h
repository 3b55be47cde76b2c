// Graceful routing degradation under edge disruptions (DESIGN.md §10).
//
// Precomputed oracles (hub labels, CH) answer distances on the
// *clean* network; rebuilding them per disruption is far too expensive for
// a streaming engine. The overlay exploits that every supported
// perturbation is a weight *increase* (slowdown factor >= 1 or a full
// closure), so d_pert(u,v) >= d_clean(u,v), and d_pert(u,v) differs from
// d_clean(u,v) only if every clean shortest u->v path crosses a disrupted
// edge. For each query the overlay runs an admissible screen per disrupted
// edge (a,b) with clean cost c:
//
//     d_clean(u,a) + c + d_clean(b,v) > d_clean(u,v)  =>  no clean
//     shortest path uses (a,b); the clean answer stands for this edge.
//
// Euclidean lower bounds (euclid / MaxSpeed <= d_clean) screen first; the
// exact base-oracle probes run only when the bound is inconclusive. Only
// when some disrupted edge survives the screen does the overlay fall back
// to an exact Dijkstra on the perturbed graph — every answer it serves is
// therefore bit-identical to ground-truth Dijkstra on that graph.
#ifndef URR_ROUTING_DISRUPTION_OVERLAY_H_
#define URR_ROUTING_DISRUPTION_OVERLAY_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "routing/distance_oracle.h"
#include "graph/road_network.h"

namespace urr {

/// One currently disrupted edge, with its clean cost cached for the screen.
struct DisruptedEdge {
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  Cost clean_cost = 0;    // min over parallel (a,b) edges on the base graph
  double factor = kInfiniteCost;  // >= 1; kInfiniteCost = closed
};

/// The set of active disruptions, shared by every overlay clone. Mutations
/// (Disrupt/Restore) must happen while no solver is running — the engine
/// applies fault events between windows — after which concurrent readers
/// are safe. Every mutation bumps `epoch()`, which the engine stamps into
/// eval-cache keys so stale candidate evaluations can never be served.
class DisruptionState {
 public:
  /// Keeps a reference; `network` must outlive the state.
  explicit DisruptionState(const RoadNetwork& network) : network_(&network) {}

  /// Scales every parallel (a, b) edge by `factor` (kInfiniteCost closes
  /// them). Re-disrupting an edge overwrites the prior factor. Factors < 1
  /// are clamped to 1 so perturbations stay weight increases.
  void Disrupt(NodeId a, NodeId b, double factor);

  /// Lifts the disruption on (a, b); no-op when the edge is not disrupted.
  void Restore(NodeId a, NodeId b);

  bool active() const { return !edges_.empty(); }
  uint64_t epoch() const { return epoch_; }
  /// Checkpoint restore: overrides the mutation counter so a restored
  /// engine continues the original run's epoch sequence (epochs feed
  /// eval-cache keys; replayed Disrupt calls alone would under-count past
  /// restores).
  void RestoreEpoch(uint64_t epoch) { epoch_ = epoch; }
  /// Active disruptions sorted by (a, b) — deterministic screen order.
  const std::vector<DisruptedEdge>& edges() const { return edges_; }

  /// Perturbed cost of a specific edge instance with clean cost `cost`;
  /// kInfiniteCost when (a, b) is closed.
  Cost PerturbedCost(NodeId a, NodeId b, Cost cost) const {
    if (overrides_.empty()) return cost;
    const auto it = overrides_.find(Key(a, b));
    if (it == overrides_.end()) return cost;
    return std::isinf(it->second) ? kInfiniteCost : cost * it->second;
  }

  static uint64_t Key(NodeId a, NodeId b) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
           static_cast<uint32_t>(b);
  }

 private:
  void RebuildEdgeList();

  const RoadNetwork* network_;
  std::unordered_map<uint64_t, double> overrides_;
  std::vector<DisruptedEdge> edges_;
  uint64_t epoch_ = 0;
};

/// Shared query counters (atomic: clones on worker threads update them).
struct OverlayStats {
  /// Distance queries answered while disruptions were active.
  std::atomic<int64_t> queries{0};
  /// Queries whose screen was settled by Euclidean bounds alone.
  std::atomic<int64_t> euclid_screened{0};
  /// Queries that fell back to exact Dijkstra on the perturbed graph.
  std::atomic<int64_t> fallbacks{0};
};

/// DistanceOracle decorator: passthrough when no disruption is active;
/// screen-then-fallback when one is. Per-instance scratch (the perturbed
/// Dijkstra arrays) makes each clone independently usable on its own
/// thread, like every other oracle.
class DisruptionOverlay : public DistanceOracle {
 public:
  /// `base` answers clean-network queries and must outlive the overlay;
  /// `network` is the base graph the perturbations apply to.
  DisruptionOverlay(DistanceOracle* base, const RoadNetwork& network,
                    std::shared_ptr<DisruptionState> state,
                    std::shared_ptr<OverlayStats> stats);

  Cost Distance(NodeId u, NodeId v) override;
  /// Clones the base oracle (owning it) behind a new overlay sharing this
  /// one's DisruptionState and stats; nullptr when the base cannot clone.
  std::unique_ptr<DistanceOracle> Clone() const override;

  const DisruptionState& state() const { return *state_; }
  const OverlayStats& stats() const { return *stats_; }

 private:
  DisruptionOverlay(std::unique_ptr<DistanceOracle> owned_base,
                    const RoadNetwork& network,
                    std::shared_ptr<DisruptionState> state,
                    std::shared_ptr<OverlayStats> stats);

  /// Exact Dijkstra from `u` to `v` on the perturbed graph (timestamp-
  /// trick scratch arrays, early exit on target settle).
  Cost PerturbedDistance(NodeId u, NodeId v);

  DistanceOracle* base_;
  std::unique_ptr<DistanceOracle> owned_base_;  // set only for clones
  const RoadNetwork* network_;
  std::shared_ptr<DisruptionState> state_;
  std::shared_ptr<OverlayStats> stats_;
  double inv_max_speed_ = 0;  // 0 when the network has no coordinates

  // Perturbed-Dijkstra scratch.
  std::vector<Cost> dist_;
  std::vector<uint32_t> stamp_;
  uint32_t current_stamp_ = 0;
};

}  // namespace urr

#endif  // URR_ROUTING_DISRUPTION_OVERLAY_H_
