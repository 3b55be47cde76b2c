// Contraction Hierarchies (Geisberger et al.) as a build step: contraction
// ranks every node and adds the shortcuts that keep upward searches exact.
// The hierarchy answers no queries itself and is never persisted:
// HubLabels::Build extracts the production distance labels from it
// (routing/hub_labels.h), and the .urrx snapshot stores only those labels
// and the network (routing/index_snapshot.h).
#ifndef URR_ROUTING_CONTRACTION_HIERARCHY_H_
#define URR_ROUTING_CONTRACTION_HIERARCHY_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "graph/road_network.h"

namespace urr {

class ThreadPool;

/// Build options. The contraction order is always independent-set rounds
/// (stbuehler/ch_constructor style): each round freezes the overlay,
/// computes node priorities in parallel, contracts every node whose
/// (priority, id) is a strict local minimum among its uncontracted
/// neighbors, and applies the resulting shortcuts serially in (priority, id)
/// order. Every per-node computation is a pure function of the frozen round
/// state, so the contraction order, shortcut set and final arrays are
/// bit-identical at any thread count, including serial execution.
struct ChOptions {
  /// Worker pool for the contraction rounds (and the hub-label extraction
  /// layered on top). Null or single-threaded = serial execution of the
  /// identical algorithm; the built hierarchy is bit-identical either way.
  /// Borrowed, not owned.
  ThreadPool* pool = nullptr;
};

/// A built hierarchy. Build once per network with `Build`, then extract hub
/// labels from it with `HubLabels::Build`.
class ContractionHierarchy {
 public:
  /// Constructs an empty (0-node) hierarchy; assign a Build() result to it.
  ContractionHierarchy() = default;

  /// Preprocesses `network`. O(V log V)-ish in practice on road networks.
  static Result<ContractionHierarchy> Build(const RoadNetwork& network,
                                            const ChOptions& options = {});

  NodeId num_nodes() const { return num_nodes_; }
  /// Total number of upward edges (original + shortcuts) in both directions.
  int64_t num_upward_edges() const {
    return static_cast<int64_t>(up_to_.size() + down_to_.size());
  }
  /// Contraction rank of a node (0 = contracted first).
  int32_t rank(NodeId v) const { return rank_[static_cast<size_t>(v)]; }

 private:
  friend class HubLabels;
  friend class HubLabelUpwardSearcher;  // label extraction's search scratch

  NodeId num_nodes_ = 0;
  std::vector<int32_t> rank_;
  // Upward forward graph: edges u -> v with rank[v] > rank[u].
  std::vector<int64_t> up_begin_;
  std::vector<NodeId> up_to_;
  std::vector<Cost> up_cost_;
  // Upward backward graph: reversed edges of (a -> b, rank[a] > rank[b]),
  // stored as b -> a so the backward search also climbs ranks.
  std::vector<int64_t> down_begin_;
  std::vector<NodeId> down_to_;
  std::vector<Cost> down_cost_;
};

}  // namespace urr

#endif  // URR_ROUTING_CONTRACTION_HIERARCHY_H_
