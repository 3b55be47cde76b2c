// Hub labeling (2-hop labels) derived from a built contraction hierarchy
// (Abraham et al.): every node stores the distances of its upward-reachable
// CH search space, so a point-to-point query is a sorted merge-join over two
// small arrays instead of a bidirectional graph search. Labels are exact —
// they are the settled sets of complete upward searches, pruned only when a
// higher hub already covers the entry.
#ifndef URR_ROUTING_HUB_LABELS_H_
#define URR_ROUTING_HUB_LABELS_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "routing/distance_oracle.h"

namespace urr {

/// Immutable forward/backward label store. Build once per network, then
/// query from any number of threads (all queries are const).
class HubLabels {
 public:
  /// Constructs an empty (0-node) store; assign a Build() or Deserialize()
  /// result to it.
  HubLabels() = default;

  /// Extracts labels from a built hierarchy: for each node, one complete
  /// upward search per direction (same relax + stall-on-demand rules as
  /// ChQuery), processed in descending rank order so entries dominated via
  /// an already-labeled higher hub are pruned exactly.
  ///
  /// With a pool, the searches — the dominant cost — run in parallel over
  /// fixed-size rank blocks while the pruning pass stays serial in
  /// descending rank order. Each search is a pure function of the (frozen)
  /// hierarchy and the block size does not depend on the thread count, so
  /// the labels are bit-identical to the serial build at any thread count.
  static Result<HubLabels> Build(const ContractionHierarchy& ch,
                                 ThreadPool* pool = nullptr);

  /// Exact shortest-path cost by merge-join over Lf(u) and Lb(v);
  /// kInfiniteCost when the labels share no hub.
  Cost Distance(NodeId u, NodeId v) const;

  NodeId num_nodes() const { return num_nodes_; }
  /// Total label entries over both directions (size accounting).
  int64_t num_entries() const {
    return static_cast<int64_t>(fwd_hub_.size() + bwd_hub_.size());
  }
  /// Mean entries per label per direction.
  double average_label_size() const {
    return num_nodes_ == 0
               ? 0.0
               : static_cast<double>(num_entries()) / (2.0 * num_nodes_);
  }

  /// Label spans (hubs ascending; costs parallel).
  std::span<const NodeId> ForwardHubs(NodeId v) const {
    return {&fwd_hub_[static_cast<size_t>(fwd_begin_[v])],
            static_cast<size_t>(fwd_begin_[v + 1] - fwd_begin_[v])};
  }
  std::span<const Cost> ForwardCosts(NodeId v) const {
    return {&fwd_cost_[static_cast<size_t>(fwd_begin_[v])],
            static_cast<size_t>(fwd_begin_[v + 1] - fwd_begin_[v])};
  }
  std::span<const NodeId> BackwardHubs(NodeId v) const {
    return {&bwd_hub_[static_cast<size_t>(bwd_begin_[v])],
            static_cast<size_t>(bwd_begin_[v + 1] - bwd_begin_[v])};
  }
  std::span<const Cost> BackwardCosts(NodeId v) const {
    return {&bwd_cost_[static_cast<size_t>(bwd_begin_[v])],
            static_cast<size_t>(bwd_begin_[v + 1] - bwd_begin_[v])};
  }

  /// Appends both CSR label stores to `writer` in the fixed-width .urrx
  /// encoding.
  void Serialize(BinaryWriter* writer) const;

  /// Parses and fully validates labels written by Serialize: monotone CSR
  /// offsets, hubs strictly ascending within every slice and in range,
  /// finite non-negative costs. Any malformation returns an error Status.
  static Result<HubLabels> Deserialize(BinaryReader* reader);

 private:
  NodeId num_nodes_ = 0;
  // CSR label stores: hub ids ascending within each node's slice.
  std::vector<int64_t> fwd_begin_;  // size num_nodes+1
  std::vector<NodeId> fwd_hub_;
  std::vector<Cost> fwd_cost_;
  std::vector<int64_t> bwd_begin_;
  std::vector<NodeId> bwd_hub_;
  std::vector<Cost> bwd_cost_;
};

/// Hub-label-backed oracle: the production distance oracle (experiment
/// worlds, the CLIs and the server all route on it). The label store is
/// shared immutably across clones, so Clone() is O(1) and the parallel
/// evaluation path composes.
class HubLabelOracle : public DistanceOracle {
 public:
  /// Builds a hierarchy for `network` (parallel when options.pool is set),
  /// extracts labels and discards the hierarchy (labels are
  /// self-contained).
  static Result<std::unique_ptr<HubLabelOracle>> Create(
      const RoadNetwork& network, const ChOptions& options = {});
  /// Extracts labels from an already-built hierarchy.
  static Result<std::unique_ptr<HubLabelOracle>> FromHierarchy(
      const ContractionHierarchy& ch, ThreadPool* pool = nullptr);

  explicit HubLabelOracle(std::shared_ptr<const HubLabels> labels)
      : labels_(std::move(labels)) {}

  Cost Distance(NodeId u, NodeId v) override;
  /// Clones share the immutable label store (no rebuild, no copy).
  std::unique_ptr<DistanceOracle> Clone() const override;

  const HubLabels& labels() const { return *labels_; }

 private:
  std::shared_ptr<const HubLabels> labels_;
};

}  // namespace urr

#endif  // URR_ROUTING_HUB_LABELS_H_
