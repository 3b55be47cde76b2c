// Contraction Hierarchies (Geisberger et al.): preprocessing-based exact
// point-to-point shortest paths. The URR schedulers issue millions of
// cost(u,v) queries (Lemma 3.1 checks, Δ computations, utility ratios); CH
// answers each in microseconds on city-scale networks, which is what makes
// the paper's experiment sizes tractable.
#ifndef URR_ROUTING_CONTRACTION_HIERARCHY_H_
#define URR_ROUTING_CONTRACTION_HIERARCHY_H_

#include <cstdint>
#include <queue>
#include <vector>

#include "common/binary_io.h"
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

/// A built hierarchy. Build once per network with `Build`, then call
/// `Distance` from any number of `ChQuery` instances.
class ContractionHierarchy {
 public:
  /// Constructs an empty (0-node) hierarchy; assign a Build() or
  /// Deserialize() result to it.
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

  /// Appends every array of the hierarchy (ranks, both CSR halves with
  /// shortcut middles) to `writer` in the fixed-width .urrx encoding.
  void Serialize(BinaryWriter* writer) const;

  /// Parses and fully validates a hierarchy written by Serialize: rank
  /// permutation, monotone CSR offsets, in-range endpoints and middles,
  /// finite non-negative costs, and the rank-ordering invariant of both
  /// halves. Any malformation returns an error Status.
  static Result<ContractionHierarchy> Deserialize(BinaryReader* reader);

 private:
  friend class ChQuery;
  friend class HubLabels;
  friend class HubLabelUpwardSearcher;  // label extraction's search scratch

  NodeId num_nodes_ = 0;
  std::vector<int32_t> rank_;
  // Upward forward graph: edges u -> v with rank[v] > rank[u].
  std::vector<int64_t> up_begin_;
  std::vector<NodeId> up_to_;
  std::vector<Cost> up_cost_;
  // Contracted node each (possibly shortcut) edge skips; kInvalidNode for
  // original edges. Parallel to up_to_ / down_to_.
  std::vector<NodeId> up_middle_;
  // Upward backward graph: reversed edges of (a -> b, rank[a] > rank[b]),
  // stored as b -> a so the backward search also climbs ranks.
  std::vector<int64_t> down_begin_;
  std::vector<NodeId> down_to_;
  std::vector<Cost> down_cost_;
  std::vector<NodeId> down_middle_;
};

/// Query context over a built hierarchy; owns scratch arrays, so queries are
/// allocation-free. Not thread-safe; create one per thread.
class ChQuery {
 public:
  /// The query keeps a reference; `ch` must outlive it.
  explicit ChQuery(const ContractionHierarchy& ch);

  /// Exact shortest-path cost (kInfiniteCost when unreachable).
  Cost Distance(NodeId source, NodeId target);

  /// Like Distance, and also reconstructs the node path in the ORIGINAL
  /// network (shortcuts unpacked). `path` is emptied when unreachable.
  Cost Path(NodeId source, NodeId target, std::vector<NodeId>* path);

  /// Number of Distance() calls served (for bench reporting).
  int64_t num_queries() const { return num_queries_; }

 private:
  struct Side {
    std::vector<Cost> dist;
    std::vector<uint32_t> stamp;
    std::vector<NodeId> parent;  // hierarchy-graph predecessor
    using Entry = std::pair<Cost, NodeId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
  };

  /// Shared search core; records the best meeting node when asked.
  Cost Search(NodeId source, NodeId target, NodeId* meeting);
  /// Appends the original-network nodes of hierarchy edge a -> b (cost c),
  /// excluding `a` itself, by recursively expanding shortcut middles.
  void UnpackUpEdge(NodeId a, NodeId b, std::vector<NodeId>* out) const;
  void UnpackDownEdge(NodeId a, NodeId b, std::vector<NodeId>* out) const;

  const ContractionHierarchy& ch_;
  Side fwd_;
  Side bwd_;
  uint32_t now_ = 0;
  int64_t num_queries_ = 0;
};

}  // namespace urr

#endif  // URR_ROUTING_CONTRACTION_HIERARCHY_H_
