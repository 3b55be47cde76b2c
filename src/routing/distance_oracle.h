// DistanceOracle: the one interface through which all URR components ask for
// shortest-path costs. Implementations: hub labels (the production oracle,
// routing/hub_labels.h), plain Dijkstra (the reference) and the disruption
// overlay that layers closures over either (routing/disruption_overlay.h).
#ifndef URR_ROUTING_DISTANCE_ORACLE_H_
#define URR_ROUTING_DISTANCE_ORACLE_H_

#include <cstdint>
#include <memory>
#include <span>

#include "routing/dijkstra.h"
#include "graph/road_network.h"

namespace urr {

/// Abstract exact shortest-path-cost oracle. Implementations are not
/// thread-safe unless stated; use one per thread.
class DistanceOracle {
 public:
  virtual ~DistanceOracle() = default;

  /// Exact shortest-path cost from `u` to `v`; kInfiniteCost if unreachable.
  virtual Cost Distance(NodeId u, NodeId v) = 0;

  /// Kept only because the benchmark's timing decorator
  /// (perfbench/src/bench.h) overrides it: loops Distance over the
  /// rectangle, filling out[i * targets.size() + j]. Nothing else calls it.
  virtual void BatchDistances(std::span<const NodeId> sources,
                              std::span<const NodeId> targets, Cost* out);

  /// Kept only because the benchmark's timing decorator
  /// (perfbench/src/bench.h) overrides it: out[k] = Distance(us[k], vs[k]),
  /// in order. Nothing else calls it.
  virtual void BatchPairwise(std::span<const NodeId> us,
                             std::span<const NodeId> vs, Cost* out);

  /// Kept only because the benchmark's timing decorator
  /// (perfbench/src/bench.h) overrides it; always false, nothing reads it.
  virtual bool SupportsBatch() const { return false; }

  /// An independent query context over the same network, for use from
  /// another thread: answers exactly the same distances as this oracle but
  /// shares no mutable state with it (scratch arrays and call counters are
  /// per-clone; preprocessing like a label store is shared read-only).
  /// Never returns nullptr: AttachThreadPool and the engine's disruption
  /// overlay give every worker a clone without checking.
  virtual std::unique_ptr<DistanceOracle> Clone() const = 0;

  /// Number of Distance calls made so far (for bench accounting).
  int64_t num_calls() const { return num_calls_; }

 protected:
  int64_t num_calls_ = 0;
};

/// Dijkstra-backed oracle (no preprocessing). Slow per query; used as ground
/// truth in tests and on tiny networks.
class DijkstraOracle : public DistanceOracle {
 public:
  /// Keeps a reference; `network` must outlive the oracle.
  explicit DijkstraOracle(const RoadNetwork& network);
  Cost Distance(NodeId u, NodeId v) override;
  std::unique_ptr<DistanceOracle> Clone() const override;

 private:
  const RoadNetwork* network_;
  DijkstraEngine engine_;
};

}  // namespace urr

#endif  // URR_ROUTING_DISTANCE_ORACLE_H_
