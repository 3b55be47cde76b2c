#include "routing/distance_oracle.h"

#include <vector>

#include "common/status.h"

namespace urr {

namespace {

/// Clone of a ChOracle: borrows the (immutable after build) hierarchy and
/// owns its own query scratch, so any number of these can run concurrently.
class ChQueryOracle : public DistanceOracle {
 public:
  explicit ChQueryOracle(const ContractionHierarchy& ch)
      : ch_(ch), query_(ch), m2m_(ch) {}

  Cost Distance(NodeId u, NodeId v) override {
    ++num_calls_;
    return query_.Distance(u, v);
  }

  void BatchDistances(std::span<const NodeId> sources,
                      std::span<const NodeId> targets, Cost* out) override {
    num_calls_ += static_cast<int64_t>(sources.size() * targets.size());
    m2m_.Distances(sources, targets, out);
  }

  bool SupportsBatch() const override { return true; }

  std::unique_ptr<DistanceOracle> Clone() const override {
    return std::make_unique<ChQueryOracle>(ch_);
  }

 private:
  const ContractionHierarchy& ch_;
  ChQuery query_;
  ChManyToMany m2m_;
};

}  // namespace

void DistanceOracle::BatchDistances(std::span<const NodeId> sources,
                                    std::span<const NodeId> targets,
                                    Cost* out) {
  for (size_t i = 0; i < sources.size(); ++i) {
    for (size_t j = 0; j < targets.size(); ++j) {
      out[i * targets.size() + j] = Distance(sources[i], targets[j]);
    }
  }
}

void DistanceOracle::BatchPairwise(std::span<const NodeId> us,
                                   std::span<const NodeId> vs, Cost* out) {
  for (size_t k = 0; k < us.size(); ++k) {
    out[k] = Distance(us[k], vs[k]);
  }
}

DijkstraOracle::DijkstraOracle(const RoadNetwork& network)
    : network_(&network), engine_(network) {}

Cost DijkstraOracle::Distance(NodeId u, NodeId v) {
  ++num_calls_;
  return engine_.Distance(u, v);
}

void DijkstraOracle::BatchDistances(std::span<const NodeId> sources,
                                    std::span<const NodeId> targets,
                                    Cost* out) {
  num_calls_ += static_cast<int64_t>(sources.size() * targets.size());
  const std::vector<NodeId> target_vec(targets.begin(), targets.end());
  for (size_t i = 0; i < sources.size(); ++i) {
    const std::vector<Cost> row = engine_.Distances(sources[i], target_vec);
    std::copy(row.begin(), row.end(), out + i * targets.size());
  }
}

std::unique_ptr<DistanceOracle> DijkstraOracle::Clone() const {
  return std::make_unique<DijkstraOracle>(*network_);
}

Result<std::unique_ptr<ChOracle>> ChOracle::Create(const RoadNetwork& network,
                                                   const ChOptions& options) {
  URR_ASSIGN_OR_RETURN(ContractionHierarchy ch,
                       ContractionHierarchy::Build(network, options));
  return std::unique_ptr<ChOracle>(new ChOracle(std::move(ch)));
}

std::unique_ptr<ChOracle> ChOracle::FromHierarchy(ContractionHierarchy ch) {
  return std::unique_ptr<ChOracle>(new ChOracle(std::move(ch)));
}

Cost ChOracle::Distance(NodeId u, NodeId v) {
  ++num_calls_;
  return query_.Distance(u, v);
}

void ChOracle::BatchDistances(std::span<const NodeId> sources,
                              std::span<const NodeId> targets, Cost* out) {
  num_calls_ += static_cast<int64_t>(sources.size() * targets.size());
  m2m_.Distances(sources, targets, out);
}

std::unique_ptr<DistanceOracle> ChOracle::Clone() const {
  return std::make_unique<ChQueryOracle>(ch_);
}

}  // namespace urr
