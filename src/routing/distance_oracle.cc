#include "routing/distance_oracle.h"

#include "common/status.h"

namespace urr {

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

std::unique_ptr<DistanceOracle> DijkstraOracle::Clone() const {
  return std::make_unique<DijkstraOracle>(*network_);
}

Result<std::unique_ptr<ChOracle>> ChOracle::Create(const RoadNetwork& network,
                                                   const ChOptions& options) {
  URR_ASSIGN_OR_RETURN(ContractionHierarchy ch,
                       ContractionHierarchy::Build(network, options));
  return FromHierarchy(std::move(ch));
}

std::unique_ptr<ChOracle> ChOracle::FromHierarchy(ContractionHierarchy ch) {
  return std::make_unique<ChOracle>(
      std::make_shared<const ContractionHierarchy>(std::move(ch)));
}

Cost ChOracle::Distance(NodeId u, NodeId v) {
  ++num_calls_;
  return query_.Distance(u, v);
}

std::unique_ptr<DistanceOracle> ChOracle::Clone() const {
  return std::make_unique<ChOracle>(ch_);
}

}  // namespace urr
