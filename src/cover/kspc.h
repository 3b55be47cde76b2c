// Minimum k-shortest-path cover (k-SPC), Sec 6.1: select a small vertex set
// V' such that every shortest path with k vertices intersects V'. We
// implement the pruning scheme of Funke et al. [18]: start with V' = V and
// remove a vertex whenever no uncovered shortest path with k vertices would
// appear — checked by enumerating locally shortest chains through the
// vertex, restricted to uncovered nodes, with global shortest-path
// verification.
#ifndef URR_COVER_KSPC_H_
#define URR_COVER_KSPC_H_

#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "routing/dijkstra.h"
#include "graph/road_network.h"

namespace urr {

/// Tuning knobs for the pruning search.
struct KspcOptions {
  /// Cover parameter k (paths with k vertices must be hit).
  int k = 4;
  /// Cap on enumerated chains per side of the candidate vertex; when the cap
  /// trips, the vertex is conservatively kept in the cover (correctness is
  /// preserved, the cover just gets slightly larger).
  int max_chains_per_side = 512;
  /// Cap on chain-pair shortest-path verifications per vertex.
  int max_checks_per_node = 8192;
};

/// Computes a k-SPC of `network`. Processing order is randomized from
/// `rng` (the order influences the cover size, not correctness).
Result<std::vector<NodeId>> KShortestPathCover(const RoadNetwork& network,
                                               const KspcOptions& options,
                                               Rng* rng);

/// Exhaustive verifier for tests (small graphs only): true iff no shortest
/// path with exactly `k` vertices avoids `cover`.
bool VerifyKspc(const RoadNetwork& network, const std::vector<NodeId>& cover,
                int k);

}  // namespace urr

#endif  // URR_COVER_KSPC_H_
