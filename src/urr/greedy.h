// EfficientGreedy (Sec 5, Algorithm 3) and the shared greedy core also used
// by the cost-first baseline: maintain rider-vehicle candidate pairs in a
// lazily-updated priority queue and repeatedly commit the best pair.
#ifndef URR_URR_GREEDY_H_
#define URR_URR_GREEDY_H_

#include "urr/solution.h"

namespace urr {

/// Key the greedy queue orders by (higher pops first).
enum class GreedyObjective {
  /// Utility efficiency f_ij = Δμ / Δcost (Eq. 9) — EfficientGreedy.
  kUtilityEfficiency,
  /// Negative incremental travel cost — the cost-first (CF) baseline.
  kCostFirst,
};

/// Runs the greedy over the given rider/vehicle subsets, mutating `sol`
/// (schedules grow, assignment fills in). Used directly by GBS per group.
void GreedyArrange(const UrrInstance& instance, SolverContext* ctx,
                   const std::vector<RiderId>& riders,
                   const std::vector<int>& vehicles, GreedyObjective objective,
                   UrrSolution* sol);

/// EfficientGreedy over the whole instance.
UrrSolution SolveEfficientGreedy(const UrrInstance& instance,
                                 SolverContext* ctx);

}  // namespace urr

#endif  // URR_URR_GREEDY_H_
