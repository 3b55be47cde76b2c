// BilateralArrangement (Sec 4, Algorithm 2): assign each rider to the
// vehicle with the highest utility increase; when a vehicle is full/tight,
// try replacing one of its riders so that travel cost drops and overall
// utility rises; replaced riders go back into the pool.
#ifndef URR_URR_BILATERAL_H_
#define URR_URR_BILATERAL_H_

#include "urr/solution.h"

namespace urr {

/// Runs BA over the given rider/vehicle subsets, mutating `sol`. Used
/// directly by GBS per group. Deterministic given ctx->rng's state (the
/// paper picks riders randomly; we draw from the seeded Rng).
/// When `removable` is non-null, the replacement step (lines 12-15) may only
/// bump riders with removable[i] == true — the streaming engine uses this to
/// protect riders committed in earlier windows. nullptr = all removable.
void BilateralArrange(const UrrInstance& instance, SolverContext* ctx,
                      const std::vector<RiderId>& riders,
                      const std::vector<int>& vehicles, UrrSolution* sol,
                      const std::vector<bool>* removable = nullptr);

/// BA over the whole instance.
UrrSolution SolveBilateral(const UrrInstance& instance, SolverContext* ctx);

}  // namespace urr

#endif  // URR_URR_BILATERAL_H_
