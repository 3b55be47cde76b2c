// Grouping-Based Scheduling (Sec 6, Algorithm 5): split long edges (Eq. 10),
// construct k-SPC areas (Algorithm 4), classify trips into short (grouped by
// source area) and long (group g_0), then solve g_0 first and the remaining
// groups largest-first with BA or EG as the per-group base solver, using the
// fast area-based vehicle filter, and finally give the riders their group
// left unassigned one attempt over the whole fleet.
#ifndef URR_URR_GBS_H_
#define URR_URR_GBS_H_

#include "common/result.h"
#include "cover/areas.h"
#include "graph/pseudo_nodes.h"
#include "urr/solution.h"

namespace urr {

/// Which base method solves each trip group.
enum class GbsBase { kEfficientGreedy, kBilateral };

/// GBS parameters (Sec 6.1).
struct GbsOptions {
  /// k-SPC parameter; also defines the short-trip threshold d_max * k.
  int k = 8;
  /// Upper bound on edge length for pseudo-node splitting (travel-cost
  /// units, i.e. seconds here).
  Cost d_max = 300;
  GbsBase base = GbsBase::kEfficientGreedy;
  /// When true, k is chosen by the Sec-6.3 cost model before solving.
  bool auto_k = false;
};

/// Diagnostics of one GBS run.
struct GbsStats {
  int num_areas = 0;         // η
  int num_pseudo_nodes = 0;  // inserted by edge splitting
  int num_long_trips = 0;    // |g_0|
  int num_groups_solved = 0;
  int k_used = 0;
  double preprocess_seconds = 0;  // split + cover + areas
  double classify_seconds = 0;    // trip classification (lines 1-6)
  double long_group_seconds = 0;  // solving g_0
  double filter_seconds = 0;      // per-group vehicle filtering
  double group_solve_seconds = 0; // solving the short-trip groups
};

/// Road-network preprocessing shared by every GBS solve on the same network
/// (Sec 6.2: "the AreaConstruction procedure is in fact a preprocessing for
/// the road network, it does not affect the arranging process").
struct GbsPreprocess {
  SplitNetwork split;
  AreaSet areas;
  int k = 0;
  Cost d_max = 0;
  double seconds = 0;
};

/// Runs edge splitting (Eq. 10), k-SPC and area construction. When
/// options.auto_k is set, k is chosen with the Sec-6.3 cost model using the
/// rider/vehicle counts in `instance`.
Result<GbsPreprocess> PrepareGbs(const UrrInstance& instance,
                                 SolverContext* ctx, const GbsOptions& options);

/// Runs GBS over the rider subset `riders`, mutating the (possibly warm)
/// solution `sol` — already-assigned riders are skipped by the base solvers.
/// The streaming engine calls this per window; SolveGbs delegates here with
/// all riders and a fresh solution. When `removable` is non-null, a BA base
/// may only bump riders with removable[i] == true.
Status GbsArrange(const UrrInstance& instance, SolverContext* ctx,
                  const GbsOptions& options, const GbsPreprocess& pre,
                  const std::vector<RiderId>& riders, UrrSolution* sol,
                  GbsStats* stats = nullptr,
                  const std::vector<bool>* removable = nullptr);

/// Runs GBS over the whole instance using a previously computed
/// preprocessing (its k/d_max govern the short-trip threshold).
Result<UrrSolution> SolveGbs(const UrrInstance& instance, SolverContext* ctx,
                             const GbsOptions& options,
                             const GbsPreprocess& pre, GbsStats* stats = nullptr);

/// Convenience overload: preprocess + solve in one call.
Result<UrrSolution> SolveGbs(const UrrInstance& instance, SolverContext* ctx,
                             const GbsOptions& options, GbsStats* stats = nullptr);

}  // namespace urr

#endif  // URR_URR_GBS_H_
