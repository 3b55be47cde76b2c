// Location-history similarity: the paper's fallback for riders without
// social accounts — "we can measure their similarities based on their
// ridesharing history or historical location records (e.g., common trips or
// popular locations)". We realize it as Jaccard over the sets of places a
// user has checked in at (coarsened to areas so nearby visits count as the
// same place).
#ifndef URR_SOCIAL_HISTORY_SIMILARITY_H_
#define URR_SOCIAL_HISTORY_SIMILARITY_H_

#include <vector>

#include "common/result.h"
#include "graph/road_network.h"
#include "social/checkins.h"

namespace urr {

/// Jaccard similarity over users' visited-place sets.
class LocationHistorySimilarity {
 public:
  /// Builds visited-place sets from `checkins`, coarsening each check-in
  /// node to a grid cell of roughly `num_users x target_cells` resolution so
  /// that visits to nearby corners count as the same place. Requires the
  /// network to have coordinates.
  static Result<LocationHistorySimilarity> Build(const RoadNetwork& network,
                                                 const CheckInMap& checkins,
                                                 UserId num_users,
                                                 int target_cells = 256);

  /// Jaccard over the two users' visited-cell sets; 0 when either is empty
  /// or out of range.
  double Similarity(UserId a, UserId b) const;

  /// Number of distinct places user `u` has visited.
  int NumPlaces(UserId u) const;

  UserId num_users() const { return static_cast<UserId>(places_.size()); }

 private:
  LocationHistorySimilarity() = default;
  // Sorted, deduplicated visited-cell ids per user.
  std::vector<std::vector<int32_t>> places_;
};

}  // namespace urr

#endif  // URR_SOCIAL_HISTORY_SIMILARITY_H_
