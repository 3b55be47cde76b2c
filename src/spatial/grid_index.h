// Uniform-grid spatial index over node coordinates: nearest-node lookup by
// Euclidean distance.
#ifndef URR_SPATIAL_GRID_INDEX_H_
#define URR_SPATIAL_GRID_INDEX_H_

#include <vector>

#include "common/result.h"
#include "graph/road_network.h"

namespace urr {

/// Buckets the network's nodes into a uniform grid over their bounding box.
class GridIndex {
 public:
  /// Builds an index with roughly `target_cells` cells. Requires the network
  /// to have coordinates.
  static Result<GridIndex> Build(const RoadNetwork& network,
                                 int target_cells = 4096);

  /// Nearest indexed node to `center` by Euclidean distance (expanding-ring
  /// search); kInvalidNode for an empty index.
  NodeId NearestNode(const Coord& center) const;

 private:
  GridIndex() = default;
  /// Column/row of an x/y coordinate, clamped to the grid (coordinates
  /// outside the build-time bounding box land in a border cell).
  int CellX(double x) const;
  int CellY(double y) const;
  const std::vector<NodeId>& Cell(int cx, int cy) const {
    return cells_[static_cast<size_t>(cy) * static_cast<size_t>(cells_x_) +
                  static_cast<size_t>(cx)];
  }

  const RoadNetwork* network_ = nullptr;
  double min_x_ = 0, min_y_ = 0, cell_w_ = 1, cell_h_ = 1;
  int cells_x_ = 1, cells_y_ = 1;
  std::vector<std::vector<NodeId>> cells_;
};

}  // namespace urr

#endif  // URR_SPATIAL_GRID_INDEX_H_
