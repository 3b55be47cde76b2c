#include "spatial/grid_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace urr {

Result<GridIndex> GridIndex::Build(const RoadNetwork& network,
                                   int target_cells) {
  if (!network.has_coords()) {
    return Status::InvalidArgument("GridIndex requires node coordinates");
  }
  if (target_cells < 1) {
    return Status::InvalidArgument("target_cells must be >= 1");
  }
  GridIndex index;
  index.network_ = &network;
  double min_x = std::numeric_limits<double>::infinity();
  double min_y = std::numeric_limits<double>::infinity();
  double max_x = -std::numeric_limits<double>::infinity();
  double max_y = -std::numeric_limits<double>::infinity();
  for (NodeId v = 0; v < network.num_nodes(); ++v) {
    const Coord& c = network.coord(v);
    min_x = std::min(min_x, c.x);
    min_y = std::min(min_y, c.y);
    max_x = std::max(max_x, c.x);
    max_y = std::max(max_y, c.y);
  }
  if (network.num_nodes() == 0) {
    min_x = min_y = 0;
    max_x = max_y = 1;
  }
  const double width = std::max(max_x - min_x, 1e-9);
  const double height = std::max(max_y - min_y, 1e-9);
  const double aspect = width / height;
  index.cells_x_ = std::max(1, static_cast<int>(std::sqrt(target_cells * aspect)));
  index.cells_y_ = std::max(1, target_cells / std::max(1, index.cells_x_));
  index.min_x_ = min_x;
  index.min_y_ = min_y;
  index.cell_w_ = width / index.cells_x_;
  index.cell_h_ = height / index.cells_y_;
  index.cells_.assign(
      static_cast<size_t>(index.cells_x_) * static_cast<size_t>(index.cells_y_),
      {});
  for (NodeId v = 0; v < network.num_nodes(); ++v) {
    const Coord& c = network.coord(v);
    const size_t cell =
        static_cast<size_t>(index.CellY(c.y)) * static_cast<size_t>(index.cells_x_) +
        static_cast<size_t>(index.CellX(c.x));
    index.cells_[cell].push_back(v);
  }
  return index;
}

int GridIndex::CellX(double x) const {
  int cx = static_cast<int>((x - min_x_) / cell_w_);
  return std::clamp(cx, 0, cells_x_ - 1);
}

int GridIndex::CellY(double y) const {
  int cy = static_cast<int>((y - min_y_) / cell_h_);
  return std::clamp(cy, 0, cells_y_ - 1);
}

NodeId GridIndex::NearestNode(const Coord& center) const {
  if (network_->num_nodes() == 0) return kInvalidNode;
  const int cx = CellX(center.x);
  const int cy = CellY(center.y);
  NodeId best = kInvalidNode;
  double best_d = std::numeric_limits<double>::infinity();
  const int max_ring = std::max(cells_x_, cells_y_);
  for (int ring = 0; ring <= max_ring; ++ring) {
    bool any_cell = false;
    for (int dy = -ring; dy <= ring; ++dy) {
      for (int dx = -ring; dx <= ring; ++dx) {
        if (std::max(std::abs(dx), std::abs(dy)) != ring) continue;  // ring only
        const int x = cx + dx, y = cy + dy;
        if (x < 0 || x >= cells_x_ || y < 0 || y >= cells_y_) continue;
        any_cell = true;
        for (NodeId v : Cell(x, y)) {
          const double d = EuclideanDistance(network_->coord(v), center);
          if (d < best_d) {
            best_d = d;
            best = v;
          }
        }
      }
    }
    // Once a candidate exists and the next ring cannot contain anything
    // closer, stop. Conservative bound: ring*min(cell_w,cell_h) >= best_d.
    if (best != kInvalidNode &&
        ring * std::min(cell_w_, cell_h_) >= best_d) {
      break;
    }
    if (!any_cell && ring > 0 && best != kInvalidNode) break;
  }
  return best;
}

}  // namespace urr
