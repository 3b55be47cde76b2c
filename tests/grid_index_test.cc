#include "spatial/grid_index.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "graph/generators.h"

namespace urr {
namespace {

Result<RoadNetwork> SmallCity(Rng* rng) {
  GridCityOptions opt;
  opt.width = 12;
  opt.height = 12;
  return GenerateGridCity(opt, rng);
}

TEST(GridIndexTest, RequiresCoordinates) {
  auto g = RoadNetwork::Build(2, {{0, 1, 1}});
  ASSERT_TRUE(g.ok());
  EXPECT_FALSE(GridIndex::Build(*g).ok());
}

TEST(GridIndexTest, RejectsBadCellCount) {
  Rng rng(61);
  auto g = SmallCity(&rng);
  ASSERT_TRUE(g.ok());
  EXPECT_FALSE(GridIndex::Build(*g, 0).ok());
}

TEST(GridIndexTest, NearestNodeMatchesBruteForce) {
  Rng rng(64);
  auto g = SmallCity(&rng);
  ASSERT_TRUE(g.ok());
  auto index = GridIndex::Build(*g, 49);
  ASSERT_TRUE(index.ok());
  for (int trial = 0; trial < 50; ++trial) {
    const Coord q = {rng.Uniform(-100, 900), rng.Uniform(-100, 900)};
    const NodeId got = index->NearestNode(q);
    ASSERT_NE(got, kInvalidNode);
    double best = kInfiniteCost;
    for (NodeId v = 0; v < g->num_nodes(); ++v) {
      best = std::min(best, EuclideanDistance(g->coord(v), q));
    }
    EXPECT_NEAR(EuclideanDistance(g->coord(got), q), best, 1e-9);
  }
}

TEST(GridIndexTest, SingleNodeNetwork) {
  auto g = RoadNetwork::Build(1, {}, {{5, 5}});
  ASSERT_TRUE(g.ok());
  auto index = GridIndex::Build(*g, 16);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->NearestNode({100, 100}), 0);
}

}  // namespace
}  // namespace urr
