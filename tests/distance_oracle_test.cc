#include "routing/distance_oracle.h"

#include <gtest/gtest.h>

namespace urr {
namespace {

TEST(DistanceOracleTest, DijkstraOracleBasics) {
  auto g = RoadNetwork::Build(3, {{0, 1, 2}, {1, 2, 3}});
  ASSERT_TRUE(g.ok());
  DijkstraOracle oracle(*g);
  EXPECT_DOUBLE_EQ(oracle.Distance(0, 2), 5);
  EXPECT_DOUBLE_EQ(oracle.Distance(0, 0), 0);
  EXPECT_EQ(oracle.Distance(2, 0), kInfiniteCost);
  EXPECT_EQ(oracle.num_calls(), 3);
}

}  // namespace
}  // namespace urr
