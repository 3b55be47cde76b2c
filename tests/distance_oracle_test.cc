#include "routing/distance_oracle.h"

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "graph/generators.h"

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

TEST(DistanceOracleTest, ChOracleMatchesDijkstraOracle) {
  Rng rng(51);
  GridCityOptions opt;
  opt.width = 14;
  opt.height = 14;
  auto g = GenerateGridCity(opt, &rng);
  ASSERT_TRUE(g.ok());
  auto ch = ChOracle::Create(*g);
  ASSERT_TRUE(ch.ok());
  DijkstraOracle ref(*g);
  for (int i = 0; i < 200; ++i) {
    const NodeId s = static_cast<NodeId>(rng.UniformInt(0, g->num_nodes() - 1));
    const NodeId t = static_cast<NodeId>(rng.UniformInt(0, g->num_nodes() - 1));
    EXPECT_NEAR((*ch)->Distance(s, t), ref.Distance(s, t), 1e-6);
  }
}

// A clone shares the hierarchy instead of borrowing it, so it keeps
// answering after the oracle it was cloned from is destroyed.
TEST(DistanceOracleTest, ChCloneOutlivesOriginal) {
  Rng rng(52);
  GridCityOptions opt;
  opt.width = 10;
  opt.height = 10;
  auto g = GenerateGridCity(opt, &rng);
  ASSERT_TRUE(g.ok());
  auto ch = ChOracle::Create(*g);
  ASSERT_TRUE(ch.ok());
  std::unique_ptr<DistanceOracle> clone = (*ch)->Clone();
  ASSERT_NE(clone, nullptr);
  const ContractionHierarchy* hierarchy = &(*ch)->hierarchy();
  ch->reset();
  DijkstraOracle ref(*g);
  for (int i = 0; i < 50; ++i) {
    const NodeId s = static_cast<NodeId>(rng.UniformInt(0, g->num_nodes() - 1));
    const NodeId t = static_cast<NodeId>(rng.UniformInt(0, g->num_nodes() - 1));
    EXPECT_NEAR(clone->Distance(s, t), ref.Distance(s, t), 1e-6);
  }
  EXPECT_EQ(clone->num_calls(), 50);
  // Shared, not copied: the clone is another ChOracle over the same store.
  auto* typed = dynamic_cast<ChOracle*>(clone.get());
  ASSERT_NE(typed, nullptr);
  EXPECT_EQ(&typed->hierarchy(), hierarchy);
}

}  // namespace
}  // namespace urr
