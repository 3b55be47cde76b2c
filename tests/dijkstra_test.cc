#include "routing/dijkstra.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "graph/generators.h"

namespace urr {
namespace {

RoadNetwork Line() {
  // 0 -1- 1 -2- 2 -3- 3 (one way).
  return *RoadNetwork::Build(4, {{0, 1, 1}, {1, 2, 2}, {2, 3, 3}});
}

/// Test-local Bellman-Ford: one-to-all distances by relaxing every edge
/// until nothing improves, independent of any priority-queue search.
std::vector<Cost> BellmanFord(const RoadNetwork& g, NodeId source) {
  std::vector<Cost> dist(static_cast<size_t>(g.num_nodes()), kInfiniteCost);
  dist[static_cast<size_t>(source)] = 0;
  for (bool changed = true; changed;) {
    changed = false;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const Cost dv = dist[static_cast<size_t>(v)];
      if (dv == kInfiniteCost) continue;
      auto heads = g.OutNeighbors(v);
      auto costs = g.OutCosts(v);
      for (size_t i = 0; i < heads.size(); ++i) {
        if (dv + costs[i] < dist[static_cast<size_t>(heads[i])]) {
          dist[static_cast<size_t>(heads[i])] = dv + costs[i];
          changed = true;
        }
      }
    }
  }
  return dist;
}

TEST(DijkstraTest, OneToAllDistances) {
  RoadNetwork g = Line();
  DijkstraEngine engine(g);
  const std::vector<Cost> d = engine.Distances(0, {0, 1, 2, 3});
  EXPECT_DOUBLE_EQ(d[0], 0);
  EXPECT_DOUBLE_EQ(d[1], 1);
  EXPECT_DOUBLE_EQ(d[2], 3);
  EXPECT_DOUBLE_EQ(d[3], 6);
}

TEST(DijkstraTest, UnreachableIsInfinite) {
  RoadNetwork g = Line();
  DijkstraEngine engine(g);
  // One way: nothing but 3 itself is reachable from 3.
  const std::vector<Cost> d = engine.Distances(3, {3, 0});
  EXPECT_DOUBLE_EQ(d[0], 0);
  EXPECT_EQ(d[1], kInfiniteCost);
}

TEST(DijkstraTest, ReverseSearchUsesInEdges) {
  RoadNetwork g = Line();
  DijkstraEngine engine(g);
  std::vector<Cost> to3(4, kInfiniteCost);  // distances TO 3
  engine.Explore(3, kInfiniteCost, /*reverse=*/true,
                 [&](NodeId v, Cost d) { to3[static_cast<size_t>(v)] = d; });
  EXPECT_DOUBLE_EQ(to3[0], 6);
  EXPECT_DOUBLE_EQ(to3[2], 3);
}

TEST(DijkstraTest, RadiusBoundsSearch) {
  RoadNetwork g = Line();
  DijkstraEngine engine(g);
  const std::vector<Cost> d = engine.Distances(0, {2, 3}, /*radius=*/3);
  EXPECT_DOUBLE_EQ(d[0], 3);
  EXPECT_EQ(d[1], kInfiniteCost);  // beyond the radius reads unreachable
}

TEST(DijkstraEngineTest, PointToPointMatchesOneToAll) {
  Rng rng(31);
  GridCityOptions opt;
  opt.width = 15;
  opt.height = 15;
  auto g = GenerateGridCity(opt, &rng);
  ASSERT_TRUE(g.ok());
  DijkstraEngine engine(*g);
  const std::vector<Cost> full = BellmanFord(*g, 0);
  for (NodeId t = 0; t < g->num_nodes(); t += 13) {
    EXPECT_DOUBLE_EQ(engine.Distance(0, t), full[static_cast<size_t>(t)]);
  }
}

TEST(DijkstraEngineTest, ReusableAcrossQueries) {
  RoadNetwork g = Line();
  DijkstraEngine engine(g);
  EXPECT_DOUBLE_EQ(engine.Distance(0, 3), 6);
  EXPECT_DOUBLE_EQ(engine.Distance(1, 2), 2);
  EXPECT_DOUBLE_EQ(engine.Distance(3, 0), kInfiniteCost);
  EXPECT_DOUBLE_EQ(engine.Distance(2, 2), 0);
}

TEST(DijkstraEngineTest, MultiTargetDistances) {
  RoadNetwork g = Line();
  DijkstraEngine engine(g);
  auto d = engine.Distances(0, {3, 1, 1, 0});
  ASSERT_EQ(d.size(), 4u);
  EXPECT_DOUBLE_EQ(d[0], 6);
  EXPECT_DOUBLE_EQ(d[1], 1);
  EXPECT_DOUBLE_EQ(d[2], 1);  // duplicate targets each resolved
  EXPECT_DOUBLE_EQ(d[3], 0);
}

TEST(DijkstraEngineTest, MultiTargetRadius) {
  RoadNetwork g = Line();
  DijkstraEngine engine(g);
  auto d = engine.Distances(0, {1, 3}, /*radius=*/2);
  EXPECT_DOUBLE_EQ(d[0], 1);
  EXPECT_EQ(d[1], kInfiniteCost);
}

TEST(DijkstraEngineTest, ExploreVisitsWithinRadius) {
  RoadNetwork g = Line();
  DijkstraEngine engine(g);
  std::vector<NodeId> visited;
  engine.Explore(0, 3.0, /*reverse=*/false,
                 [&](NodeId v, Cost) { visited.push_back(v); });
  EXPECT_EQ(visited, (std::vector<NodeId>{0, 1, 2}));
}

TEST(DijkstraEngineTest, ExploreReverse) {
  RoadNetwork g = Line();
  DijkstraEngine engine(g);
  std::vector<NodeId> visited;
  engine.Explore(3, 5.0, /*reverse=*/true,
                 [&](NodeId v, Cost) { visited.push_back(v); });
  EXPECT_EQ(visited, (std::vector<NodeId>{3, 2, 1}));
}

}  // namespace
}  // namespace urr
