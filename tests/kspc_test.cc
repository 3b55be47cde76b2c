#include "cover/kspc.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "cover/areas.h"
#include "graph/generators.h"

namespace urr {
namespace {

TEST(KspcTest, RejectsBadK) {
  Rng rng(1);
  auto g = RoadNetwork::Build(2, {{0, 1, 1}});
  ASSERT_TRUE(g.ok());
  KspcOptions opt;
  opt.k = 1;
  EXPECT_FALSE(KShortestPathCover(*g, opt, &rng).ok());
}

TEST(KspcTest, LineGraphCover) {
  // Path 0-1-2-3-4 (two-way). For k=2 every edge (2-vertex shortest path)
  // must be covered: the cover is a vertex cover of the path, size >= 2.
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < 5; ++v) {
    edges.push_back({v, v + 1, 1});
    edges.push_back({v + 1, v, 1});
  }
  auto g = RoadNetwork::Build(5, edges);
  ASSERT_TRUE(g.ok());
  Rng rng(2);
  KspcOptions opt;
  opt.k = 2;
  auto cover = KShortestPathCover(*g, opt, &rng);
  ASSERT_TRUE(cover.ok());
  EXPECT_TRUE(VerifyKspc(*g, *cover, 2));
  EXPECT_GE(cover->size(), 2u);
  EXPECT_LT(cover->size(), 5u);  // pruning must remove something
}

class KspcPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(KspcPropertyTest, CoverSatisfiesDefinitionOnRandomGrids) {
  const int k = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());
  Rng rng(seed);
  GridCityOptions opt;
  opt.width = 8;
  opt.height = 8;
  opt.keep_probability = 0.9;
  auto g = GenerateGridCity(opt, &rng);
  ASSERT_TRUE(g.ok());
  KspcOptions kopt;
  kopt.k = k;
  auto cover = KShortestPathCover(*g, kopt, &rng);
  ASSERT_TRUE(cover.ok());
  // The definition: no shortest path with k vertices avoids the cover.
  EXPECT_TRUE(VerifyKspc(*g, *cover, k));
  // Non-trivial: the pruning must shrink the cover below |V|.
  EXPECT_LT(cover->size(), static_cast<size_t>(g->num_nodes()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KspcPropertyTest,
    ::testing::Combine(::testing::Values(2, 3, 4), ::testing::Values(7, 8)),
    [](const auto& info) {
      std::string name = "k";
      name += std::to_string(std::get<0>(info.param));
      name += "seed";
      name += std::to_string(std::get<1>(info.param));
      return name;
    });

TEST(KspcTest, LargerKGivesSmallerCover) {
  Rng rng(9);
  GridCityOptions opt;
  opt.width = 12;
  opt.height = 12;
  auto g = GenerateGridCity(opt, &rng);
  ASSERT_TRUE(g.ok());
  size_t prev = static_cast<size_t>(g->num_nodes()) + 1;
  for (int k : {2, 3, 5}) {
    KspcOptions kopt;
    kopt.k = k;
    auto cover = KShortestPathCover(*g, kopt, &rng);
    ASSERT_TRUE(cover.ok());
    EXPECT_LT(cover->size(), prev);
    prev = cover->size();
  }
}

TEST(KspcTest, VerifierDetectsViolations) {
  // Path 0-1-2 with empty cover: the 2-vertex shortest path 0-1 is
  // uncovered.
  auto g = RoadNetwork::Build(3, {{0, 1, 1}, {1, 0, 1}, {1, 2, 1}, {2, 1, 1}});
  ASSERT_TRUE(g.ok());
  EXPECT_FALSE(VerifyKspc(*g, {}, 2));
  EXPECT_TRUE(VerifyKspc(*g, {1}, 2));   // middle vertex hits every edge
  EXPECT_FALSE(VerifyKspc(*g, {0}, 2));  // edge 1-2 uncovered
  EXPECT_TRUE(VerifyKspc(*g, {0, 1, 2}, 2));
}

TEST(AreasTest, EveryNodeAttachedToClosestKey) {
  Rng rng(10);
  GridCityOptions opt;
  opt.width = 10;
  opt.height = 10;
  auto g = GenerateGridCity(opt, &rng);
  ASSERT_TRUE(g.ok());
  KspcOptions kopt;
  kopt.k = 3;
  auto cover = KShortestPathCover(*g, kopt, &rng);
  ASSERT_TRUE(cover.ok());
  auto areas = BuildAreas(*g, *cover);
  ASSERT_TRUE(areas.ok());
  EXPECT_EQ(areas->num_areas(), static_cast<int>(cover->size()));
  // Total membership covers every node exactly once.
  size_t members = 0;
  for (const auto& m : areas->members) members += m.size();
  EXPECT_EQ(members, static_cast<size_t>(g->num_nodes()));
  for (NodeId v = 0; v < g->num_nodes(); ++v) {
    ASSERT_GE(areas->area_of_node[static_cast<size_t>(v)], 0);
    ASSERT_LT(areas->area_of_node[static_cast<size_t>(v)], areas->num_areas());
  }
  // Key vertices belong to their own areas.
  for (int a = 0; a < areas->num_areas(); ++a) {
    EXPECT_EQ(areas->area_of_node[static_cast<size_t>(
                  areas->key_vertex[static_cast<size_t>(a)])],
              a);
  }
}

TEST(AreasTest, RejectsBadCover) {
  auto g = RoadNetwork::Build(2, {{0, 1, 1}});
  ASSERT_TRUE(g.ok());
  EXPECT_FALSE(BuildAreas(*g, {}).ok());
  EXPECT_FALSE(BuildAreas(*g, {0, 0}).ok());
  EXPECT_FALSE(BuildAreas(*g, {5}).ok());
}

TEST(AreasTest, SingleKeyGetsEverything) {
  auto g = RoadNetwork::Build(3, {{0, 1, 1}, {1, 2, 1}});
  ASSERT_TRUE(g.ok());
  auto areas = BuildAreas(*g, {1});
  ASSERT_TRUE(areas.ok());
  EXPECT_EQ(areas->num_areas(), 1);
  EXPECT_EQ(areas->members[0].size(), 3u);
}

}  // namespace
}  // namespace urr
