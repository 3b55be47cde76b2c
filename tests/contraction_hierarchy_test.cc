#include "routing/contraction_hierarchy.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/binary_io.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/generators.h"
#include "routing/dijkstra.h"

namespace urr {
namespace {

TEST(ChTest, TinyLineGraph) {
  auto g = RoadNetwork::Build(4, {{0, 1, 1}, {1, 2, 2}, {2, 3, 3}});
  ASSERT_TRUE(g.ok());
  auto ch = ContractionHierarchy::Build(*g);
  ASSERT_TRUE(ch.ok());
  ChQuery q(*ch);
  EXPECT_DOUBLE_EQ(q.Distance(0, 3), 6);
  EXPECT_DOUBLE_EQ(q.Distance(0, 0), 0);
  EXPECT_DOUBLE_EQ(q.Distance(3, 0), kInfiniteCost);
  EXPECT_EQ(q.num_queries(), 3);
}

TEST(ChTest, RanksAreAPermutation) {
  Rng rng(41);
  GridCityOptions opt;
  opt.width = 10;
  opt.height = 10;
  auto g = GenerateGridCity(opt, &rng);
  ASSERT_TRUE(g.ok());
  auto ch = ContractionHierarchy::Build(*g);
  ASSERT_TRUE(ch.ok());
  std::vector<bool> seen(static_cast<size_t>(g->num_nodes()), false);
  for (NodeId v = 0; v < g->num_nodes(); ++v) {
    const int32_t r = ch->rank(v);
    ASSERT_GE(r, 0);
    ASSERT_LT(r, g->num_nodes());
    EXPECT_FALSE(seen[static_cast<size_t>(r)]);
    seen[static_cast<size_t>(r)] = true;
  }
}

/// EXPECT_NEAR chokes on (inf, inf); compare with explicit inf handling.
void ExpectDistanceEq(Cost got, Cost want, NodeId s, NodeId t) {
  if (want == kInfiniteCost || got == kInfiniteCost) {
    EXPECT_EQ(got, want) << s << " -> " << t;
  } else {
    EXPECT_NEAR(got, want, 1e-6) << s << " -> " << t;
  }
}

TEST(ChTest, MatchesDijkstraOnRandomGrid) {
  Rng rng(42);
  GridCityOptions opt;
  opt.width = 18;
  opt.height = 14;
  opt.keep_probability = 0.85;
  opt.arterial_fraction = 0.03;
  auto g = GenerateGridCity(opt, &rng);
  ASSERT_TRUE(g.ok());
  auto ch = ContractionHierarchy::Build(*g);
  ASSERT_TRUE(ch.ok());
  ChQuery q(*ch);
  DijkstraEngine ref(*g);
  for (int trial = 0; trial < 300; ++trial) {
    const NodeId s = static_cast<NodeId>(rng.UniformInt(0, g->num_nodes() - 1));
    const NodeId t = static_cast<NodeId>(rng.UniformInt(0, g->num_nodes() - 1));
    ExpectDistanceEq(q.Distance(s, t), ref.Distance(s, t), s, t);
  }
}

TEST(ChTest, MatchesDijkstraOnDirectedGraph) {
  // Random sparse directed graph: one-way edges exercise the separate
  // in/out overlay lists and the two CSR halves.
  Rng rng(43);
  const NodeId n = 120;
  std::vector<Edge> edges;
  std::vector<Coord> coords(static_cast<size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    coords[static_cast<size_t>(v)] = {rng.Uniform(0, 100), rng.Uniform(0, 100)};
  }
  for (NodeId v = 0; v < n; ++v) {
    for (int e = 0; e < 3; ++e) {
      const NodeId w = static_cast<NodeId>(rng.UniformInt(0, n - 1));
      if (w != v) edges.push_back({v, w, rng.Uniform(1, 10)});
    }
  }
  auto g = RoadNetwork::Build(n, edges, coords);
  ASSERT_TRUE(g.ok());
  auto ch = ContractionHierarchy::Build(*g);
  ASSERT_TRUE(ch.ok());
  ChQuery q(*ch);
  DijkstraEngine ref(*g);
  for (int trial = 0; trial < 400; ++trial) {
    const NodeId s = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    const NodeId t = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    ExpectDistanceEq(q.Distance(s, t), ref.Distance(s, t), s, t);
  }
}

TEST(ChTest, PathUnpacksToOriginalEdges) {
  Rng rng(45);
  GridCityOptions opt;
  opt.width = 15;
  opt.height = 12;
  opt.arterial_fraction = 0.05;  // shortcuts guaranteed interesting
  auto g = GenerateGridCity(opt, &rng);
  ASSERT_TRUE(g.ok());
  auto ch = ContractionHierarchy::Build(*g);
  ASSERT_TRUE(ch.ok());
  ChQuery q(*ch);
  DijkstraEngine ref(*g);
  int nontrivial = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const NodeId s = static_cast<NodeId>(rng.UniformInt(0, g->num_nodes() - 1));
    const NodeId t = static_cast<NodeId>(rng.UniformInt(0, g->num_nodes() - 1));
    std::vector<NodeId> path;
    const Cost d = q.Path(s, t, &path);
    const Cost want = ref.Distance(s, t);
    if (want == kInfiniteCost) {
      EXPECT_EQ(d, kInfiniteCost);
      EXPECT_TRUE(path.empty());
      continue;
    }
    ASSERT_NEAR(d, want, 1e-6) << s << " -> " << t;
    // The path must be a real walk in the original network whose edge
    // costs sum to the distance.
    ASSERT_GE(path.size(), 1u);
    EXPECT_EQ(path.front(), s);
    EXPECT_EQ(path.back(), t);
    Cost total = 0;
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      const Cost leg = g->EdgeCost(path[i], path[i + 1]);
      ASSERT_LT(leg, kInfiniteCost)
          << "no original edge " << path[i] << " -> " << path[i + 1];
      total += leg;
    }
    EXPECT_NEAR(total, want, 1e-6);
    if (path.size() > 3) ++nontrivial;
  }
  EXPECT_GT(nontrivial, 30);  // the sweep must exercise real unpacking
}

TEST(ChTest, PathIdentityAndUnreachable) {
  auto g = RoadNetwork::Build(3, {{0, 1, 2}});
  ASSERT_TRUE(g.ok());
  auto ch = ContractionHierarchy::Build(*g);
  ASSERT_TRUE(ch.ok());
  ChQuery q(*ch);
  std::vector<NodeId> path;
  EXPECT_DOUBLE_EQ(q.Path(1, 1, &path), 0);
  EXPECT_EQ(path, (std::vector<NodeId>{1}));
  EXPECT_EQ(q.Path(1, 0, &path), kInfiniteCost);
  EXPECT_TRUE(path.empty());
  EXPECT_DOUBLE_EQ(q.Path(0, 1, &path), 2);
  EXPECT_EQ(path, (std::vector<NodeId>{0, 1}));
}

TEST(ChTest, HandlesParallelEdgesAndSelfLoops) {
  auto g = RoadNetwork::Build(3, {{0, 1, 5},
                                  {0, 1, 2},
                                  {1, 1, 1},
                                  {1, 2, 4},
                                  {1, 2, 7}});
  ASSERT_TRUE(g.ok());
  auto ch = ContractionHierarchy::Build(*g);
  ASSERT_TRUE(ch.ok());
  ChQuery q(*ch);
  EXPECT_DOUBLE_EQ(q.Distance(0, 2), 6);
}

TEST(ChTest, DisconnectedComponents) {
  auto g = RoadNetwork::Build(4, {{0, 1, 1}, {2, 3, 1}});
  ASSERT_TRUE(g.ok());
  auto ch = ContractionHierarchy::Build(*g);
  ASSERT_TRUE(ch.ok());
  ChQuery q(*ch);
  EXPECT_DOUBLE_EQ(q.Distance(0, 1), 1);
  EXPECT_EQ(q.Distance(0, 3), kInfiniteCost);
}

TEST(ChParallelTest, SerializedBytesIdenticalAcrossThreadCounts) {
  Rng rng(77);
  GridCityOptions opt;
  opt.width = 16;
  opt.height = 12;
  auto g = GenerateGridCity(opt, &rng);
  ASSERT_TRUE(g.ok());

  auto bytes_with_threads = [&](int threads) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    ChOptions options;
    options.pool = pool.get();
    auto ch = ContractionHierarchy::Build(*g, options);
    EXPECT_TRUE(ch.ok());
    BinaryWriter writer;
    ch->Serialize(&writer);
    return writer.buffer();
  };

  const std::string serial = bytes_with_threads(1);
  ASSERT_FALSE(serial.empty());
  for (const int threads : {2, 8}) {
    EXPECT_EQ(bytes_with_threads(threads), serial)
        << "hierarchy built with " << threads
        << " threads must be bit-identical to the serial build";
  }
}

// Regression: simultaneous independent-set contraction with heavily tied
// edge costs. Two same-round winners can witness each other's shortcut at
// exactly equal cost; the round simulation must not let both suppress
// (witness comparison must be strict), or the path disappears entirely and
// queries silently overestimate.
TEST(ChParallelTest, ExactOnHeavilyTiedCosts) {
  Rng rng(20170512);
  GridCityOptions opt;
  opt.width = 12;
  opt.height = 10;
  auto g = GenerateGridCity(opt, &rng);
  ASSERT_TRUE(g.ok());
  std::vector<Edge> edges = g->EdgeList();
  // Quantize coarsely: nearly every block edge collapses onto the same cost.
  for (Edge& e : edges) e.cost = std::max(1.0, std::round(e.cost / 16.0)) * 16.0;
  auto q = RoadNetwork::Build(g->num_nodes(), std::move(edges), g->coords());
  ASSERT_TRUE(q.ok());

  auto ch = ContractionHierarchy::Build(*q);
  ASSERT_TRUE(ch.ok());
  ChQuery query(*ch);
  DijkstraEngine ref(*q);
  std::vector<NodeId> targets;
  for (NodeId t = 0; t < q->num_nodes(); t += 5) targets.push_back(t);
  for (NodeId s = 0; s < q->num_nodes(); s += 7) {
    const std::vector<Cost> want = ref.Distances(s, targets);
    for (size_t j = 0; j < targets.size(); ++j) {
      ExpectDistanceEq(query.Distance(s, targets[j]), want[j], s, targets[j]);
    }
  }
}

}  // namespace
}  // namespace urr
