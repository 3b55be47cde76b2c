#include "routing/contraction_hierarchy.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/generators.h"
#include "routing/dijkstra.h"
#include "routing/hub_labels.h"

// The hierarchy answers no queries itself; it is checked through what it is
// built for: hub labels extracted from it must match Dijkstra.
namespace urr {
namespace {

/// Builds the hierarchy of `g` and the hub labels extracted from it.
HubLabels LabelsOver(const RoadNetwork& g) {
  auto ch = ContractionHierarchy::Build(g);
  EXPECT_TRUE(ch.ok()) << ch.status();
  if (!ch.ok()) return {};
  auto labels = HubLabels::Build(*ch);
  EXPECT_TRUE(labels.ok()) << labels.status();
  return labels.ok() ? *std::move(labels) : HubLabels();
}

/// Every (s, t) distance of a small graph, hub labels against Dijkstra.
void ExpectAllPairsMatchDijkstra(const RoadNetwork& g, const HubLabels& hl) {
  DijkstraEngine ref(g);
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      EXPECT_EQ(hl.Distance(s, t), ref.Distance(s, t)) << s << " -> " << t;
    }
  }
}

TEST(ChTest, TinyLineGraph) {
  auto g = RoadNetwork::Build(4, {{0, 1, 1}, {1, 2, 2}, {2, 3, 3}});
  ASSERT_TRUE(g.ok());
  const HubLabels hl = LabelsOver(*g);
  ASSERT_EQ(hl.num_nodes(), 4);
  EXPECT_DOUBLE_EQ(hl.Distance(0, 3), 6);
  EXPECT_DOUBLE_EQ(hl.Distance(0, 0), 0);
  EXPECT_EQ(hl.Distance(3, 0), kInfiniteCost);
  ExpectAllPairsMatchDijkstra(*g, hl);
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
  const HubLabels hl = LabelsOver(*g);
  ASSERT_EQ(hl.num_nodes(), g->num_nodes());
  DijkstraEngine ref(*g);
  for (int trial = 0; trial < 300; ++trial) {
    const NodeId s = static_cast<NodeId>(rng.UniformInt(0, g->num_nodes() - 1));
    const NodeId t = static_cast<NodeId>(rng.UniformInt(0, g->num_nodes() - 1));
    ExpectDistanceEq(hl.Distance(s, t), ref.Distance(s, t), s, t);
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
  const HubLabels hl = LabelsOver(*g);
  ASSERT_EQ(hl.num_nodes(), n);
  DijkstraEngine ref(*g);
  for (int trial = 0; trial < 400; ++trial) {
    const NodeId s = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    const NodeId t = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    ExpectDistanceEq(hl.Distance(s, t), ref.Distance(s, t), s, t);
  }
}

TEST(ChTest, HandlesParallelEdgesAndSelfLoops) {
  auto g = RoadNetwork::Build(3, {{0, 1, 5},
                                  {0, 1, 2},
                                  {1, 1, 1},
                                  {1, 2, 4},
                                  {1, 2, 7}});
  ASSERT_TRUE(g.ok());
  const HubLabels hl = LabelsOver(*g);
  ASSERT_EQ(hl.num_nodes(), 3);
  EXPECT_DOUBLE_EQ(hl.Distance(0, 2), 6);
  ExpectAllPairsMatchDijkstra(*g, hl);
}

TEST(ChTest, DisconnectedComponents) {
  auto g = RoadNetwork::Build(4, {{0, 1, 1}, {2, 3, 1}});
  ASSERT_TRUE(g.ok());
  const HubLabels hl = LabelsOver(*g);
  ASSERT_EQ(hl.num_nodes(), 4);
  EXPECT_DOUBLE_EQ(hl.Distance(0, 1), 1);
  EXPECT_EQ(hl.Distance(0, 3), kInfiniteCost);
  ExpectAllPairsMatchDijkstra(*g, hl);
}

// The hierarchy is not persisted; what a parallel build must reproduce is
// what leaves it: every node's rank, the upward edge count and the bytes
// of the hub labels extracted from it.
TEST(ChParallelTest, SerializedBytesIdenticalAcrossThreadCounts) {
  Rng rng(77);
  GridCityOptions opt;
  opt.width = 16;
  opt.height = 12;
  auto g = GenerateGridCity(opt, &rng);
  ASSERT_TRUE(g.ok());

  struct Built {
    std::vector<int32_t> ranks;
    int64_t upward_edges = 0;
    std::string label_bytes;
  };
  auto build_with_threads = [&](int threads) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    ChOptions options;
    options.pool = pool.get();
    Built built;
    auto ch = ContractionHierarchy::Build(*g, options);
    EXPECT_TRUE(ch.ok());
    if (!ch.ok()) return built;
    for (NodeId v = 0; v < ch->num_nodes(); ++v) {
      built.ranks.push_back(ch->rank(v));
    }
    built.upward_edges = ch->num_upward_edges();
    auto hl = HubLabels::Build(*ch, pool.get());
    EXPECT_TRUE(hl.ok());
    if (!hl.ok()) return built;
    BinaryWriter writer;
    hl->Serialize(&writer);
    built.label_bytes = writer.buffer();
    return built;
  };

  const Built serial = build_with_threads(1);
  ASSERT_EQ(serial.ranks.size(), static_cast<size_t>(g->num_nodes()));
  ASSERT_FALSE(serial.label_bytes.empty());
  for (const int threads : {2, 8}) {
    const Built parallel = build_with_threads(threads);
    EXPECT_EQ(parallel.ranks, serial.ranks)
        << "contraction order with " << threads << " threads";
    EXPECT_EQ(parallel.upward_edges, serial.upward_edges)
        << "upward edges with " << threads << " threads";
    EXPECT_EQ(parallel.label_bytes, serial.label_bytes)
        << "labels built with " << threads
        << " threads must be bit-identical to the serial build";
  }
}

// Regression: simultaneous independent-set contraction with heavily tied
// edge costs. Two same-round winners can witness each other's shortcut at
// exactly equal cost; the round simulation must not let both suppress
// (witness comparison must be strict), or the path disappears entirely and
// the labels extracted from the hierarchy silently overestimate.
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

  const HubLabels hl = LabelsOver(*q);
  ASSERT_EQ(hl.num_nodes(), q->num_nodes());
  DijkstraEngine ref(*q);
  std::vector<NodeId> targets;
  for (NodeId t = 0; t < q->num_nodes(); t += 5) targets.push_back(t);
  for (NodeId s = 0; s < q->num_nodes(); s += 7) {
    const std::vector<Cost> want = ref.Distances(s, targets);
    for (size_t j = 0; j < targets.size(); ++j) {
      ExpectDistanceEq(hl.Distance(s, targets[j]), want[j], s, targets[j]);
    }
  }
}

}  // namespace
}  // namespace urr
