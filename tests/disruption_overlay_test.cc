// Differential correctness of the DisruptionOverlay (DESIGN.md §10): every
// answer it serves while disruptions are active must be bit-identical to an
// exact Dijkstra run on the perturbed graph — across base oracles
// (Dijkstra, hub labels), clones, and disrupt/restore cycles.
#include "routing/disruption_overlay.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "graph/generators.h"
#include "routing/dijkstra.h"
#include "routing/distance_oracle.h"
#include "routing/hub_labels.h"

namespace urr {
namespace {

/// Ground truth: plain Dijkstra on a copy of the network with the
/// perturbation applied edge by edge.
RoadNetwork PerturbedCopy(const RoadNetwork& g, const DisruptionState& state) {
  std::vector<Edge> edges;
  for (const auto& [a, b, c] : g.EdgeList()) {
    const Cost pc = state.PerturbedCost(a, b, c);
    if (std::isinf(pc)) continue;  // closed
    edges.push_back({a, b, pc});
  }
  auto built = RoadNetwork::Build(g.num_nodes(), std::move(edges));
  EXPECT_TRUE(built.ok()) << built.status();
  RoadNetwork out = std::move(*built);
  return out;
}

RoadNetwork MakeCity(uint64_t seed) {
  Rng rng(seed);
  GridCityOptions opt;
  opt.width = 12;
  opt.height = 12;
  auto g = GenerateGridCity(opt, &rng);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(*g);
}

void CheckAgainstGroundTruth(const RoadNetwork& g, DistanceOracle* base,
                             uint64_t seed) {
  auto state = std::make_shared<DisruptionState>(g);
  auto stats = std::make_shared<OverlayStats>();
  DisruptionOverlay overlay(base, g, state, stats);

  Rng rng(seed);
  const auto edge_list = g.EdgeList();
  ASSERT_FALSE(edge_list.empty());
  // Disrupt a handful of edges: closures and slowdowns mixed.
  std::vector<std::pair<NodeId, NodeId>> disrupted;
  for (int k = 0; k < 8; ++k) {
    const auto& [a, b, c] =
        edge_list[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(edge_list.size()) - 1))];
    const double factor = (k % 2 == 0) ? kInfiniteCost : 3.0 + k;
    state->Disrupt(a, b, factor);
    disrupted.push_back({a, b});
  }
  ASSERT_TRUE(state->active());

  const RoadNetwork perturbed = PerturbedCopy(g, *state);
  DijkstraOracle truth(perturbed);
  for (int q = 0; q < 300; ++q) {
    const NodeId u = static_cast<NodeId>(rng.UniformInt(0, g.num_nodes() - 1));
    const NodeId v = static_cast<NodeId>(rng.UniformInt(0, g.num_nodes() - 1));
    const Cost got = overlay.Distance(u, v);
    const Cost want = truth.Distance(u, v);
    if (std::isinf(want)) {
      EXPECT_TRUE(std::isinf(got)) << u << "->" << v;
    } else {
      EXPECT_DOUBLE_EQ(got, want) << u << "->" << v;
    }
  }
  EXPECT_GT(stats->queries.load(), 0);

  // A clone must serve the same answers (shared state, private scratch).
  std::unique_ptr<DistanceOracle> clone = overlay.Clone();
  if (clone != nullptr) {
    for (int q = 0; q < 50; ++q) {
      const NodeId u =
          static_cast<NodeId>(rng.UniformInt(0, g.num_nodes() - 1));
      const NodeId v =
          static_cast<NodeId>(rng.UniformInt(0, g.num_nodes() - 1));
      const Cost got = clone->Distance(u, v);
      const Cost want = truth.Distance(u, v);
      if (std::isinf(want)) {
        EXPECT_TRUE(std::isinf(got));
      } else {
        EXPECT_DOUBLE_EQ(got, want);
      }
    }
  }

  // After restoring everything the overlay must be an exact passthrough.
  for (const auto& [a, b] : disrupted) state->Restore(a, b);
  EXPECT_FALSE(state->active());
  for (int q = 0; q < 100; ++q) {
    const NodeId u = static_cast<NodeId>(rng.UniformInt(0, g.num_nodes() - 1));
    const NodeId v = static_cast<NodeId>(rng.UniformInt(0, g.num_nodes() - 1));
    const Cost got = overlay.Distance(u, v);
    const Cost want = base->Distance(u, v);
    if (std::isinf(want)) {
      EXPECT_TRUE(std::isinf(got));
    } else {
      EXPECT_DOUBLE_EQ(got, want);
    }
  }
}

TEST(DisruptionOverlayTest, MatchesPerturbedDijkstraOverDijkstraBase) {
  const RoadNetwork g = MakeCity(7);
  DijkstraOracle base(g);
  CheckAgainstGroundTruth(g, &base, 11);
}

TEST(DisruptionOverlayTest, MatchesPerturbedDijkstraOverQueriedHubLabelBase) {
  const RoadNetwork g = MakeCity(9);
  auto base = HubLabelOracle::Create(g);
  ASSERT_TRUE(base.ok()) << base.status();
  // Query the base on the clean graph first: clean distances answered
  // before a disruption must never leak into perturbed answers.
  Rng rng(5);
  for (int q = 0; q < 200; ++q) {
    (*base)->Distance(
        static_cast<NodeId>(rng.UniformInt(0, g.num_nodes() - 1)),
        static_cast<NodeId>(rng.UniformInt(0, g.num_nodes() - 1)));
  }
  CheckAgainstGroundTruth(g, base->get(), 13);
}

TEST(DisruptionOverlayTest, MatchesPerturbedDijkstraOverHubLabelBase) {
  const RoadNetwork g = MakeCity(10);
  auto hl = HubLabelOracle::Create(g);
  ASSERT_TRUE(hl.ok()) << hl.status();
  CheckAgainstGroundTruth(g, hl->get(), 14);
}

TEST(DisruptionOverlayTest, EpochAdvancesOnEveryMutation) {
  const RoadNetwork g = MakeCity(11);
  DisruptionState state(g);
  EXPECT_EQ(state.epoch(), 0u);
  const auto edge_list = g.EdgeList();
  const auto& [a, b, c] = edge_list.front();
  state.Disrupt(a, b, 2.0);
  EXPECT_EQ(state.epoch(), 1u);
  state.Disrupt(a, b, 4.0);  // re-disrupt overwrites, still a mutation
  EXPECT_EQ(state.epoch(), 2u);
  state.Restore(a, b);
  EXPECT_EQ(state.epoch(), 3u);
  EXPECT_FALSE(state.active());
}

TEST(DisruptionOverlayTest, FactorsBelowOneAreClampedToWeightIncreases) {
  const RoadNetwork g = MakeCity(12);
  auto state = std::make_shared<DisruptionState>(g);
  auto stats = std::make_shared<OverlayStats>();
  DijkstraOracle base(g);
  DisruptionOverlay overlay(&base, g, state, stats);
  const auto edge_list = g.EdgeList();
  const auto& [a, b, c] = edge_list.front();
  state->Disrupt(a, b, 0.1);  // would be a speedup; must clamp to 1
  Rng rng(6);
  for (int q = 0; q < 100; ++q) {
    const NodeId u = static_cast<NodeId>(rng.UniformInt(0, g.num_nodes() - 1));
    const NodeId v = static_cast<NodeId>(rng.UniformInt(0, g.num_nodes() - 1));
    const Cost clean = base.Distance(u, v);
    const Cost got = overlay.Distance(u, v);
    if (std::isinf(clean)) {
      EXPECT_TRUE(std::isinf(got));
    } else {
      EXPECT_DOUBLE_EQ(got, clean);  // factor 1 == no perturbation
    }
  }
}

}  // namespace
}  // namespace urr
