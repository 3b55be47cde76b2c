#include "routing/hub_labels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "common/binary_io.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/dimacs.h"
#include "graph/generators.h"
#include "routing/distance_oracle.h"

namespace urr {
namespace {

uint64_t BitsOf(Cost c) {
  uint64_t b = 0;
  static_assert(sizeof(b) == sizeof(c));
  std::memcpy(&b, &c, sizeof(b));
  return b;
}

RoadNetwork SmallCity(uint64_t seed, int width = 14, int height = 14) {
  Rng rng(seed);
  GridCityOptions opt;
  opt.width = width;
  opt.height = height;
  auto g = GenerateGridCity(opt, &rng);
  EXPECT_TRUE(g.ok());
  return *std::move(g);
}

/// Rounds every edge cost to a multiple of 1/256 so that all path sums are
/// exact in double arithmetic: Dijkstra and HL then agree bitwise.
RoadNetwork Quantize(const RoadNetwork& net) {
  std::vector<Edge> edges = net.EdgeList();
  for (Edge& e : edges) e.cost = std::round(e.cost * 256.0) / 256.0;
  auto g = RoadNetwork::Build(net.num_nodes(), std::move(edges), net.coords());
  EXPECT_TRUE(g.ok());
  return *std::move(g);
}

TEST(HubLabelsTest, MatchesDijkstraOnGeneratorGraphs) {
  for (const uint64_t seed : {51, 92, 133}) {
    const RoadNetwork net = SmallCity(seed);
    auto hl = HubLabelOracle::Create(net);
    ASSERT_TRUE(hl.ok());
    DijkstraOracle ref(net);
    Rng rng(seed * 7 + 1);
    for (int i = 0; i < 300; ++i) {
      const NodeId s =
          static_cast<NodeId>(rng.UniformInt(0, net.num_nodes() - 1));
      const NodeId t =
          static_cast<NodeId>(rng.UniformInt(0, net.num_nodes() - 1));
      EXPECT_NEAR((*hl)->Distance(s, t), ref.Distance(s, t), 1e-6)
          << "seed " << seed << " query " << s << "->" << t;
    }
  }
}

TEST(HubLabelsTest, BitwiseEqualToDijkstraAndChOnQuantizedCosts) {
  const RoadNetwork net = Quantize(SmallCity(77));
  auto hl = HubLabelOracle::Create(net);
  ASSERT_TRUE(hl.ok());
  DijkstraOracle ref(net);
  Rng rng(5);
  for (int i = 0; i < 400; ++i) {
    const NodeId s = static_cast<NodeId>(rng.UniformInt(0, net.num_nodes() - 1));
    const NodeId t = static_cast<NodeId>(rng.UniformInt(0, net.num_nodes() - 1));
    const Cost want = ref.Distance(s, t);
    EXPECT_EQ(BitsOf((*hl)->Distance(s, t)), BitsOf(want))
        << "hl vs dijkstra " << s << "->" << t;
  }
}

TEST(HubLabelsTest, MatchesDijkstraOnDimacsFixture) {
  // Hand-written DIMACS fixture: a directed diamond with a shortcut-worthy
  // middle, an asymmetric pair, and an unreachable sink (node 7 has no
  // incoming arcs from the rest). Integer weights => exact arithmetic.
  const std::string gr = R"(c tiny fixture
p sp 7 10
a 1 2 3
a 2 3 4
a 1 3 9
a 3 4 2
a 2 4 8
a 4 5 1
a 5 1 7
a 5 6 2
a 6 4 5
a 3 6 11
)";
  auto g = ParseDimacs(gr);
  ASSERT_TRUE(g.ok());
  auto hl = HubLabelOracle::Create(*g);
  ASSERT_TRUE(hl.ok());
  DijkstraOracle ref(*g);
  for (NodeId s = 0; s < g->num_nodes(); ++s) {
    for (NodeId t = 0; t < g->num_nodes(); ++t) {
      EXPECT_EQ(BitsOf((*hl)->Distance(s, t)), BitsOf(ref.Distance(s, t)))
          << s << "->" << t;
    }
  }
}

TEST(HubLabelsTest, CloneSharesLabelStoreAndIsIndependent) {
  const RoadNetwork net = SmallCity(13, 8, 8);
  auto hl = HubLabelOracle::Create(net);
  ASSERT_TRUE(hl.ok());
  std::unique_ptr<DistanceOracle> clone = (*hl)->Clone();
  ASSERT_NE(clone, nullptr);
  // Shared immutable store: the clone is just another view.
  auto* typed = dynamic_cast<HubLabelOracle*>(clone.get());
  ASSERT_NE(typed, nullptr);
  EXPECT_EQ(&typed->labels(), &(*hl)->labels());
  // Independent call counters.
  const Cost a = (*hl)->Distance(0, 1);
  const Cost b = clone->Distance(0, 1);
  EXPECT_EQ(BitsOf(a), BitsOf(b));
  EXPECT_EQ((*hl)->num_calls(), 1);
  EXPECT_EQ(clone->num_calls(), 1);
}

TEST(HubLabelsTest, LabelsAreSortedAndCarrySelfEntries) {
  const RoadNetwork net = SmallCity(7, 9, 9);
  auto hl = HubLabelOracle::Create(net);
  ASSERT_TRUE(hl.ok());
  const HubLabels& labels = (*hl)->labels();
  EXPECT_EQ(labels.num_nodes(), net.num_nodes());
  EXPECT_GT(labels.average_label_size(), 0.0);
  for (NodeId v = 0; v < labels.num_nodes(); ++v) {
    for (const auto hubs : {labels.ForwardHubs(v), labels.BackwardHubs(v)}) {
      ASSERT_FALSE(hubs.empty());
      bool has_self = false;
      for (size_t k = 0; k < hubs.size(); ++k) {
        if (hubs[k] == v) has_self = true;
        if (k > 0) {
          EXPECT_LT(hubs[k - 1], hubs[k]);
        }
      }
      EXPECT_TRUE(has_self) << "node " << v;
    }
    EXPECT_EQ(BitsOf(labels.Distance(v, v)), BitsOf(Cost{0}));
  }
}

TEST(HubLabelsTest, LabelBytesIdenticalAcrossThreadCounts) {
  const RoadNetwork net = SmallCity(23, 16, 12);
  auto ch = ContractionHierarchy::Build(net);
  ASSERT_TRUE(ch.ok());

  auto bytes_with_threads = [&](int threads) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    auto hl = HubLabels::Build(*ch, pool.get());
    EXPECT_TRUE(hl.ok());
    BinaryWriter writer;
    hl->Serialize(&writer);
    return writer.buffer();
  };

  const std::string serial = bytes_with_threads(1);
  ASSERT_FALSE(serial.empty());
  for (const int threads : {2, 8}) {
    EXPECT_EQ(bytes_with_threads(threads), serial)
        << "labels extracted with " << threads
        << " threads must be bit-identical to the serial extraction";
  }
}

}  // namespace
}  // namespace urr
