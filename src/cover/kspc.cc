#include "cover/kspc.h"

#include <algorithm>
#include <cmath>

namespace urr {

namespace {

constexpr Cost kEps = 1e-6;

bool NearlyEqual(Cost a, Cost b) {
  return std::abs(a - b) <= kEps * std::max<Cost>(1.0, std::max(a, b));
}

/// A locally-verified shortest chain anchored at the candidate vertex.
struct Chain {
  NodeId endpoint;             // far end (first node backward / last forward)
  Cost weight;                 // total chain weight
  std::vector<NodeId> nodes;   // chain nodes excluding the anchor
};

/// Enumerates chains of up to `max_extra` uncovered vertices extending from
/// `anchor` (backward over in-edges or forward over out-edges), each of
/// which is itself a shortest path. Returns false when the cap trips.
bool EnumerateChains(const RoadNetwork& network, const std::vector<bool>& covered,
                     DijkstraEngine* engine, NodeId anchor, int max_extra,
                     bool backward, int cap,
                     std::vector<std::vector<Chain>>* by_length) {
  by_length->assign(static_cast<size_t>(max_extra) + 1, {});
  (*by_length)[0].push_back({anchor, 0, {}});
  int produced = 1;

  // Iterative DFS over (frontier node, weight, nodes) chains.
  struct Frame {
    NodeId frontier;
    Cost weight;
    std::vector<NodeId> nodes;
  };
  std::vector<Frame> stack;
  stack.push_back({anchor, 0, {}});
  while (!stack.empty()) {
    Frame frame = std::move(stack.back());
    stack.pop_back();
    if (static_cast<int>(frame.nodes.size()) >= max_extra) continue;
    auto heads =
        backward ? network.InNeighbors(frame.frontier) : network.OutNeighbors(frame.frontier);
    auto costs =
        backward ? network.InCosts(frame.frontier) : network.OutCosts(frame.frontier);
    for (size_t i = 0; i < heads.size(); ++i) {
      const NodeId u = heads[i];
      if (u == anchor || covered[static_cast<size_t>(u)]) continue;
      if (std::find(frame.nodes.begin(), frame.nodes.end(), u) !=
          frame.nodes.end()) {
        continue;
      }
      const Cost w = frame.weight + costs[i];
      // The chain must itself be a shortest path to be part of one.
      const Cost sp = backward ? engine->Distance(u, anchor)
                               : engine->Distance(anchor, u);
      if (!NearlyEqual(sp, w)) continue;
      Frame next{u, w, frame.nodes};
      next.nodes.push_back(u);
      (*by_length)[next.nodes.size()].push_back({u, w, next.nodes});
      if (++produced > cap) return false;
      stack.push_back(std::move(next));
    }
  }
  return true;
}

/// True when some shortest path with exactly k vertices passes through
/// `v` using only uncovered vertices (v excepted). `covered[v]` must
/// already be false-equivalent: the caller treats v as removed.
bool HasUncoveredPathThrough(const RoadNetwork& network,
                             const std::vector<bool>& covered,
                             DijkstraEngine* engine, NodeId v,
                             const KspcOptions& options, bool* gave_up) {
  std::vector<std::vector<Chain>> back, fwd;
  if (!EnumerateChains(network, covered, engine, v, options.k - 1,
                       /*backward=*/true, options.max_chains_per_side, &back) ||
      !EnumerateChains(network, covered, engine, v, options.k - 1,
                       /*backward=*/false, options.max_chains_per_side, &fwd)) {
    *gave_up = true;
    return true;  // conservatively keep v
  }
  int checks = 0;
  for (int b = 0; b <= options.k - 1; ++b) {
    const int f = options.k - 1 - b;
    for (const Chain& bc : back[static_cast<size_t>(b)]) {
      for (const Chain& fc : fwd[static_cast<size_t>(f)]) {
        if (++checks > options.max_checks_per_node) {
          *gave_up = true;
          return true;
        }
        // Disjointness of the two halves.
        bool overlap = false;
        for (NodeId x : bc.nodes) {
          if (std::find(fc.nodes.begin(), fc.nodes.end(), x) != fc.nodes.end()) {
            overlap = true;
            break;
          }
        }
        if (overlap) continue;
        const Cost total = bc.weight + fc.weight;
        if (NearlyEqual(engine->Distance(bc.endpoint, fc.endpoint), total)) {
          return true;  // an uncovered k-vertex shortest path exists
        }
      }
    }
  }
  return false;
}

}  // namespace

Result<std::vector<NodeId>> KShortestPathCover(const RoadNetwork& network,
                                               const KspcOptions& options,
                                               Rng* rng) {
  if (options.k < 2) {
    return Status::InvalidArgument("k must be >= 2");
  }
  const NodeId n = network.num_nodes();
  std::vector<bool> covered(static_cast<size_t>(n), true);
  DijkstraEngine engine(network);

  std::vector<NodeId> order(static_cast<size_t>(n));
  for (NodeId v = 0; v < n; ++v) order[static_cast<size_t>(v)] = v;
  rng->Shuffle(&order);

  for (NodeId v : order) {
    covered[static_cast<size_t>(v)] = false;  // tentative removal
    bool gave_up = false;
    if (HasUncoveredPathThrough(network, covered, &engine, v, options,
                                &gave_up)) {
      covered[static_cast<size_t>(v)] = true;  // must stay in the cover
    }
  }
  std::vector<NodeId> cover;
  for (NodeId v = 0; v < n; ++v) {
    if (covered[static_cast<size_t>(v)]) cover.push_back(v);
  }
  return cover;
}

namespace {

/// Finds one uncovered shortest path with exactly k vertices starting from
/// node `s` (all nodes uncovered), or empty when none exists from `s`.
std::vector<NodeId> FindWitnessFrom(const RoadNetwork& network,
                                    const std::vector<bool>& covered,
                                    DijkstraEngine* engine, NodeId s, int k) {
  struct Frame {
    NodeId frontier;
    Cost weight;
    std::vector<NodeId> nodes;  // includes the start
  };
  std::vector<Frame> stack;
  stack.push_back({s, 0, {s}});
  while (!stack.empty()) {
    Frame frame = std::move(stack.back());
    stack.pop_back();
    if (static_cast<int>(frame.nodes.size()) == k) return frame.nodes;
    auto heads = network.OutNeighbors(frame.frontier);
    auto costs = network.OutCosts(frame.frontier);
    for (size_t i = 0; i < heads.size(); ++i) {
      const NodeId u = heads[i];
      if (covered[static_cast<size_t>(u)]) continue;
      if (std::find(frame.nodes.begin(), frame.nodes.end(), u) !=
          frame.nodes.end()) {
        continue;
      }
      const Cost w = frame.weight + costs[i];
      if (!NearlyEqual(engine->Distance(s, u), w)) continue;
      Frame next{u, w, frame.nodes};
      next.nodes.push_back(u);
      stack.push_back(std::move(next));
    }
  }
  return {};
}

}  // namespace

bool VerifyKspc(const RoadNetwork& network, const std::vector<NodeId>& cover,
                int k) {
  std::vector<bool> covered(static_cast<size_t>(network.num_nodes()), false);
  for (NodeId v : cover) covered[static_cast<size_t>(v)] = true;
  DijkstraEngine engine(network);
  for (NodeId s = 0; s < network.num_nodes(); ++s) {
    if (covered[static_cast<size_t>(s)]) continue;
    if (!FindWitnessFrom(network, covered, &engine, s, k).empty()) {
      return false;
    }
  }
  return true;
}

}  // namespace urr
