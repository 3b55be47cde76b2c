#include "routing/contraction_hierarchy.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <queue>

#include "common/parallel_for.h"

namespace urr {

namespace {

/// Settle cap for witness searches: higher = fewer redundant shortcuts,
/// slower build. Correctness does not depend on it.
constexpr int kWitnessSettleLimit = 256;
/// Node-priority weights: the edge difference, and the deleted-neighbors
/// term that keeps contraction spatially uniform.
constexpr int64_t kEdgeDifferenceWeight = 8;
constexpr int64_t kDeletedNeighborsWeight = 2;

struct OverlayEdge {
  NodeId to;
  Cost cost;
};

/// Appends an edge to `key` with cost `c` to `list`, or lowers the cost of
/// the edge to `key` already there to `c` when that is smaller.
void Upsert(std::vector<OverlayEdge>* list, NodeId key, Cost c) {
  for (auto& e : *list) {
    if (e.to == key) {
      e.cost = std::min(e.cost, c);
      return;
    }
  }
  list->push_back({key, c});
}

/// Mutable overlay graph used during contraction. Adjacency lists hold
/// uncontracted nodes only: Detach drops a node from its neighbors' lists
/// as it is contracted.
struct Overlay {
  std::vector<std::vector<OverlayEdge>> out;
  std::vector<std::vector<OverlayEdge>> in;

  /// Inserts or relaxes edge u -> v with `cost` in both adjacency mirrors.
  void UpsertEdge(NodeId u, NodeId v, Cost cost) {
    Upsert(&out[static_cast<size_t>(u)], v, cost);
    Upsert(&in[static_cast<size_t>(v)], u, cost);
  }

  /// Removes contracted `v` from its neighbors' lists and releases its own.
  /// The erase keeps the remaining edges in insertion order: shortcut
  /// enumeration follows list order, and the hierarchy's bytes with it.
  void Detach(NodeId v) {
    auto erase = [v](std::vector<OverlayEdge>* list) {
      list->erase(std::find_if(list->begin(), list->end(),
                               [v](const OverlayEdge& e) { return e.to == v; }));
    };
    for (const auto& e : in[static_cast<size_t>(v)]) {
      erase(&out[static_cast<size_t>(e.to)]);
    }
    for (const auto& e : out[static_cast<size_t>(v)]) {
      erase(&in[static_cast<size_t>(e.to)]);
    }
    std::vector<OverlayEdge>().swap(in[static_cast<size_t>(v)]);
    std::vector<OverlayEdge>().swap(out[static_cast<size_t>(v)]);
  }
};

/// Bounded one-to-many witness search (Geisberger et al., WEA 2008). One
/// Dijkstra from an in-neighbor u of the node being contracted decides, for
/// every out-neighbor w of it, whether some u ~> w path that avoids it is
/// STRICTLY cheaper than via_w = c(u, v) + c(v, w). The search relaxes only
/// up to the largest via_w among the targets not yet witnessed, settles at
/// most kWitnessSettleLimit nodes and stops once every target is witnessed.
/// Giving up may miss a witness, which only costs an extra shortcut.
///
/// The answer equals that of one search per (u, w) pair bounded by via_w:
/// nodes pop in (cost, id) order, so each node cheaper than via_w settles
/// at the same position (and within the same settle budget) as in the
/// per-pair search, and only such a node can relax w below via_w.
class WitnessSearch {
 public:
  explicit WitnessSearch(size_t n)
      : dist_(n, kInfiniteCost), stamp_(n, 0), target_stamp_(n, 0),
        slot_(n, 0) {}

  /// Searches from `source`, skipping `excluded`, for witnesses to the
  /// targets `out` (the out-list of `excluded`, reached from `source` at
  /// `to_excluded`). Afterwards witnessed(k) tells whether out[k] has one;
  /// entries naming `source` or `excluded` are not targets and read as
  /// witnessed.
  void Run(const Overlay& overlay, NodeId source, NodeId excluded,
           Cost to_excluded, const std::vector<OverlayEdge>& out) {
    ++now_;
    if (now_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      std::fill(target_stamp_.begin(), target_stamp_.end(), 0);
      now_ = 1;
    }
    witnessed_.assign(out.size(), 1);
    via_.resize(out.size());
    size_t pending = 0;
    Cost limit = 0;
    for (size_t k = 0; k < out.size(); ++k) {
      const auto w = static_cast<size_t>(out[k].to);
      if (out[k].to == excluded || out[k].to == source) continue;
      via_[k] = to_excluded + out[k].cost;
      limit = std::max(limit, via_[k]);
      witnessed_[k] = 0;
      target_stamp_[w] = now_;
      slot_[w] = static_cast<uint32_t>(k);
      ++pending;
    }
    if (pending == 0) return;
    while (!queue_.empty()) queue_.pop();
    Set(source, 0);
    queue_.push({0, source});
    int settled = 0;
    while (!queue_.empty()) {
      auto [d, v] = queue_.top();
      queue_.pop();
      if (d > Get(v)) continue;
      if (d > limit) break;
      if (++settled > kWitnessSettleLimit) break;
      for (const auto& e : overlay.out[static_cast<size_t>(v)]) {
        if (e.to == excluded) continue;
        const Cost nd = d + e.cost;
        if (nd < Get(e.to) && nd <= limit) {
          Set(e.to, nd);
          queue_.push({nd, e.to});
          const auto w = static_cast<size_t>(e.to);
          if (target_stamp_[w] != now_) continue;
          const uint32_t k = slot_[w];
          if (witnessed_[k] == 0 && nd < via_[k]) {
            witnessed_[k] = 1;
            if (--pending == 0) return;
            // Only the targets still pending bound the search now.
            limit = 0;
            for (size_t j = 0; j < out.size(); ++j) {
              if (witnessed_[j] == 0) limit = std::max(limit, via_[j]);
            }
          }
        }
      }
    }
  }

  bool witnessed(size_t k) const { return witnessed_[k] != 0; }

 private:
  Cost Get(NodeId v) const {
    return stamp_[static_cast<size_t>(v)] == now_ ? dist_[static_cast<size_t>(v)]
                                                  : kInfiniteCost;
  }
  void Set(NodeId v, Cost d) {
    stamp_[static_cast<size_t>(v)] = now_;
    dist_[static_cast<size_t>(v)] = d;
  }

  std::vector<Cost> dist_;
  std::vector<uint32_t> stamp_;
  // Targets of the current run: target_stamp_[w] == now_ marks w, slot_[w]
  // is its index in the out-list.
  std::vector<uint32_t> target_stamp_;
  std::vector<uint32_t> slot_;
  std::vector<uint8_t> witnessed_;
  std::vector<Cost> via_;
  uint32_t now_ = 0;
  using Entry = std::pair<Cost, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue_;
};

struct Shortcut {
  NodeId from;
  NodeId to;
  Cost cost;
};

/// Enumerates the shortcuts contraction of `v` would require, in (u, w)
/// order of its in- and out-lists. When `apply` is null the caller only
/// wants the count (priority computation).
///
/// A shortcut is dropped only when a STRICTLY cheaper witness exists.
/// Sequential contraction could also drop it for an equally-cheap witness
/// (the witness is still in the graph when `v` goes away), but a frozen
/// independent-set round must keep it: two same-round winners can witness
/// each other's shortcut at exactly equal cost, and suppressing both loses
/// the path entirely. The strict rule breaks that symmetry: a chain of
/// strictly-decreasing substitutions cannot cycle, so some surviving path
/// always realizes the distance.
int SimulateContraction(const Overlay& overlay, NodeId v, WitnessSearch* witness,
                        std::vector<Shortcut>* apply) {
  int shortcuts = 0;
  const auto& out = overlay.out[static_cast<size_t>(v)];
  for (const auto& ein : overlay.in[static_cast<size_t>(v)]) {
    const NodeId u = ein.to;
    if (u == v) continue;
    witness->Run(overlay, u, v, ein.cost, out);
    for (size_t k = 0; k < out.size(); ++k) {
      if (witness->witnessed(k)) continue;
      ++shortcuts;
      if (apply != nullptr) {
        apply->push_back({u, out[k].to, ein.cost + out[k].cost});
      }
    }
  }
  return shortcuts;
}

/// Node priority: lower contracts earlier.
int64_t Priority(const Overlay& overlay, NodeId v, int shortcuts,
                 int deleted_neighbors) {
  const auto degree = static_cast<int>(overlay.in[static_cast<size_t>(v)].size() +
                                       overlay.out[static_cast<size_t>(v)].size());
  const int edge_difference = shortcuts - degree;
  return kEdgeDifferenceWeight * edge_difference +
         kDeletedNeighborsWeight * deleted_neighbors;
}

}  // namespace

Result<ContractionHierarchy> ContractionHierarchy::Build(
    const RoadNetwork& network, const ChOptions& options) {
  const NodeId n = network.num_nodes();
  const auto nu = static_cast<size_t>(n);
  Overlay overlay;
  overlay.out.resize(nu);
  overlay.in.resize(nu);
  for (NodeId v = 0; v < n; ++v) {
    auto heads = network.OutNeighbors(v);
    auto costs = network.OutCosts(v);
    for (size_t i = 0; i < heads.size(); ++i) {
      if (heads[i] == v) continue;  // self loops are useless for shortest paths
      overlay.UpsertEdge(v, heads[i], costs[i]);
    }
  }

  std::vector<int> deleted_neighbors(nu, 0);
  std::vector<int32_t> rank(nu, -1);

  // All edges of the final hierarchy graph (originals + shortcuts).
  std::vector<Shortcut> all_edges;
  for (NodeId v = 0; v < n; ++v) {
    for (const auto& e : overlay.out[static_cast<size_t>(v)]) {
      all_edges.push_back({v, e.to, e.cost});
    }
  }

  // Independent-set rounds. Each round freezes the overlay; priorities, the
  // local-minimum selection and the shortcut simulations are all pure
  // functions of that frozen state, computed into per-index slots, so the
  // result is bit-identical at any thread count. Shortcuts of the round's
  // winners are then applied serially in (priority, id) order.
  //
  // Correctness of the frozen-state simulation: two adjacent nodes are never
  // both selected (the (priority, id) comparison is a strict total order),
  // so no edge incident to a winner is touched by another winner in the
  // same round. A witness path found on the frozen overlay may run through
  // other same-round winners, so a shortcut is only omitted when the
  // witness is strictly cheaper (see SimulateContraction).
  ThreadPool* pool = options.pool;
  const int workers = pool != nullptr ? std::max(pool->num_threads(), 1) : 1;
  std::vector<std::unique_ptr<WitnessSearch>> worker_witness;
  worker_witness.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    worker_witness.push_back(std::make_unique<WitnessSearch>(nu));
  }

  std::vector<int64_t> prio(nu, 0);
  std::vector<NodeId> remaining(nu);
  for (NodeId v = 0; v < n; ++v) remaining[static_cast<size_t>(v)] = v;
  ParallelFor(pool, static_cast<int64_t>(remaining.size()),
              [&](int64_t i, int w) {
                const NodeId v = remaining[static_cast<size_t>(i)];
                const int sc = SimulateContraction(
                    overlay, v, worker_witness[static_cast<size_t>(w)].get(),
                    nullptr);
                prio[static_cast<size_t>(v)] = Priority(overlay, v, sc, 0);
              });

  // (priority, id) strict ordering shared by selection and rank order.
  auto before = [&](NodeId a, NodeId b) {
    const int64_t pa = prio[static_cast<size_t>(a)];
    const int64_t pb = prio[static_cast<size_t>(b)];
    return pa != pb ? pa < pb : a < b;
  };

  int32_t next_rank = 0;
  std::vector<uint8_t> win(nu, 0);
  std::vector<uint8_t> dirty(nu, 0);
  std::vector<NodeId> selected;
  std::vector<NodeId> dirty_list;
  std::vector<std::vector<Shortcut>> node_shortcuts;
  while (!remaining.empty()) {
    // Selection: v wins iff it precedes every uncontracted neighbor.
    ParallelFor(
        pool, static_cast<int64_t>(remaining.size()), [&](int64_t i, int) {
          const NodeId v = remaining[static_cast<size_t>(i)];
          auto precedes_all = [&](const std::vector<OverlayEdge>& list) {
            for (const auto& e : list) {
              if (e.to != v && before(e.to, v)) return false;
            }
            return true;
          };
          win[static_cast<size_t>(v)] =
              precedes_all(overlay.in[static_cast<size_t>(v)]) &&
                      precedes_all(overlay.out[static_cast<size_t>(v)])
                  ? 1
                  : 0;
        });
    selected.clear();
    for (const NodeId v : remaining) {
      if (win[static_cast<size_t>(v)] != 0) selected.push_back(v);
    }
    assert(!selected.empty() && "the global (priority, id) minimum wins");
    std::sort(selected.begin(), selected.end(), before);

    node_shortcuts.assign(selected.size(), {});
    ParallelFor(pool, static_cast<int64_t>(selected.size()),
                [&](int64_t i, int w) {
                  SimulateContraction(
                      overlay, selected[static_cast<size_t>(i)],
                      worker_witness[static_cast<size_t>(w)].get(),
                      &node_shortcuts[static_cast<size_t>(i)]);
                });

    // Serial application in (priority, id) order: ranks, shortcut edges,
    // deleted-neighbor counts and the dirty set for re-prioritization.
    for (size_t i = 0; i < selected.size(); ++i) {
      const NodeId v = selected[i];
      rank[static_cast<size_t>(v)] = next_rank++;
      for (const auto& s : node_shortcuts[i]) {
        overlay.UpsertEdge(s.from, s.to, s.cost);
        all_edges.push_back(s);
      }
      for (const auto* list : {&overlay.in[static_cast<size_t>(v)],
                               &overlay.out[static_cast<size_t>(v)]}) {
        for (const auto& e : *list) {
          ++deleted_neighbors[static_cast<size_t>(e.to)];
          dirty[static_cast<size_t>(e.to)] = 1;
        }
      }
      overlay.Detach(v);
    }

    remaining.erase(std::remove_if(remaining.begin(), remaining.end(),
                                   [&](NodeId v) {
                                     return rank[static_cast<size_t>(v)] >= 0;
                                   }),
                    remaining.end());
    dirty_list.clear();
    for (const NodeId v : remaining) {
      if (dirty[static_cast<size_t>(v)] != 0) {
        dirty_list.push_back(v);
        dirty[static_cast<size_t>(v)] = 0;
      }
    }
    ParallelFor(pool, static_cast<int64_t>(dirty_list.size()),
                [&](int64_t i, int w) {
                  const NodeId v = dirty_list[static_cast<size_t>(i)];
                  const int sc = SimulateContraction(
                      overlay, v, worker_witness[static_cast<size_t>(w)].get(),
                      nullptr);
                  prio[static_cast<size_t>(v)] = Priority(
                      overlay, v, sc, deleted_neighbors[static_cast<size_t>(v)]);
                });
  }
  assert(next_rank == n);

  ContractionHierarchy ch;
  ch.num_nodes_ = n;
  ch.rank_ = std::move(rank);

  // Deduplicate parallel edges keeping minimum cost (UpsertEdge already
  // relaxes overlay edges, but all_edges may hold superseded copies).
  // Partition into upward (by tail) and downward-reversed (by head).
  std::vector<std::vector<OverlayEdge>> up(nu), down(nu);
  for (const auto& e : all_edges) {
    if (ch.rank_[static_cast<size_t>(e.from)] < ch.rank_[static_cast<size_t>(e.to)]) {
      Upsert(&up[static_cast<size_t>(e.from)], e.to, e.cost);
    } else {
      Upsert(&down[static_cast<size_t>(e.to)], e.from, e.cost);
    }
  }
  auto pack = [nu](const std::vector<std::vector<OverlayEdge>>& adj,
                   std::vector<int64_t>* begin, std::vector<NodeId>* to,
                   std::vector<Cost>* cost) {
    begin->assign(nu + 1, 0);
    for (size_t v = 0; v < nu; ++v) (*begin)[v + 1] = (*begin)[v] + static_cast<int64_t>(adj[v].size());
    to->resize(static_cast<size_t>((*begin)[nu]));
    cost->resize(static_cast<size_t>((*begin)[nu]));
    for (size_t v = 0; v < nu; ++v) {
      int64_t slot = (*begin)[v];
      for (const auto& e : adj[v]) {
        (*to)[static_cast<size_t>(slot)] = e.to;
        (*cost)[static_cast<size_t>(slot)] = e.cost;
        ++slot;
      }
    }
  };
  pack(up, &ch.up_begin_, &ch.up_to_, &ch.up_cost_);
  pack(down, &ch.down_begin_, &ch.down_to_, &ch.down_cost_);
  return ch;
}

}  // namespace urr
