#include "routing/contraction_hierarchy.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>

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

/// Mutable overlay graph used during contraction. Adjacency lists hold
/// uncontracted nodes only: Detach drops a node from its neighbors' lists
/// as it is contracted.
struct Overlay {
  std::vector<std::vector<OverlayEdge>> out;
  std::vector<std::vector<OverlayEdge>> in;

  /// Inserts or relaxes edge u -> v with `cost` in both adjacency mirrors.
  void UpsertEdge(NodeId u, NodeId v, Cost cost) {
    auto upsert = [](std::vector<OverlayEdge>* list, NodeId key, Cost c) {
      for (auto& e : *list) {
        if (e.to == key) {
          e.cost = std::min(e.cost, c);
          return;
        }
      }
      list->push_back({key, c});
    };
    upsert(&out[static_cast<size_t>(u)], v, cost);
    upsert(&in[static_cast<size_t>(v)], u, cost);
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

/// Bounded witness search: returns the shortest u ~> w distance in the
/// overlay (skipping `excluded`), giving up after kWitnessSettleLimit
/// settles or once `limit` is exceeded. May overestimate (returns +inf on
/// give-up), which only costs an extra shortcut.
class WitnessSearch {
 public:
  explicit WitnessSearch(size_t n)
      : dist_(n, kInfiniteCost), stamp_(n, 0) {}

  Cost Run(const Overlay& overlay, NodeId source, NodeId target, NodeId excluded,
           Cost limit) {
    ++now_;
    if (now_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      now_ = 1;
    }
    while (!queue_.empty()) queue_.pop();
    Set(source, 0);
    queue_.push({0, source});
    int settled = 0;
    while (!queue_.empty()) {
      auto [d, v] = queue_.top();
      queue_.pop();
      if (d > Get(v)) continue;
      if (v == target) return d;
      if (d > limit) break;
      if (++settled > kWitnessSettleLimit) break;
      for (const auto& e : overlay.out[static_cast<size_t>(v)]) {
        if (e.to == excluded) continue;
        const Cost nd = d + e.cost;
        if (nd < Get(e.to) && nd <= limit) {
          Set(e.to, nd);
          queue_.push({nd, e.to});
        }
      }
    }
    return Get(target);
  }

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
  uint32_t now_ = 0;
  using Entry = std::pair<Cost, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue_;
};

struct Shortcut {
  NodeId from;
  NodeId to;
  Cost cost;
  NodeId middle = kInvalidNode;  // contracted node the shortcut skips
};

/// Enumerates the shortcuts contraction of `v` would require. When `apply`
/// is null the caller only wants the count (priority computation).
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
  for (const auto& ein : overlay.in[static_cast<size_t>(v)]) {
    const NodeId u = ein.to;
    if (u == v) continue;
    for (const auto& eout : overlay.out[static_cast<size_t>(v)]) {
      const NodeId w = eout.to;
      if (w == v || w == u) continue;
      const Cost via = ein.cost + eout.cost;
      // Witness path exists, no shortcut needed.
      if (witness->Run(overlay, u, w, v, via) < via) continue;
      ++shortcuts;
      if (apply != nullptr) apply->push_back({u, w, via, v});
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
      all_edges.push_back({v, e.to, e.cost, kInvalidNode});
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
  struct PackedEdge {
    NodeId to;
    Cost cost;
    NodeId middle;
  };
  std::vector<std::vector<PackedEdge>> up(nu), down(nu);
  auto upsert = [](std::vector<PackedEdge>* list, NodeId key, Cost c,
                   NodeId middle) {
    for (auto& e : *list) {
      if (e.to == key) {
        if (c < e.cost) {
          e.cost = c;
          e.middle = middle;  // the middle must follow the surviving cost
        }
        return;
      }
    }
    list->push_back({key, c, middle});
  };
  for (const auto& e : all_edges) {
    if (ch.rank_[static_cast<size_t>(e.from)] < ch.rank_[static_cast<size_t>(e.to)]) {
      upsert(&up[static_cast<size_t>(e.from)], e.to, e.cost, e.middle);
    } else {
      upsert(&down[static_cast<size_t>(e.to)], e.from, e.cost, e.middle);
    }
  }
  auto pack = [nu](const std::vector<std::vector<PackedEdge>>& adj,
                   std::vector<int64_t>* begin, std::vector<NodeId>* to,
                   std::vector<Cost>* cost, std::vector<NodeId>* middle) {
    begin->assign(nu + 1, 0);
    for (size_t v = 0; v < nu; ++v) (*begin)[v + 1] = (*begin)[v] + static_cast<int64_t>(adj[v].size());
    to->resize(static_cast<size_t>((*begin)[nu]));
    cost->resize(static_cast<size_t>((*begin)[nu]));
    middle->resize(static_cast<size_t>((*begin)[nu]));
    for (size_t v = 0; v < nu; ++v) {
      int64_t slot = (*begin)[v];
      for (const auto& e : adj[v]) {
        (*to)[static_cast<size_t>(slot)] = e.to;
        (*cost)[static_cast<size_t>(slot)] = e.cost;
        (*middle)[static_cast<size_t>(slot)] = e.middle;
        ++slot;
      }
    }
  };
  pack(up, &ch.up_begin_, &ch.up_to_, &ch.up_cost_, &ch.up_middle_);
  pack(down, &ch.down_begin_, &ch.down_to_, &ch.down_cost_, &ch.down_middle_);
  return ch;
}

void ContractionHierarchy::Serialize(BinaryWriter* writer) const {
  writer->WriteI32(num_nodes_);
  writer->WriteVector(rank_);
  writer->WriteVector(up_begin_);
  writer->WriteVector(up_to_);
  writer->WriteVector(up_cost_);
  writer->WriteVector(up_middle_);
  writer->WriteVector(down_begin_);
  writer->WriteVector(down_to_);
  writer->WriteVector(down_cost_);
  writer->WriteVector(down_middle_);
}

namespace {

/// Validates one serialized CSR half of a hierarchy: array sizes agree,
/// offsets are monotone from 0, heads and middles are in range, costs are
/// finite and non-negative, and every stored edge climbs ranks (both
/// halves store edges tail -> head with rank[head] > rank[tail]).
Status ValidateChCsr(const char* what, NodeId n,
                     const std::vector<int32_t>& rank,
                     const std::vector<int64_t>& begin,
                     const std::vector<NodeId>& to,
                     const std::vector<Cost>& cost,
                     const std::vector<NodeId>& middle) {
  const auto nu = static_cast<size_t>(n);
  auto err = [what](const std::string& msg) {
    return Status::InvalidArgument(std::string("hierarchy ") + what + ": " +
                                   msg);
  };
  if (begin.size() != nu + 1) return err("offset array size mismatch");
  if (begin.front() != 0) return err("offsets must start at 0");
  for (size_t v = 0; v < nu; ++v) {
    if (begin[v + 1] < begin[v]) {
      return err("offsets not monotone at node " + std::to_string(v));
    }
  }
  const auto ne = static_cast<size_t>(begin.back());
  if (to.size() != ne || cost.size() != ne || middle.size() != ne) {
    return err("edge arrays disagree with offsets");
  }
  for (size_t v = 0; v < nu; ++v) {
    for (int64_t i = begin[v]; i < begin[v + 1]; ++i) {
      const NodeId w = to[static_cast<size_t>(i)];
      const NodeId m = middle[static_cast<size_t>(i)];
      if (w < 0 || w >= n) return err("edge head out of range");
      if (m != kInvalidNode && (m < 0 || m >= n)) {
        return err("shortcut middle out of range");
      }
      const Cost c = cost[static_cast<size_t>(i)];
      if (!std::isfinite(c) || !(c >= 0)) {
        return err("edge cost must be finite, non-negative");
      }
      if (rank[v] >= rank[static_cast<size_t>(w)]) {
        return err("edge does not climb ranks at node " + std::to_string(v));
      }
    }
  }
  return Status::OK();
}

}  // namespace

Result<ContractionHierarchy> ContractionHierarchy::Deserialize(
    BinaryReader* reader) {
  ContractionHierarchy ch;
  int32_t n = 0;
  URR_RETURN_NOT_OK(reader->ReadI32(&n));
  if (n < 0) return Status::InvalidArgument("hierarchy: negative node count");
  ch.num_nodes_ = n;
  const auto nu = static_cast<size_t>(n);
  URR_RETURN_NOT_OK(reader->ReadVector(&ch.rank_, nu));
  if (ch.rank_.size() != nu) {
    return Status::InvalidArgument("hierarchy: rank array size mismatch");
  }
  std::vector<bool> seen(nu, false);
  for (const int32_t r : ch.rank_) {
    if (r < 0 || r >= n || seen[static_cast<size_t>(r)]) {
      return Status::InvalidArgument("hierarchy: ranks are not a permutation");
    }
    seen[static_cast<size_t>(r)] = true;
  }
  // Edge counts are bounded by what the payload can physically hold; the
  // per-read cap stops a corrupted length before any allocation.
  const uint64_t max_edges = reader->remaining() / sizeof(NodeId);
  URR_RETURN_NOT_OK(reader->ReadVector(&ch.up_begin_, nu + 1));
  URR_RETURN_NOT_OK(reader->ReadVector(&ch.up_to_, max_edges));
  URR_RETURN_NOT_OK(reader->ReadVector(&ch.up_cost_, max_edges));
  URR_RETURN_NOT_OK(reader->ReadVector(&ch.up_middle_, max_edges));
  URR_RETURN_NOT_OK(ValidateChCsr("up", n, ch.rank_, ch.up_begin_, ch.up_to_,
                                  ch.up_cost_, ch.up_middle_));
  URR_RETURN_NOT_OK(reader->ReadVector(&ch.down_begin_, nu + 1));
  URR_RETURN_NOT_OK(reader->ReadVector(&ch.down_to_, max_edges));
  URR_RETURN_NOT_OK(reader->ReadVector(&ch.down_cost_, max_edges));
  URR_RETURN_NOT_OK(reader->ReadVector(&ch.down_middle_, max_edges));
  URR_RETURN_NOT_OK(ValidateChCsr("down", n, ch.rank_, ch.down_begin_,
                                  ch.down_to_, ch.down_cost_,
                                  ch.down_middle_));
  return ch;
}

ChQuery::ChQuery(const ContractionHierarchy& ch) : ch_(ch) {
  const auto n = static_cast<size_t>(ch.num_nodes());
  fwd_.dist.assign(n, kInfiniteCost);
  fwd_.stamp.assign(n, 0);
  fwd_.parent.assign(n, kInvalidNode);
  bwd_.dist.assign(n, kInfiniteCost);
  bwd_.stamp.assign(n, 0);
  bwd_.parent.assign(n, kInvalidNode);
}

Cost ChQuery::Search(NodeId source, NodeId target, NodeId* meeting) {
  ++num_queries_;
  if (meeting != nullptr) *meeting = kInvalidNode;
  if (source == target) {
    if (meeting != nullptr) *meeting = source;
    return 0;
  }
  ++now_;
  if (now_ == 0) {
    std::fill(fwd_.stamp.begin(), fwd_.stamp.end(), 0);
    std::fill(bwd_.stamp.begin(), bwd_.stamp.end(), 0);
    now_ = 1;
  }
  while (!fwd_.queue.empty()) fwd_.queue.pop();
  while (!bwd_.queue.empty()) bwd_.queue.pop();

  auto get = [&](Side& s, NodeId v) {
    return s.stamp[static_cast<size_t>(v)] == now_ ? s.dist[static_cast<size_t>(v)]
                                                   : kInfiniteCost;
  };
  auto set = [&](Side& s, NodeId v, Cost d, NodeId parent) {
    s.stamp[static_cast<size_t>(v)] = now_;
    s.dist[static_cast<size_t>(v)] = d;
    s.parent[static_cast<size_t>(v)] = parent;
  };

  set(fwd_, source, 0, kInvalidNode);
  set(bwd_, target, 0, kInvalidNode);
  fwd_.queue.push({0, source});
  bwd_.queue.push({0, target});
  Cost best = kInfiniteCost;
  NodeId best_meet = kInvalidNode;

  auto relax = [&](Side& side, NodeId v, Cost d, const std::vector<int64_t>& begin,
                   const std::vector<NodeId>& to, const std::vector<Cost>& cost) {
    for (int64_t i = begin[static_cast<size_t>(v)];
         i < begin[static_cast<size_t>(v) + 1]; ++i) {
      const NodeId w = to[static_cast<size_t>(i)];
      const Cost nd = d + cost[static_cast<size_t>(i)];
      if (nd < get(side, w)) {
        set(side, w, nd, v);
        side.queue.push({nd, w});
      }
    }
  };

  // Stall-on-demand: a popped label dominated via an edge from a
  // higher-ranked node cannot lie on a shortest up-down path; skip it.
  auto stalled = [&](Side& side, NodeId v, Cost d,
                     const std::vector<int64_t>& rbegin,
                     const std::vector<NodeId>& rto,
                     const std::vector<Cost>& rcost) {
    for (int64_t i = rbegin[static_cast<size_t>(v)];
         i < rbegin[static_cast<size_t>(v) + 1]; ++i) {
      const Cost dw = get(side, rto[static_cast<size_t>(i)]);
      if (dw < kInfiniteCost && dw + rcost[static_cast<size_t>(i)] < d) {
        return true;
      }
    }
    return false;
  };

  bool fwd_done = false, bwd_done = false;
  while ((!fwd_done && !fwd_.queue.empty()) ||
         (!bwd_done && !bwd_.queue.empty())) {
    if (!fwd_done && !fwd_.queue.empty()) {
      auto [d, v] = fwd_.queue.top();
      fwd_.queue.pop();
      if (d <= get(fwd_, v)) {
        if (d >= best) {
          fwd_done = true;
        } else {
          const Cost od = get(bwd_, v);
          if (od < kInfiniteCost && d + od < best) {
            best = d + od;
            best_meet = v;
          }
          if (!stalled(fwd_, v, d, ch_.down_begin_, ch_.down_to_,
                       ch_.down_cost_)) {
            relax(fwd_, v, d, ch_.up_begin_, ch_.up_to_, ch_.up_cost_);
          }
        }
      }
    } else {
      fwd_done = true;
    }
    if (!bwd_done && !bwd_.queue.empty()) {
      auto [d, v] = bwd_.queue.top();
      bwd_.queue.pop();
      if (d <= get(bwd_, v)) {
        if (d >= best) {
          bwd_done = true;
        } else {
          const Cost od = get(fwd_, v);
          if (od < kInfiniteCost && d + od < best) {
            best = d + od;
            best_meet = v;
          }
          if (!stalled(bwd_, v, d, ch_.up_begin_, ch_.up_to_, ch_.up_cost_)) {
            relax(bwd_, v, d, ch_.down_begin_, ch_.down_to_, ch_.down_cost_);
          }
        }
      }
    } else {
      bwd_done = true;
    }
    if (fwd_done && bwd_done) break;
  }
  if (meeting != nullptr) *meeting = best_meet;
  return best;
}

Cost ChQuery::Distance(NodeId source, NodeId target) {
  return Search(source, target, nullptr);
}

namespace {

/// Finds the index of the minimum-cost edge v -> `key` in a CSR slice.
int64_t FindEdgeSlot(const std::vector<int64_t>& begin,
                     const std::vector<NodeId>& to, const std::vector<Cost>& cost,
                     NodeId v, NodeId key) {
  int64_t found = -1;
  for (int64_t i = begin[static_cast<size_t>(v)];
       i < begin[static_cast<size_t>(v) + 1]; ++i) {
    if (to[static_cast<size_t>(i)] == key &&
        (found < 0 || cost[static_cast<size_t>(i)] < cost[static_cast<size_t>(found)])) {
      found = i;
    }
  }
  return found;
}

}  // namespace

void ChQuery::UnpackUpEdge(NodeId a, NodeId b, std::vector<NodeId>* out) const {
  // Edge a -> b with rank[b] > rank[a] lives in up_[a].
  const int64_t slot =
      FindEdgeSlot(ch_.up_begin_, ch_.up_to_, ch_.up_cost_, a, b);
  assert(slot >= 0 && "missing upward edge during unpack");
  const NodeId m = ch_.up_middle_[static_cast<size_t>(slot)];
  if (m == kInvalidNode) {
    out->push_back(b);
    return;
  }
  // Constituents: a -> m (rank[m] < rank[a]: a down edge stored at m) and
  // m -> b (rank[m] < rank[b]: an up edge stored at m).
  UnpackDownEdge(a, m, out);
  UnpackUpEdge(m, b, out);
}

void ChQuery::UnpackDownEdge(NodeId a, NodeId b, std::vector<NodeId>* out) const {
  // Edge a -> b with rank[a] > rank[b] is stored reversed in down_[b].
  const int64_t slot =
      FindEdgeSlot(ch_.down_begin_, ch_.down_to_, ch_.down_cost_, b, a);
  assert(slot >= 0 && "missing downward edge during unpack");
  const NodeId m = ch_.down_middle_[static_cast<size_t>(slot)];
  if (m == kInvalidNode) {
    out->push_back(b);
    return;
  }
  UnpackDownEdge(a, m, out);
  UnpackUpEdge(m, b, out);
}

Cost ChQuery::Path(NodeId source, NodeId target, std::vector<NodeId>* path) {
  path->clear();
  NodeId meeting = kInvalidNode;
  const Cost d = Search(source, target, &meeting);
  if (d == kInfiniteCost) return d;
  if (source == target) {
    path->push_back(source);
    return 0;
  }
  // Hierarchy-space node chains source -> meeting and meeting -> target.
  std::vector<NodeId> up_chain;  // source ... meeting (ascending ranks)
  for (NodeId v = meeting; v != kInvalidNode;
       v = fwd_.parent[static_cast<size_t>(v)]) {
    up_chain.push_back(v);
  }
  std::reverse(up_chain.begin(), up_chain.end());
  std::vector<NodeId> down_chain;  // meeting ... target (descending ranks)
  for (NodeId v = meeting; v != kInvalidNode;
       v = bwd_.parent[static_cast<size_t>(v)]) {
    down_chain.push_back(v);
  }
  path->push_back(source);
  for (size_t i = 0; i + 1 < up_chain.size(); ++i) {
    UnpackUpEdge(up_chain[i], up_chain[i + 1], path);
  }
  for (size_t i = 0; i + 1 < down_chain.size(); ++i) {
    UnpackDownEdge(down_chain[i], down_chain[i + 1], path);
  }
  return d;
}

}  // namespace urr
