#include "routing/hub_labels.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <queue>
#include <utility>

#include "common/parallel_for.h"

namespace urr {

namespace {

struct LabelEntry {
  NodeId hub;
  Cost cost;
};

}  // namespace

/// Per-worker scratch for one complete upward search: timestamped relax and
/// stall-on-demand, settle order recorded. The search is a
/// pure function of the (immutable) hierarchy, so any worker produces the
/// identical settled list for a given (source, direction).
class HubLabelUpwardSearcher {
 public:
  explicit HubLabelUpwardSearcher(NodeId n)
      : dist_(static_cast<size_t>(n), kInfiniteCost),
        stamp_(static_cast<size_t>(n), 0) {}

  /// Fills `settled` (cleared first) with (node, final dist) in settle
  /// order. Stalled nodes are recorded but not relaxed — pruning drops the
  /// dominated ones.
  void Run(const ContractionHierarchy& ch, NodeId src, bool backward,
           std::vector<LabelEntry>* settled) {
    const auto& begin = backward ? ch.down_begin_ : ch.up_begin_;
    const auto& to = backward ? ch.down_to_ : ch.up_to_;
    const auto& cost = backward ? ch.down_cost_ : ch.up_cost_;
    const auto& rbegin = backward ? ch.up_begin_ : ch.down_begin_;
    const auto& rto = backward ? ch.up_to_ : ch.down_to_;
    const auto& rcost = backward ? ch.up_cost_ : ch.down_cost_;

    settled->clear();
    ++now_;
    if (now_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      now_ = 1;
    }
    while (!queue_.empty()) queue_.pop();
    auto get = [&](NodeId v) {
      return stamp_[static_cast<size_t>(v)] == now_
                 ? dist_[static_cast<size_t>(v)]
                 : kInfiniteCost;
    };
    auto set = [&](NodeId v, Cost d) {
      stamp_[static_cast<size_t>(v)] = now_;
      dist_[static_cast<size_t>(v)] = d;
    };

    set(src, 0);
    queue_.push({0, src});
    while (!queue_.empty()) {
      auto [d, v] = queue_.top();
      queue_.pop();
      if (d > get(v)) continue;  // stale duplicate
      settled->push_back({v, d});
      bool stall = false;
      for (int64_t i = rbegin[static_cast<size_t>(v)];
           i < rbegin[static_cast<size_t>(v) + 1]; ++i) {
        const Cost dw = get(rto[static_cast<size_t>(i)]);
        if (dw < kInfiniteCost && dw + rcost[static_cast<size_t>(i)] < d) {
          stall = true;
          break;
        }
      }
      if (stall) continue;
      for (int64_t i = begin[static_cast<size_t>(v)];
           i < begin[static_cast<size_t>(v) + 1]; ++i) {
        const NodeId w = to[static_cast<size_t>(i)];
        const Cost nd = d + cost[static_cast<size_t>(i)];
        if (nd < get(w)) {
          set(w, nd);
          queue_.push({nd, w});
        }
      }
    }
  }

 private:
  std::vector<Cost> dist_;
  std::vector<uint32_t> stamp_;
  uint32_t now_ = 0;
  using Entry = std::pair<Cost, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue_;
};

Result<HubLabels> HubLabels::Build(const ContractionHierarchy& ch,
                                   ThreadPool* pool) {
  HubLabels hl;
  const NodeId n = ch.num_nodes();
  hl.num_nodes_ = n;
  hl.fwd_begin_.assign(static_cast<size_t>(n) + 1, 0);
  hl.bwd_begin_.assign(static_cast<size_t>(n) + 1, 0);
  if (n == 0) return hl;

  // Descending rank: every node comes after its upward neighbors. Sorted
  // by ascending height below (stable, so descending rank within a level).
  std::vector<NodeId> order(static_cast<size_t>(n), kInvalidNode);
  for (NodeId v = 0; v < n; ++v) {
    order[static_cast<size_t>(n - 1 - ch.rank(v))] = v;
  }

  // Height in the upward graph: 0 for a node with no upward neighbor in
  // either direction, else 1 + the largest height among them. Every node of
  // an upward search space but its source has a smaller height, so the
  // labels of one height level depend only on those of earlier levels.
  std::vector<int32_t> height(static_cast<size_t>(n), 0);
  auto climb = [&height](const std::vector<int64_t>& begin,
                         const std::vector<NodeId>& to, size_t v, int32_t h) {
    for (int64_t i = begin[v]; i < begin[v + 1]; ++i) {
      const auto up = static_cast<size_t>(to[static_cast<size_t>(i)]);
      h = std::max(h, height[up] + 1);
    }
    return h;
  };
  for (const NodeId v : order) {
    const auto vu = static_cast<size_t>(v);
    height[vu] = climb(ch.down_begin_, ch.down_to_, vu,
                       climb(ch.up_begin_, ch.up_to_, vu, 0));
  }
  std::stable_sort(order.begin(), order.end(), [&height](NodeId a, NodeId b) {
    return height[static_cast<size_t>(a)] < height[static_cast<size_t>(b)];
  });

  std::vector<std::vector<LabelEntry>> fwd(static_cast<size_t>(n));
  std::vector<std::vector<LabelEntry>> bwd(static_cast<size_t>(n));

  // Per-worker scratch: the upward searcher, and the label being pruned as
  // a dense hub -> cost array (infinite for hubs not in it), so each prune
  // test is one scan of the opposite label.
  struct Worker {
    explicit Worker(NodeId n)
        : search(n), label_cost(static_cast<size_t>(n), kInfiniteCost) {}
    HubLabelUpwardSearcher search;
    std::vector<Cost> label_cost;
  };
  const int workers = pool != nullptr ? std::max(pool->num_threads(), 1) : 1;
  std::vector<std::unique_ptr<Worker>> worker;
  worker.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    worker.push_back(std::make_unique<Worker>(n));
  }

  // Prunes one search space, in place, into a label: keeps each settled
  // (h, d) unless the entries kept so far and the final opposite label of
  // h already connect the source and h at no greater cost through a common
  // hub.
  auto prune = [](const std::vector<std::vector<LabelEntry>>& opposite,
                  std::vector<Cost>* label_cost,
                  std::vector<LabelEntry>* space) {
    size_t kept = 0;
    for (size_t j = 0; j < space->size(); ++j) {
      const auto [h, d] = (*space)[j];
      Cost best = kInfiniteCost;
      for (const LabelEntry& e : opposite[static_cast<size_t>(h)]) {
        const Cost c = (*label_cost)[static_cast<size_t>(e.hub)];
        if (c == kInfiniteCost) continue;
        const Cost sum = c + e.cost;
        if (sum < best) best = sum;
      }
      if (best <= d) continue;
      (*label_cost)[static_cast<size_t>(h)] = d;
      (*space)[kept++] = {h, d};
    }
    space->resize(kept);
    for (const LabelEntry& e : *space) {
      (*label_cost)[static_cast<size_t>(e.hub)] = kInfiniteCost;
    }
    std::sort(space->begin(), space->end(),
              [](const LabelEntry& a, const LabelEntry& b) {
                return a.hub < b.hub;
              });
  };

  // Levels in ascending height, each in fixed-size chunks. A chunk runs all
  // its searches (forward and backward per node), then prunes each search
  // space in its slot: back-to-back searches, then back-to-back prunes,
  // keep each phase's data in cache (search-then-prune per node was 10-20%
  // slower serially on nyc 10k and 40k). A prune reads only labels already
  // in the store. Every hub it settles but the source has a smaller height,
  // so that label is final; the source's own opposite label is not stored
  // yet, and the self entry (settled first, while nothing is kept) is kept
  // whatever that label holds, as in a serial descending-rank pass. Only
  // the calling thread copies the slots into the store, so label vectors
  // are allocated there (grown on workers, they cost memory in per-thread
  // malloc arenas). The chunk size is a constant, never derived from the
  // thread count, and each label is a pure function of the hierarchy: the
  // labels are bit-identical at any thread count.
  constexpr size_t kChunkNodes = 64;
  std::vector<std::vector<LabelEntry>> slot(2 * kChunkNodes);
  for (size_t level = 0; level < order.size();) {
    const int32_t h = height[static_cast<size_t>(order[level])];
    size_t level_end = level;
    while (level_end < order.size() &&
           height[static_cast<size_t>(order[level_end])] == h) {
      ++level_end;
    }
    for (size_t base = level; base < level_end; base += kChunkNodes) {
      // Slot 2i is node base+i forward, 2i+1 backward.
      const auto slots = static_cast<int64_t>(
          2 * std::min(kChunkNodes, level_end - base));
      ParallelFor(pool, slots, [&](int64_t k, int w) {
        const auto i = static_cast<size_t>(k);
        worker[static_cast<size_t>(w)]->search.Run(
            ch, order[base + i / 2], /*backward=*/i % 2 == 1, &slot[i]);
      });
      ParallelFor(pool, slots, [&](int64_t k, int w) {
        const auto i = static_cast<size_t>(k);
        prune(i % 2 == 1 ? fwd : bwd,
              &worker[static_cast<size_t>(w)]->label_cost, &slot[i]);
      });
      for (size_t i = 0; i < static_cast<size_t>(slots); ++i) {
        const auto v = static_cast<size_t>(order[base + i / 2]);
        (i % 2 == 1 ? bwd : fwd)[v] = slot[i];
      }
    }
    level = level_end;
  }

  // Flatten to CSR.
  auto flatten = [n](const std::vector<std::vector<LabelEntry>>& labels,
                     std::vector<int64_t>* begin_out, std::vector<NodeId>* hub,
                     std::vector<Cost>* cost) {
    int64_t total = 0;
    for (NodeId v = 0; v < n; ++v) {
      (*begin_out)[static_cast<size_t>(v)] = total;
      total += static_cast<int64_t>(labels[static_cast<size_t>(v)].size());
    }
    (*begin_out)[static_cast<size_t>(n)] = total;
    hub->reserve(static_cast<size_t>(total));
    cost->reserve(static_cast<size_t>(total));
    for (NodeId v = 0; v < n; ++v) {
      for (const auto& e : labels[static_cast<size_t>(v)]) {
        hub->push_back(e.hub);
        cost->push_back(e.cost);
      }
    }
  };
  flatten(fwd, &hl.fwd_begin_, &hl.fwd_hub_, &hl.fwd_cost_);
  flatten(bwd, &hl.bwd_begin_, &hl.bwd_hub_, &hl.bwd_cost_);
  return hl;
}

void HubLabels::Serialize(BinaryWriter* writer) const {
  writer->WriteI32(num_nodes_);
  writer->WriteVector(fwd_begin_);
  writer->WriteVector(fwd_hub_);
  writer->WriteVector(fwd_cost_);
  writer->WriteVector(bwd_begin_);
  writer->WriteVector(bwd_hub_);
  writer->WriteVector(bwd_cost_);
}

namespace {

/// Validates one direction's CSR label store: monotone offsets from 0, hub
/// ids in range and strictly ascending within every node's slice, finite
/// non-negative costs.
Status ValidateLabelCsr(const char* what, NodeId n,
                        const std::vector<int64_t>& begin,
                        const std::vector<NodeId>& hub,
                        const std::vector<Cost>& cost) {
  const auto nu = static_cast<size_t>(n);
  if (begin.size() != nu + 1) {
    return Status::InvalidArgument(std::string("labels: ") + what +
                                   " offset array has " +
                                   std::to_string(begin.size()) +
                                   " entries, want " + std::to_string(nu + 1));
  }
  if (begin.front() != 0) {
    return Status::InvalidArgument(std::string("labels: ") + what +
                                   " offsets must start at 0");
  }
  for (size_t v = 0; v < nu; ++v) {
    if (begin[v + 1] < begin[v]) {
      return Status::InvalidArgument(std::string("labels: ") + what +
                                     " offsets not monotone at node " +
                                     std::to_string(v));
    }
  }
  const auto total = static_cast<uint64_t>(begin.back());
  if (hub.size() != total || cost.size() != total) {
    return Status::InvalidArgument(std::string("labels: ") + what +
                                   " entry arrays disagree with offsets");
  }
  for (size_t v = 0; v < nu; ++v) {
    for (int64_t i = begin[v]; i < begin[v + 1]; ++i) {
      const NodeId h = hub[static_cast<size_t>(i)];
      if (h < 0 || h >= n) {
        return Status::InvalidArgument(std::string("labels: ") + what +
                                       " hub id out of range at node " +
                                       std::to_string(v));
      }
      if (i > begin[v] && hub[static_cast<size_t>(i - 1)] >= h) {
        return Status::InvalidArgument(std::string("labels: ") + what +
                                       " hubs not strictly ascending at node " +
                                       std::to_string(v));
      }
      const Cost c = cost[static_cast<size_t>(i)];
      if (!std::isfinite(c) || c < 0) {
        return Status::InvalidArgument(std::string("labels: ") + what +
                                       " non-finite or negative cost at node " +
                                       std::to_string(v));
      }
    }
  }
  return Status::OK();
}

}  // namespace

Result<HubLabels> HubLabels::Deserialize(BinaryReader* reader) {
  HubLabels hl;
  int32_t n = 0;
  URR_RETURN_NOT_OK(reader->ReadI32(&n));
  if (n < 0) {
    return Status::InvalidArgument("labels: negative node count");
  }
  hl.num_nodes_ = n;
  const auto nu = static_cast<size_t>(n);
  // Element caps: offsets are bounded by the node count; entry arrays by
  // what the remaining bytes can physically hold.
  const uint64_t max_entries = reader->remaining() / sizeof(NodeId);
  URR_RETURN_NOT_OK(reader->ReadVector(&hl.fwd_begin_, nu + 1));
  URR_RETURN_NOT_OK(reader->ReadVector(&hl.fwd_hub_, max_entries));
  URR_RETURN_NOT_OK(reader->ReadVector(&hl.fwd_cost_, max_entries));
  URR_RETURN_NOT_OK(reader->ReadVector(&hl.bwd_begin_, nu + 1));
  URR_RETURN_NOT_OK(reader->ReadVector(&hl.bwd_hub_, max_entries));
  URR_RETURN_NOT_OK(reader->ReadVector(&hl.bwd_cost_, max_entries));
  URR_RETURN_NOT_OK(
      ValidateLabelCsr("forward", n, hl.fwd_begin_, hl.fwd_hub_, hl.fwd_cost_));
  URR_RETURN_NOT_OK(ValidateLabelCsr("backward", n, hl.bwd_begin_, hl.bwd_hub_,
                                     hl.bwd_cost_));
  return hl;
}

Cost HubLabels::Distance(NodeId u, NodeId v) const {
  int64_t i = fwd_begin_[static_cast<size_t>(u)];
  const int64_t iend = fwd_begin_[static_cast<size_t>(u) + 1];
  int64_t j = bwd_begin_[static_cast<size_t>(v)];
  const int64_t jend = bwd_begin_[static_cast<size_t>(v) + 1];
  Cost best = kInfiniteCost;
  while (i < iend && j < jend) {
    const NodeId hi = fwd_hub_[static_cast<size_t>(i)];
    const NodeId hj = bwd_hub_[static_cast<size_t>(j)];
    if (hi < hj) {
      ++i;
    } else if (hi > hj) {
      ++j;
    } else {
      const Cost sum =
          fwd_cost_[static_cast<size_t>(i)] + bwd_cost_[static_cast<size_t>(j)];
      if (sum < best) best = sum;
      ++i;
      ++j;
    }
  }
  return best;
}

Result<std::unique_ptr<HubLabelOracle>> HubLabelOracle::Create(
    const RoadNetwork& network, const ChOptions& options) {
  URR_ASSIGN_OR_RETURN(ContractionHierarchy ch,
                       ContractionHierarchy::Build(network, options));
  URR_ASSIGN_OR_RETURN(HubLabels labels, HubLabels::Build(ch, options.pool));
  return std::make_unique<HubLabelOracle>(
      std::make_shared<const HubLabels>(std::move(labels)));
}

Cost HubLabelOracle::Distance(NodeId u, NodeId v) {
  ++num_calls_;
  return labels_->Distance(u, v);
}

std::unique_ptr<DistanceOracle> HubLabelOracle::Clone() const {
  return std::make_unique<HubLabelOracle>(labels_);
}

}  // namespace urr
