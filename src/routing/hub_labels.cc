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

/// Per-worker scratch for one complete upward search: ChQuery's timestamped
/// relax / stall-on-demand rules, settle order recorded. The search is a
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
           std::vector<std::pair<NodeId, Cost>>* settled) {
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

  // Top-down: the rank-(n-1) node first, so every non-self settled hub
  // already carries its final label when we prune against it.
  std::vector<NodeId> order(static_cast<size_t>(n), kInvalidNode);
  for (NodeId v = 0; v < n; ++v) {
    order[static_cast<size_t>(n - 1 - ch.rank(v))] = v;
  }

  std::vector<std::vector<LabelEntry>> fwd(static_cast<size_t>(n));
  std::vector<std::vector<LabelEntry>> bwd(static_cast<size_t>(n));

  const int workers = pool != nullptr ? std::max(pool->num_threads(), 1) : 1;
  std::vector<std::unique_ptr<HubLabelUpwardSearcher>> worker_search;
  worker_search.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    worker_search.push_back(std::make_unique<HubLabelUpwardSearcher>(n));
  }

  // Two-pass over fixed-size rank blocks: the searches (the dominant cost)
  // are label-independent, so a whole block of them runs in parallel into
  // per-index slots; the pruning pass then consumes the slots serially in
  // the exact descending-rank, forward-then-backward order of the serial
  // algorithm. The block size is a constant — never derived from the thread
  // count — so the labels are bit-identical at any parallelism level.
  //
  // The label being pruned also lives in `label_cost` (hub -> cost, infinite
  // for hubs not in it), so each prune test is one scan of the opposite
  // label; the kept entries are sorted by hub once the label is complete.
  constexpr int64_t kBlockNodes = 64;
  std::vector<Cost> label_cost(static_cast<size_t>(n), kInfiniteCost);
  std::vector<std::vector<std::pair<NodeId, Cost>>> slot(
      static_cast<size_t>(kBlockNodes) * 2);
  for (int64_t base = 0; base < n; base += kBlockNodes) {
    const int64_t block = std::min<int64_t>(kBlockNodes, n - base);
    ParallelFor(pool, block * 2, [&](int64_t k, int w) {
      const NodeId v = order[static_cast<size_t>(base + k / 2)];
      worker_search[static_cast<size_t>(w)]->Run(ch, v, /*backward=*/k % 2 == 1,
                                                 &slot[static_cast<size_t>(k)]);
    });
    for (int64_t i = 0; i < block; ++i) {
      const NodeId v = order[static_cast<size_t>(base + i)];
      for (int side = 0; side < 2; ++side) {
        const bool backward = side == 1;
        const auto& settled = slot[static_cast<size_t>(i * 2 + side)];
        auto& mine = backward ? bwd[static_cast<size_t>(v)]
                              : fwd[static_cast<size_t>(v)];
        const auto& opposite = backward ? fwd : bwd;
        for (const auto& [h, d] : settled) {
          // Prune when the labels kept so far already connect v and h at no
          // greater cost through a higher hub: the minimum over their
          // common hubs, read from the dense copy of v's label.
          Cost best = kInfiniteCost;
          for (const LabelEntry& e : opposite[static_cast<size_t>(h)]) {
            const Cost c = label_cost[static_cast<size_t>(e.hub)];
            if (c == kInfiniteCost) continue;
            const Cost sum = c + e.cost;
            if (sum < best) best = sum;
          }
          if (best <= d) continue;
          label_cost[static_cast<size_t>(h)] = d;
          mine.push_back({h, d});
        }
        for (const LabelEntry& e : mine) {
          label_cost[static_cast<size_t>(e.hub)] = kInfiniteCost;
        }
        std::sort(mine.begin(), mine.end(),
                  [](const LabelEntry& a, const LabelEntry& b) {
                    return a.hub < b.hub;
                  });
      }
    }
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
  return FromHierarchy(ch, options.pool);
}

Result<std::unique_ptr<HubLabelOracle>> HubLabelOracle::FromHierarchy(
    const ContractionHierarchy& ch, ThreadPool* pool) {
  URR_ASSIGN_OR_RETURN(HubLabels labels, HubLabels::Build(ch, pool));
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
