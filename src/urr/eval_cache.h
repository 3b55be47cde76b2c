// Cross-window candidate-evaluation cache. An insertion evaluation is a pure
// function of (rider trip, vehicle schedule), and TransferSequence stamps a
// process-unique version on every content mutation — so a CandidateEval
// keyed by (rider, vehicle, schedule-version) stays valid until the vehicle
// actually changes. The streaming engine re-solves the full rider×vehicle
// matrix every micro-batch window; with this cache only dirty vehicles are
// re-evaluated and queued riders that persist across windows stop paying
// the full matrix.
#ifndef URR_URR_EVAL_CACHE_H_
#define URR_URR_EVAL_CACHE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "urr/solution.h"

namespace urr {

/// Aggregated evaluation-path counters, shared by all workers of a solve.
/// Attached to a SolverContext; solvers bump them as they evaluate.
struct EvalCounters {
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> cache_misses{0};
  std::atomic<uint64_t> screened_pairs{0};   // pairs rejected with 0 queries
  std::atomic<uint64_t> elided_queries{0};   // oracle queries bound-screened
  std::atomic<uint64_t> kernel_evals{0};     // exact kernel invocations

  void Reset() {
    cache_hits = 0;
    cache_misses = 0;
    screened_pairs = 0;
    elided_queries = 0;
    kernel_evals = 0;
  }
};

/// Thread-safe (rider, vehicle, schedule-version) -> CandidateEval map.
/// A hit returns bytes identical to re-running the kernel (the kernel is
/// deterministic and versions change whenever inputs do), so cached and
/// uncached runs produce byte-identical solutions. Entries remember whether
/// the stored eval includes the Δμ term: a utility-bearing entry serves
/// both request kinds (Δμ zeroed for need_utility=false, matching a fresh
/// cost-only eval), a cost-only entry never serves a utility request.
class EvalCache {
 public:
  /// Returns true and fills `out` when a fresh-enough entry exists.
  /// `epoch` is the caller's routing-overlay epoch (SolverContext::
  /// eval_epoch): an entry stored under a different epoch was evaluated
  /// against different network distances and never hits.
  bool Lookup(RiderId rider, int vehicle, uint64_t version, bool need_utility,
              CandidateEval* out, uint64_t epoch = 0) {
    const uint64_t key = Key(rider, vehicle);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end() || it->second.version != version ||
        it->second.epoch != epoch) {
      return false;
    }
    if (need_utility && !it->second.has_utility) return false;
    *out = it->second.eval;
    if (!need_utility && it->second.has_utility) {
      // A cost-only evaluation leaves Δμ at its default.
      out->delta_utility = 0;
    }
    return true;
  }

  /// Records an evaluation. Never downgrades: a same-version entry that
  /// already carries the Δμ term is kept over an incoming cost-only one.
  void Store(RiderId rider, int vehicle, uint64_t version, bool has_utility,
             const CandidateEval& eval, uint64_t epoch = 0) {
    const uint64_t key = Key(rider, vehicle);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end() && it->second.version == version &&
        it->second.epoch == epoch && it->second.has_utility && !has_utility) {
      return;
    }
    map_[key] = Entry{version, epoch, has_utility, eval};
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    map_.clear();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }

 private:
  struct Entry {
    uint64_t version = 0;
    uint64_t epoch = 0;
    bool has_utility = false;
    CandidateEval eval;
  };

  static uint64_t Key(RiderId rider, int vehicle) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(rider)) << 32) |
           static_cast<uint64_t>(static_cast<uint32_t>(vehicle));
  }

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Entry> map_;
};

}  // namespace urr

#endif  // URR_URR_EVAL_CACHE_H_
