// UrrSolution: one schedule per vehicle plus the rider assignment, with the
// metrics the paper reports (overall utility, total travel cost, #served)
// and the candidate-insertion evaluation shared by all solvers.
#ifndef URR_URR_SOLUTION_H_
#define URR_URR_SOLUTION_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/parallel_for.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "sched/insertion.h"
#include "sched/transfer_sequence.h"
#include "spatial/vehicle_index.h"
#include "urr/instance.h"
#include "urr/utility.h"

namespace urr {

class EvalCache;        // urr/eval_cache.h
struct EvalCounters;    // urr/eval_cache.h

/// Counters of the candidate-retrieval phase (CandidateVehiclesForRiders).
/// Recorded by the calling thread once each retrieval batch has joined; the
/// atomics let a caller read per-window deltas while a solve runs.
struct RetrievalStats {
  std::atomic<int64_t> riders{0};           // retrieval queries answered
  std::atomic<int64_t> candidates{0};       // candidates returned in total
  std::atomic<int64_t> retrieval_nanos{0};  // wall time in retrieval
  /// size_counts[c] = queries that returned c candidates. A set never
  /// exceeds the fleet, so this stays at most fleet size + 1 entries however
  /// long a session runs.
  std::vector<int64_t> size_counts;

  /// Counts one query that returned `set_size` candidates.
  void Record(size_t set_size);
  /// Mean and nearest-rank p99 of the recorded set sizes; both 0 before the
  /// first query.
  void SummarizeCandidates(double* mean, double* p99) const;
};

/// A (partial) solution to a URR instance.
struct UrrSolution {
  std::vector<TransferSequence> schedules;  // one per vehicle
  std::vector<int> assignment;              // rider -> vehicle index or -1

  /// Σ over assigned riders of μ(r_i, c_{r_i}) — the URR objective.
  double TotalUtility(const UtilityModel& model) const;
  /// Σ over vehicles of schedule travel cost.
  Cost TotalCost() const;
  /// Number of assigned riders.
  int NumAssigned() const;
  /// Checks every schedule's invariants and assignment consistency.
  Status Validate(const UrrInstance& instance) const;
};

/// Empty solution: every vehicle idle at its current location.
UrrSolution MakeEmptySolution(const UrrInstance& instance,
                              DistanceOracle* oracle);

/// Per-worker distance oracles with their ownership in one structure:
/// `oracles[0]` is the shared (caller) oracle, entries 1.. point into
/// `owned` (DistanceOracle::Clone results). Built atomically by
/// AttachThreadPool — a Clone() that throws or fails mid-way unwinds the
/// local set and leaves the context untouched, so no raw pointer can ever
/// outlive its owner.
struct WorkerOracleSet {
  std::vector<std::unique_ptr<DistanceOracle>> owned;
  std::vector<DistanceOracle*> oracles;
};

/// Everything a solver needs besides the instance. All pointers borrowed.
struct SolverContext {
  DistanceOracle* oracle = nullptr;
  const UtilityModel* model = nullptr;
  VehicleIndex* vehicle_index = nullptr;
  Rng* rng = nullptr;
  /// Network max speed (Euclidean units per cost unit, RoadNetwork::
  /// MaxSpeed()). When > 0 and the network has coordinates, the insertion
  /// kernel applies the admissible lower bound euclid(u,v)/euclid_speed
  /// before exact shortest-path queries — the paper's spatial-index
  /// prefilter. The bound only elides queries whose outcome it decides, so
  /// results are identical with 0 (no bound).
  double euclid_speed = 0;
  /// Optional worker pool for the read-only candidate-evaluation phase.
  /// nullptr (the default) keeps every solver fully serial. Results are
  /// bit-identical for any pool size — parallel evaluations land in
  /// per-index slots and all commits stay sequential.
  ThreadPool* pool = nullptr;
  /// Per-worker oracles, shared with every copy of this context (the
  /// harness hands out context copies). Wire with AttachThreadPool; when
  /// the set doesn't cover every worker the solvers silently stay serial,
  /// so a non-cloneable oracle can never race.
  std::shared_ptr<WorkerOracleSet> worker_set;
  /// Optional (rider, vehicle, schedule-version) evaluation cache shared
  /// across solver calls — the engine attaches one so unchanged vehicles
  /// are not re-evaluated every window. Borrowed; nullptr disables.
  EvalCache* eval_cache = nullptr;
  /// Routing-overlay epoch stamped into every eval-cache key. The engine
  /// bumps it whenever an edge disruption or restore changes the effective
  /// network, so evaluations computed against stale distances never hit.
  uint64_t eval_epoch = 0;
  /// Optional evaluation-path counters (hits/misses/screens). Borrowed.
  EvalCounters* counters = nullptr;
  /// Optional retrieval-phase counters. Borrowed; nullptr disables.
  RetrievalStats* retrieval_stats = nullptr;

  /// The pool to actually fan out on: `pool` when the worker set covers
  /// every worker, nullptr (serial) otherwise.
  ThreadPool* eval_pool() const {
    if (pool == nullptr || pool->num_threads() <= 1) return nullptr;
    return worker_set != nullptr &&
                   worker_set->oracles.size() >=
                       static_cast<size_t>(pool->num_threads())
               ? pool
               : nullptr;
  }
  /// Worker `w`'s private oracle (the shared one for worker 0 / serial).
  DistanceOracle* worker_oracle(int w) const {
    if (worker_set == nullptr || w <= 0 ||
        static_cast<size_t>(w) >= worker_set->oracles.size()) {
      return oracle;
    }
    return worker_set->oracles[static_cast<size_t>(w)];
  }
};

/// Wires `ctx` for parallel evaluation on `pool`: clones ctx->oracle once
/// per extra worker into a WorkerOracleSet owned by the context (shared
/// with context copies). Exception-safe: a throwing Clone() leaves the
/// context serial (worker_set empty).
void AttachThreadPool(SolverContext* ctx, ThreadPool* pool);

/// Outcome of evaluating "insert rider i into vehicle j's current schedule".
struct CandidateEval {
  bool feasible = false;
  /// When infeasible: some insertion position failed only on capacity
  /// (condition d) — distinguishes "vehicle full" from "deadline too tight"
  /// for rejection reporting.
  bool capacity_blocked = false;
  InsertionPlan plan;
  double delta_utility = 0;  // μ(S') - μ(S), all riders of the vehicle
  Cost delta_cost = kInfiniteCost;
};

/// One rider-vehicle candidate pair of a batch evaluation.
struct RiderVehiclePair {
  RiderId rider = -1;
  int vehicle = -1;
};

/// Evaluates the best insertion of rider `i` into vehicle `j`'s schedule in
/// `sol` (Algorithm 1 + full utility delta) — the entry point all solvers
/// use. Does not mutate anything. Consults ctx->eval_cache (keyed by the
/// schedule's version), then runs the zero-copy kernel with the
/// ctx->euclid_speed screen, updating ctx->counters; the result is the same
/// with or without cache and screen. `need_utility=false` skips the Δμ
/// computation (the CF baseline only needs Δcost, which is what makes it
/// the cheapest method). `eval_oracle`, when non-null, answers every
/// distance query of this evaluation — this is how worker threads evaluate
/// candidates without touching the shared oracle. Same values either way.
CandidateEval EvaluateCandidate(const UrrInstance& instance,
                                const SolverContext* ctx,
                                const UrrSolution& sol, RiderId i, int j,
                                bool need_utility,
                                DistanceOracle* eval_oracle = nullptr);

/// Evaluates EvaluateCandidate over every pair, fanning out on
/// ctx->eval_pool() when available. Output slot k always corresponds to
/// pairs[k] and holds exactly what a serial loop would have produced, so
/// callers that consume the results in index order are bit-identical to
/// serial no matter the thread count.
std::vector<CandidateEval> EvaluateCandidates(
    const UrrInstance& instance, SolverContext* ctx, const UrrSolution& sol,
    const std::vector<RiderVehiclePair>& pairs, bool need_utility);

/// Valid vehicles per rider (the C_i lists): vehicles whose current location
/// can reach s_i before rt⁻_i (Lemma 3.1 a+b as a prefilter), computed with
/// one bounded reverse Dijkstra per rider via the vehicle index. When
/// `allowed` is non-null, results are restricted to that vehicle subset.
/// Ascending vehicle id — the canonical candidate order, so downstream
/// tie-breaks do not depend on the Dijkstra heap's tie order. `worker`
/// picks the index's Dijkstra engine (VehicleIndex::VehiclesWithinCost).
std::vector<int> ValidVehiclesForRider(const UrrInstance& instance,
                                       VehicleIndex* index, RiderId i,
                                       const std::vector<bool>* allowed,
                                       int worker = 0);

/// Batch candidate retrieval for `riders` through ctx->vehicle_index: out[k]
/// is the ValidVehiclesForRider set for riders[k]. Fans out over riders on
/// ctx->eval_pool(), each worker on its own engine of the index; the lists
/// are the same for any pool size. Records into ctx->retrieval_stats.
std::vector<std::vector<int>> CandidateVehiclesForRiders(
    const UrrInstance& instance, const SolverContext* ctx,
    const std::vector<RiderId>& riders, const std::vector<bool>* allowed);

/// Single-rider convenience wrapper over CandidateVehiclesForRiders.
std::vector<int> CandidateVehiclesForRider(const UrrInstance& instance,
                                           const SolverContext* ctx, RiderId i,
                                           const std::vector<bool>* allowed);

}  // namespace urr

#endif  // URR_URR_SOLUTION_H_
