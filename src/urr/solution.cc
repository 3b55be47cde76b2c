#include "urr/solution.h"

#include <algorithm>
#include <cmath>

#include "common/scratch.h"
#include "common/stopwatch.h"
#include "urr/eval_cache.h"

namespace urr {

double UrrSolution::TotalUtility(const UtilityModel& model) const {
  double total = 0;
  for (size_t j = 0; j < schedules.size(); ++j) {
    total += model.ScheduleUtility(static_cast<int>(j), schedules[j]);
  }
  return total;
}

Cost UrrSolution::TotalCost() const {
  Cost total = 0;
  for (const TransferSequence& s : schedules) total += s.TotalCost();
  return total;
}

int UrrSolution::NumAssigned() const {
  int n = 0;
  for (int a : assignment) n += (a >= 0);
  return n;
}

Status UrrSolution::Validate(const UrrInstance& instance) const {
  if (static_cast<int>(schedules.size()) != instance.num_vehicles()) {
    return Status::Internal("schedule count mismatch");
  }
  if (static_cast<int>(assignment.size()) != instance.num_riders()) {
    return Status::Internal("assignment size mismatch");
  }
  for (size_t j = 0; j < schedules.size(); ++j) {
    URR_RETURN_NOT_OK(schedules[j].Validate());
    for (RiderId i : schedules[j].Riders()) {
      if (assignment[static_cast<size_t>(i)] != static_cast<int>(j)) {
        return Status::Internal("rider " + std::to_string(i) +
                                " scheduled on vehicle " + std::to_string(j) +
                                " but assigned elsewhere");
      }
      // Stops must match the rider's request.
      const Rider& r = instance.riders[static_cast<size_t>(i)];
      const auto [p, q] = schedules[j].RiderStops(i);
      if (p < 0 || q < 0) return Status::Internal("missing rider stops");
      if (schedules[j].stop(p).location != r.source ||
          schedules[j].stop(q).location != r.destination) {
        return Status::Internal("stop locations disagree with request");
      }
    }
  }
  for (size_t i = 0; i < assignment.size(); ++i) {
    const int j = assignment[i];
    if (j < -1 || j >= instance.num_vehicles()) {
      return Status::Internal("assignment out of range");
    }
    if (j >= 0) {
      const auto [p, q] =
          schedules[static_cast<size_t>(j)].RiderStops(static_cast<RiderId>(i));
      if (p < 0 || q < 0) {
        return Status::Internal("assigned rider missing from schedule");
      }
    }
  }
  return Status::OK();
}

UrrSolution MakeEmptySolution(const UrrInstance& instance,
                              DistanceOracle* oracle) {
  UrrSolution sol;
  sol.schedules.reserve(instance.vehicles.size());
  for (const Vehicle& v : instance.vehicles) {
    sol.schedules.emplace_back(v.location, instance.now, v.capacity, oracle);
  }
  sol.assignment.assign(instance.riders.size(), -1);
  return sol;
}

namespace {

/// One kernel run, no cache involvement: Algorithm 1 on the scratch kernel
/// reading the schedule through a ScheduleView (a worker's oracle is
/// re-pointed as a view field instead of copying the schedule), screened by
/// the context's Euclidean bound, with Δμ computed on a scratch-built trial
/// view.
CandidateEval EvaluateWithContext(const UrrInstance& instance,
                                  const SolverContext* ctx,
                                  const UrrSolution& sol, RiderId i, int j,
                                  bool need_utility,
                                  DistanceOracle* eval_oracle) {
  if (ctx->counters != nullptr) {
    ctx->counters->kernel_evals.fetch_add(1, std::memory_order_relaxed);
  }
  ScheduleView view = sol.schedules[static_cast<size_t>(j)].View();
  if (eval_oracle != nullptr) view.oracle = eval_oracle;
  const RiderTrip trip = instance.Trip(i);
  const InsertionScreen screen{instance.network, ctx->euclid_speed};
  InsertionScratch& scratch = ThreadLocalScratch<InsertionScratch>();
  const uint64_t elided0 = scratch.elided_queries;
  const uint64_t screened0 = scratch.screened_pairs;
  CandidateEval eval;
  Result<InsertionPlan> plan = FindBestInsertionScratch(
      view, trip, &eval.capacity_blocked, &screen, &scratch);
  if (plan.ok()) {
    eval.feasible = true;
    eval.plan = *plan;
    eval.delta_cost = plan->delta_cost;
    if (need_utility) {
      const ScheduleView trial = BuildTrialView(view, trip, *plan, &scratch);
      eval.delta_utility = ctx->model->ScheduleUtility(j, trial) -
                           ctx->model->ScheduleUtility(j, view);
    }
  }
  if (ctx->counters != nullptr) {
    ctx->counters->elided_queries.fetch_add(
        scratch.elided_queries - elided0, std::memory_order_relaxed);
    ctx->counters->screened_pairs.fetch_add(
        scratch.screened_pairs - screened0, std::memory_order_relaxed);
  }
  return eval;
}

}  // namespace

CandidateEval EvaluateCandidate(const UrrInstance& instance,
                                const SolverContext* ctx,
                                const UrrSolution& sol, RiderId i, int j,
                                bool need_utility,
                                DistanceOracle* eval_oracle) {
  const uint64_t version =
      sol.schedules[static_cast<size_t>(j)].version();
  if (ctx->eval_cache != nullptr) {
    CandidateEval cached;
    if (ctx->eval_cache->Lookup(i, j, version, need_utility, &cached,
                                ctx->eval_epoch)) {
      if (ctx->counters != nullptr) {
        ctx->counters->cache_hits.fetch_add(1, std::memory_order_relaxed);
      }
      return cached;
    }
    if (ctx->counters != nullptr) {
      ctx->counters->cache_misses.fetch_add(1, std::memory_order_relaxed);
    }
  }
  const CandidateEval eval = EvaluateWithContext(instance, ctx, sol, i, j,
                                                 need_utility, eval_oracle);
  if (ctx->eval_cache != nullptr) {
    ctx->eval_cache->Store(i, j, version, need_utility, eval,
                           ctx->eval_epoch);
  }
  return eval;
}

std::vector<CandidateEval> EvaluateCandidates(
    const UrrInstance& instance, SolverContext* ctx, const UrrSolution& sol,
    const std::vector<RiderVehiclePair>& pairs, bool need_utility) {
  std::vector<CandidateEval> evals(pairs.size());
  // Cache pass first (serial, O(1) per pair): a clean entry means the
  // vehicle is untouched since the pair was last evaluated, so the stored
  // result is bit-identical to a recompute. Only the misses fan out, each
  // worker's kernel querying its own oracle.
  std::vector<size_t> miss;
  if (ctx->eval_cache != nullptr) {
    uint64_t hits = 0;
    miss.reserve(pairs.size());
    for (size_t k = 0; k < pairs.size(); ++k) {
      const RiderVehiclePair& p = pairs[k];
      const uint64_t version =
          sol.schedules[static_cast<size_t>(p.vehicle)].version();
      if (ctx->eval_cache->Lookup(p.rider, p.vehicle, version, need_utility,
                                  &evals[k], ctx->eval_epoch)) {
        ++hits;
      } else {
        miss.push_back(k);
      }
    }
    if (ctx->counters != nullptr) {
      ctx->counters->cache_hits.fetch_add(hits, std::memory_order_relaxed);
      ctx->counters->cache_misses.fetch_add(miss.size(),
                                            std::memory_order_relaxed);
    }
    if (miss.empty()) return evals;
  } else {
    miss.resize(pairs.size());
    for (size_t k = 0; k < pairs.size(); ++k) miss[k] = k;
  }
  ParallelFor(ctx->eval_pool(), static_cast<int64_t>(miss.size()),
              [&](int64_t m, int worker) {
                const size_t k = miss[static_cast<size_t>(m)];
                evals[k] = EvaluateWithContext(
                    instance, ctx, sol, pairs[k].rider, pairs[k].vehicle,
                    need_utility, ctx->worker_oracle(worker));
              });
  if (ctx->eval_cache != nullptr) {
    // Store after the wave: distinct (rider, vehicle) keys per wave entry,
    // so insertion order cannot change any stored value.
    for (const size_t k : miss) {
      const RiderVehiclePair& p = pairs[k];
      ctx->eval_cache->Store(
          p.rider, p.vehicle,
          sol.schedules[static_cast<size_t>(p.vehicle)].version(),
          need_utility, evals[k], ctx->eval_epoch);
    }
  }
  return evals;
}

void AttachThreadPool(SolverContext* ctx, ThreadPool* pool) {
  ctx->pool = pool;
  ctx->worker_set.reset();
  if (pool == nullptr || pool->num_threads() <= 1 || ctx->oracle == nullptr) {
    return;
  }
  // Build the whole set locally and attach it only when complete: if any
  // Clone() throws, the partial set (and its owned clones) unwinds here and
  // the context stays serial with no dangling pointers.
  auto set = std::make_shared<WorkerOracleSet>();
  set->oracles.push_back(ctx->oracle);  // worker 0 is the caller
  for (int w = 1; w < pool->num_threads(); ++w) {
    std::unique_ptr<DistanceOracle> clone = ctx->oracle->Clone();
    set->oracles.push_back(clone.get());
    set->owned.push_back(std::move(clone));
  }
  ctx->worker_set = std::move(set);
}

std::vector<int> ValidVehiclesForRider(const UrrInstance& instance,
                                       VehicleIndex* index, RiderId i,
                                       const std::vector<bool>* allowed,
                                       int worker) {
  const Rider& r = instance.riders[static_cast<size_t>(i)];
  const Cost budget = r.pickup_deadline - instance.now;
  std::vector<int> out;
  if (budget < 0) return out;
  for (const VehicleWithDistance& v :
       index->VehiclesWithinCost(r.source, budget, worker)) {
    if (allowed != nullptr && !(*allowed)[static_cast<size_t>(v.vehicle)]) {
      continue;
    }
    out.push_back(v.vehicle);
  }
  // Canonical order: the reverse Dijkstra settles by distance with
  // unspecified heap ties, so downstream tie-breaks see ascending ids.
  std::sort(out.begin(), out.end());
  return out;
}

void RetrievalStats::Record(size_t set_size) {
  if (set_size >= size_counts.size()) size_counts.resize(set_size + 1, 0);
  ++size_counts[set_size];
}

void RetrievalStats::SummarizeCandidates(double* mean, double* p99) const {
  *mean = 0;
  *p99 = 0;
  int64_t queries = 0;
  int64_t sum = 0;
  for (size_t c = 0; c < size_counts.size(); ++c) {
    queries += size_counts[c];
    sum += static_cast<int64_t>(c) * size_counts[c];
  }
  if (queries == 0) return;
  *mean = static_cast<double>(sum) / static_cast<double>(queries);
  // Nearest rank: the smallest size whose cumulative count reaches
  // ceil(0.99 * queries).
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(0.99 * static_cast<double>(queries))));
  int64_t seen = 0;
  for (size_t c = 0; c < size_counts.size(); ++c) {
    seen += size_counts[c];
    if (seen >= rank) {
      *p99 = static_cast<double>(c);
      return;
    }
  }
}

std::vector<std::vector<int>> CandidateVehiclesForRiders(
    const UrrInstance& instance, const SolverContext* ctx,
    const std::vector<RiderId>& riders, const std::vector<bool>* allowed) {
  Stopwatch timer;
  std::vector<std::vector<int>> out(riders.size());
  ThreadPool* pool = ctx->eval_pool();
  ctx->vehicle_index->ReserveWorkers(
      std::max(pool == nullptr ? 1 : pool->num_threads(),
               ThreadPool::CurrentWorker() + 1));
  ParallelFor(pool, static_cast<int64_t>(riders.size()),
              [&](int64_t k, int worker) {
                out[static_cast<size_t>(k)] = ValidVehiclesForRider(
                    instance, ctx->vehicle_index,
                    riders[static_cast<size_t>(k)], allowed, worker);
              });
  if (RetrievalStats* stats = ctx->retrieval_stats; stats != nullptr) {
    const double seconds = timer.ElapsedSeconds();
    stats->riders.fetch_add(static_cast<int64_t>(out.size()));
    for (const std::vector<int>& c : out) {
      stats->candidates.fetch_add(static_cast<int64_t>(c.size()));
      stats->Record(c.size());
    }
    stats->retrieval_nanos.fetch_add(static_cast<int64_t>(seconds * 1e9));
  }
  return out;
}

std::vector<int> CandidateVehiclesForRider(const UrrInstance& instance,
                                           const SolverContext* ctx, RiderId i,
                                           const std::vector<bool>* allowed) {
  return CandidateVehiclesForRiders(instance, ctx, {i}, allowed).front();
}

}  // namespace urr
