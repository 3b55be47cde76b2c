#include "urr/greedy.h"

#include <queue>

namespace urr {

namespace {

constexpr Cost kCostEps = 1e-7;

/// Queue key for a candidate pair under the chosen objective.
double KeyOf(GreedyObjective objective, const CandidateEval& eval) {
  switch (objective) {
    case GreedyObjective::kUtilityEfficiency:
      // Eq. 9; a zero-cost insertion (stops already on the route) is the
      // best possible deal, keyed by its utility gain at a huge multiplier.
      return eval.delta_utility / std::max(eval.delta_cost, kCostEps);
    case GreedyObjective::kCostFirst:
      return -eval.delta_cost;
  }
  return 0;
}

struct QueueEntry {
  double key;
  RiderId rider;
  int vehicle;
  uint64_t version;  // vehicle schedule version this key was computed at

  bool operator<(const QueueEntry& other) const { return key < other.key; }
};

}  // namespace

void GreedyArrange(const UrrInstance& instance, SolverContext* ctx,
                   const std::vector<RiderId>& riders,
                   const std::vector<int>& vehicles, GreedyObjective objective,
                   UrrSolution* sol) {
  // Restrict the prefilter to the given vehicle subset.
  std::vector<bool> allowed(instance.vehicles.size(), false);
  for (int j : vehicles) allowed[static_cast<size_t>(j)] = true;

  std::vector<uint64_t> version(instance.vehicles.size(), 0);
  std::priority_queue<QueueEntry> queue;

  // Lines 2-7 of Algorithm 3: build the valid pair set with efficiencies.
  // Each rider's candidate list comes back in ascending-id order. The
  // independent evaluations — the dominant cost of the refill — are
  // batched and fanned out. Pairs enter the queue in rider order then
  // candidate order, so the heap (and therefore every later pop and
  // tie-break) is identical for any thread count.
  const bool need_utility = objective != GreedyObjective::kCostFirst;
  std::vector<RiderId> open;
  for (RiderId i : riders) {
    if (sol->assignment[static_cast<size_t>(i)] >= 0) continue;
    open.push_back(i);
  }
  const std::vector<std::vector<int>> candidates =
      CandidateVehiclesForRiders(instance, ctx, open, &allowed);
  std::vector<RiderVehiclePair> pairs;
  for (size_t k = 0; k < open.size(); ++k) {
    for (int j : candidates[k]) pairs.push_back({open[k], j});
  }
  const std::vector<CandidateEval> evals =
      EvaluateCandidates(instance, ctx, *sol, pairs, need_utility);
  for (size_t k = 0; k < pairs.size(); ++k) {
    if (!evals[k].feasible) continue;
    queue.push({KeyOf(objective, evals[k]), pairs[k].rider, pairs[k].vehicle,
                version[static_cast<size_t>(pairs[k].vehicle)]});
  }

  // Lines 8-12: repeatedly commit the best pair; pairs whose vehicle changed
  // since their key was computed are lazily re-evaluated on pop.
  while (!queue.empty()) {
    const QueueEntry top = queue.top();
    queue.pop();
    if (sol->assignment[static_cast<size_t>(top.rider)] >= 0) continue;
    if (top.version != version[static_cast<size_t>(top.vehicle)]) {
      // Stale: the vehicle's schedule changed. Re-evaluate and re-queue.
      const CandidateEval eval = EvaluateCandidate(
          instance, ctx, *sol, top.rider, top.vehicle, need_utility);
      if (!eval.feasible) continue;  // line 12: drop invalid pairs
      queue.push({KeyOf(objective, eval), top.rider, top.vehicle,
                  version[static_cast<size_t>(top.vehicle)]});
      continue;
    }
    // Fresh best pair: insert (line 10, via Algorithm 1).
    TransferSequence& seq = sol->schedules[static_cast<size_t>(top.vehicle)];
    Result<InsertionPlan> plan = FindBestInsertion(seq, instance.Trip(top.rider));
    if (!plan.ok()) continue;
    if (!ApplyInsertion(&seq, instance.Trip(top.rider), *plan).ok()) continue;
    sol->assignment[static_cast<size_t>(top.rider)] = top.vehicle;
    ++version[static_cast<size_t>(top.vehicle)];  // line 11
  }
}

UrrSolution SolveEfficientGreedy(const UrrInstance& instance,
                                 SolverContext* ctx) {
  UrrSolution sol = MakeEmptySolution(instance, ctx->oracle);
  std::vector<RiderId> riders(instance.riders.size());
  for (size_t i = 0; i < riders.size(); ++i) riders[i] = static_cast<RiderId>(i);
  std::vector<int> vehicles(instance.vehicles.size());
  for (size_t j = 0; j < vehicles.size(); ++j) vehicles[j] = static_cast<int>(j);
  GreedyArrange(instance, ctx, riders, vehicles,
                GreedyObjective::kUtilityEfficiency, &sol);
  return sol;
}

}  // namespace urr
