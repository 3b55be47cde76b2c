#include "urr/bilateral.h"

#include <algorithm>
#include <optional>

namespace urr {

namespace {

constexpr Cost kCostEps = 1e-7;
constexpr double kUtilityEps = 1e-12;

/// Attempted replacement outcome.
struct Replacement {
  bool found = false;
  RiderId removed = -1;
  std::optional<TransferSequence> schedule;  // schedule after replace+insert
  double new_utility = 0;
};

/// Tries to replace one rider of vehicle `j` with rider `i` such that the
/// vehicle's travel cost strictly drops and its utility strictly rises
/// (lines 12-15 of Algorithm 2). Returns the best (max utility) option.
Replacement TryReplace(const UrrInstance& instance, const UtilityModel& model,
                       const UrrSolution& sol, RiderId i, int j,
                       const std::vector<bool>* removable) {
  Replacement best;
  const TransferSequence& seq = sol.schedules[static_cast<size_t>(j)];
  const Cost old_cost = seq.TotalCost();
  const double old_mu = model.ScheduleUtility(j, seq);
  for (RiderId other : seq.Riders()) {
    if (removable != nullptr && !(*removable)[static_cast<size_t>(other)]) {
      continue;
    }
    TransferSequence trial = seq;
    if (!trial.RemoveRider(other).ok()) continue;
    Result<InsertionPlan> plan = FindBestInsertion(trial, instance.Trip(i));
    if (!plan.ok()) continue;
    if (!ApplyInsertion(&trial, instance.Trip(i), *plan).ok()) continue;
    const Cost new_cost = trial.TotalCost();
    const double new_mu = model.ScheduleUtility(j, trial);
    if (new_cost < old_cost - kCostEps && new_mu > old_mu + kUtilityEps) {
      if (!best.found || new_mu > best.new_utility) {
        best.found = true;
        best.removed = other;
        best.schedule = std::move(trial);
        best.new_utility = new_mu;
      }
    }
  }
  return best;
}

}  // namespace

void BilateralArrange(const UrrInstance& instance, SolverContext* ctx,
                      const std::vector<RiderId>& riders,
                      const std::vector<int>& vehicles, UrrSolution* sol,
                      const std::vector<bool>* removable) {
  std::vector<bool> allowed(instance.vehicles.size(), false);
  for (int j : vehicles) allowed[static_cast<size_t>(j)] = true;

  // Lines 1-2: the C_i lists. Stored per rider and consumed monotonically,
  // which bounds the total work by Σ|C_i| (a replaced rider re-enters the
  // pool with its remaining list, never a refilled one). Lists come back in
  // ascending-id order, so pool membership and every rng draw below are
  // thread-count-independent.
  std::vector<RiderId> open;
  for (RiderId i : riders) {
    if (sol->assignment[static_cast<size_t>(i)] >= 0) continue;
    open.push_back(i);
  }
  std::vector<std::vector<int>> lists =
      CandidateVehiclesForRiders(instance, ctx, open, &allowed);
  std::vector<std::vector<int>> candidates(instance.riders.size());
  std::vector<RiderId> pool;
  for (size_t k = 0; k < open.size(); ++k) {
    candidates[static_cast<size_t>(open[k])] = std::move(lists[k]);
    if (!candidates[static_cast<size_t>(open[k])].empty()) {
      pool.push_back(open[k]);
    }
  }

  while (!pool.empty()) {
    // Lines 4-5: pick a random unprocessed rider.
    const size_t pick = static_cast<size_t>(
        ctx->rng->UniformInt(0, static_cast<int64_t>(pool.size()) - 1));
    const RiderId i = pool[pick];
    pool[pick] = pool.back();
    pool.pop_back();

    std::vector<int>& list = candidates[static_cast<size_t>(i)];
    // Score every untried vehicle: utility increase when insertable,
    // otherwise an optimistic bound (μ_v plus a detour-free trajectory term)
    // that decides in which order replacements are attempted. The per-
    // vehicle evaluations are independent and fan out over the context's
    // pool; scores are consumed in list order, so the ranking (stable sort
    // included) matches the serial path exactly.
    struct Scored {
      int vehicle;
      bool feasible;
      double score;
    };
    std::vector<RiderVehiclePair> pairs;
    pairs.reserve(list.size());
    for (int j : list) pairs.push_back({i, j});
    const std::vector<CandidateEval> evals =
        EvaluateCandidates(instance, ctx, *sol, pairs, /*need_utility=*/true);
    std::vector<Scored> scored;
    scored.reserve(list.size());
    for (size_t k = 0; k < list.size(); ++k) {
      const int j = list[k];
      const CandidateEval& eval = evals[k];
      if (eval.feasible) {
        scored.push_back({j, true, eval.delta_utility});
      } else {
        const UtilityParams& p = ctx->model->params();
        const double optimistic = p.alpha * instance.VehicleUtility(i, j) +
                                  (1.0 - p.alpha - p.beta) * 1.0;
        scored.push_back({j, false, optimistic});
      }
    }
    std::stable_sort(scored.begin(), scored.end(),
                     [](const Scored& a, const Scored& b) {
                       return a.score > b.score;
                     });

    size_t tried = 0;
    bool placed = false;
    for (const Scored& cand : scored) {
      ++tried;  // line 9: c_j leaves C_i whether or not the attempt works
      const int j = cand.vehicle;
      if (cand.feasible) {
        // Lines 10-11: plain insertion.
        TransferSequence& seq = sol->schedules[static_cast<size_t>(j)];
        Result<InsertionPlan> plan = FindBestInsertion(seq, instance.Trip(i));
        if (plan.ok() &&
            ApplyInsertion(&seq, instance.Trip(i), *plan).ok()) {
          sol->assignment[static_cast<size_t>(i)] = j;
          placed = true;
          break;
        }
      } else {
        // Lines 12-15: replacement.
        Replacement rep =
            TryReplace(instance, *ctx->model, *sol, i, j, removable);
        if (rep.found) {
          sol->schedules[static_cast<size_t>(j)] = std::move(*rep.schedule);
          sol->assignment[static_cast<size_t>(rep.removed)] = -1;
          sol->assignment[static_cast<size_t>(i)] = j;
          if (!candidates[static_cast<size_t>(rep.removed)].empty()) {
            pool.push_back(rep.removed);  // line 14
          }
          placed = true;
          break;
        }
      }
    }
    // Drop the tried prefix from C_i (ordered by this round's scores).
    std::vector<int> remaining;
    for (size_t k = tried; k < scored.size(); ++k) {
      remaining.push_back(scored[k].vehicle);
    }
    list = std::move(remaining);
    (void)placed;
  }
}

UrrSolution SolveBilateral(const UrrInstance& instance, SolverContext* ctx) {
  UrrSolution sol = MakeEmptySolution(instance, ctx->oracle);
  std::vector<RiderId> riders(instance.riders.size());
  for (size_t i = 0; i < riders.size(); ++i) riders[i] = static_cast<RiderId>(i);
  std::vector<int> vehicles(instance.vehicles.size());
  for (size_t j = 0; j < vehicles.size(); ++j) vehicles[j] = static_cast<int>(j);
  BilateralArrange(instance, ctx, riders, vehicles, &sol);
  return sol;
}

}  // namespace urr
