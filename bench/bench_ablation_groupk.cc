// Ablation: the GBS grouping parameter k and the Sec-6.3 cost model.
// Sweeps k, measuring the cover size eta(k), the preprocessing time, the GBS
// solve time and utility for both bases, then reports which k the
// cost-model's eta* would pick versus the measured fastest k.
#include "common/stopwatch.h"
#include "common/table.h"
#include "urr/cost_model.h"
#include "urr/gbs.h"

#include "bench_util.h"

int main() {
  using namespace urr;
  using namespace urr::bench;
  ExperimentConfig cfg = DefaultConfig();
  Banner("Ablation - GBS grouping parameter k and the Sec-6.3 cost model",
         cfg);

  auto world = BuildWorld(cfg);
  if (!world.ok()) {
    std::fprintf(stderr, "world failed: %s\n",
                 world.status().ToString().c_str());
    return 1;
  }
  ExperimentWorld& w = **world;

  TablePrinter table({"k", "eta (areas)", "preprocess (s)", "GBS+EG time (s)",
                      "GBS+EG utility", "GBS+BA time (s)", "GBS+BA utility"});
  std::vector<std::pair<int, double>> measured_eta;
  std::vector<std::pair<int, double>> measured_time;
  for (int k : {2, 3, 4, 6, 8}) {
    SolverContext ctx = w.Context();
    GbsOptions opt = cfg.gbs;
    opt.k = k;
    auto pre = PrepareGbs(w.instance, &ctx, opt);
    if (!pre.ok()) {
      std::fprintf(stderr, "k=%d preprocess failed: %s\n", k,
                   pre.status().ToString().c_str());
      return 1;
    }
    measured_eta.push_back({k, static_cast<double>(pre->areas.num_areas())});

    double eg_time = 0, eg_util = 0, ba_time = 0, ba_util = 0;
    for (GbsBase base : {GbsBase::kEfficientGreedy, GbsBase::kBilateral}) {
      GbsOptions run = opt;
      run.base = base;
      Stopwatch t;
      auto sol = SolveGbs(w.instance, &ctx, run, *pre);
      const double seconds = t.ElapsedSeconds();
      if (!sol.ok()) {
        std::fprintf(stderr, "k=%d solve failed: %s\n", k,
                     sol.status().ToString().c_str());
        return 1;
      }
      const double utility = sol->TotalUtility(w.model);
      if (base == GbsBase::kEfficientGreedy) {
        eg_time = seconds;
        eg_util = utility;
      } else {
        ba_time = seconds;
        ba_util = utility;
      }
    }
    measured_time.push_back({k, eg_time + ba_time});
    table.AddRow({std::to_string(k), std::to_string(pre->areas.num_areas()),
                  TablePrinter::Num(pre->seconds, 3),
                  TablePrinter::Num(eg_time, 3), TablePrinter::Num(eg_util, 3),
                  TablePrinter::Num(ba_time, 3), TablePrinter::Num(ba_util, 3)});
  }
  table.Print();

  // Cost-model pick (Sec 6.3).
  GbsCostModel model;
  model.s = w.network.num_nodes();
  model.m = w.instance.num_riders();
  model.n = w.instance.num_vehicles();
  const double eta_star = model.BestEta();
  int model_k = measured_eta.front().first;
  double best_gap = 1e300;
  for (const auto& [k, eta] : measured_eta) {
    if (std::abs(eta - eta_star) < best_gap) {
      best_gap = std::abs(eta - eta_star);
      model_k = k;
    }
  }
  int fastest_k = measured_time.front().first;
  double fastest = 1e300;
  for (const auto& [k, t] : measured_time) {
    if (t < fastest) {
      fastest = t;
      fastest_k = k;
    }
  }
  std::printf("\ncost model eta* = %.0f -> picks k = %d; measured fastest k = %d\n",
              eta_star, model_k, fastest_k);
  return 0;
}
