// bench_engine: streaming-dispatch sweep — micro-batch window size W ×
// arrival rate, same workload per rate so the window effect is isolated.
// Expected shape: W = 0 (per-arrival online dispatch) books the least total
// utility because each rider is committed greedily with no batching; small
// windows (tens of seconds) let the batch solver pack shared rides and beat
// it, while very large windows start to expire riders whose pickup
// deadlines pass in the queue. Results append to BENCH_engine.json (one
// JSON object per line) for machine consumption.
#include "bench_util.h"
#include "common/table.h"
#include "engine/engine.h"

int main() {
  using namespace urr;
  using namespace urr::bench;
  ExperimentConfig cfg = DefaultConfig(CityKind::kNycLike);
  Banner("Streaming engine - window size x arrival rate", cfg);

  auto world = BuildWorld(cfg);
  if (!world.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 world.status().ToString().c_str());
    return 1;
  }

  const double rates[] = {0.5, 2.0};          // riders per second
  const double windows[] = {0, 10, 30, 60, 120};  // seconds

  // Fault sweep: one extra pass per fault level at a fixed window, same
  // workload as the clean rate-0.5 run. Levels are (breakdown fraction,
  // no-show fraction, edge fault count); overridable via env for ad-hoc
  // sweeps.
  struct FaultLevel {
    double breakdown;
    double no_show;
    int edge_faults;
  };
  const FaultLevel fault_levels[] = {
      {GetEnvDouble("URR_BENCH_BREAKDOWN_FRACTION", 0.1),
       GetEnvDouble("URR_BENCH_NO_SHOW_FRACTION", 0.05),
       static_cast<int>(GetEnvInt("URR_BENCH_EDGE_FAULTS", 4))},
      {GetEnvDouble("URR_BENCH_BREAKDOWN_FRACTION_HI", 0.25),
       GetEnvDouble("URR_BENCH_NO_SHOW_FRACTION_HI", 0.15),
       static_cast<int>(GetEnvInt("URR_BENCH_EDGE_FAULTS_HI", 12))},
  };
  const double fault_window = GetEnvDouble("URR_BENCH_FAULT_WINDOW", 30);

  const std::string out_path =
      GetEnvString("URR_BENCH_ENGINE_JSON", "BENCH_engine.json");
  std::FILE* out = std::fopen(out_path.c_str(), "a");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }

  TablePrinter table({"arrival rate (/s)", "window (s)", "arrived", "accepted",
                      "expired", "rejected", "booked utility", "wait p95 (s)",
                      "solve p95 (s)", "retrieval p95 (s)"});
  int rc = 0;
  for (const double rate : rates) {
    // One workload per rate, shared by every window size.
    Rng wrng(cfg.seed + static_cast<uint64_t>(rate * 1000));
    StreamingWorkloadOptions wopt;
    wopt.arrival_rate = rate;
    const StreamingWorkload workload =
        MakeStreamingWorkload((*world)->instance, wopt, &wrng);
    UtilityModel model(&workload.instance, UtilityParams{cfg.alpha, cfg.beta});
    for (const double w : windows) {
      SolverContext ctx = (*world)->Context();
      ctx.model = &model;
      EngineConfig ecfg;
      ecfg.window = w;
      ecfg.solver = WindowSolver::kEfficientGreedy;
      ecfg.seed = cfg.seed;
      DispatchEngine engine(&workload, &ctx, ecfg);
      const Status st = engine.Run();
      if (!st.ok()) {
        std::fprintf(stderr, "rate %g window %g failed: %s\n", rate, w,
                     st.ToString().c_str());
        rc = 1;
        continue;
      }
      const EngineMetrics& m = engine.metrics();
      table.AddRow({TablePrinter::Num(rate, 1), TablePrinter::Num(w, 0),
                    std::to_string(m.total_arrivals),
                    std::to_string(m.total_accepted),
                    std::to_string(m.total_expired),
                    std::to_string(m.total_rejected),
                    TablePrinter::Num(m.booked_utility, 3),
                    TablePrinter::Num(Percentile(m.pickup_waits, 95), 1),
                    TablePrinter::Num(Percentile(m.solve_latencies, 95), 4),
                    TablePrinter::Num(Percentile(m.retrieval_latencies, 95),
                                      4)});
      std::fprintf(
          out,
          "{\"bench\":\"engine\",\"solver\":\"%s\",\"arrival_rate\":%.17g,"
          "\"window\":%.17g,\"arrived\":%d,\"accepted\":%d,\"expired\":%d,"
          "\"rejected\":%d,\"booked_utility\":%.17g,\"driven_cost\":%.17g,"
          "\"num_windows\":%d,\"pickup_wait_p95\":%.17g,"
          "\"solve_latency_p95\":%.17g,"
          "\"retrieval_seconds\":%.17g,"
          "\"retrieval_latency_p95\":%.17g,\"retrieval_mean_candidates\":%.17g,"
          "\"breakdown_fraction\":0,\"no_show_fraction\":0,\"edge_faults\":0,"
          "\"breakdowns\":0,\"no_shows\":0,\"disruptions\":0,"
          "\"redispatched\":0,\"abandoned\":0,\"overlay_fallbacks\":0,"
          "\"seed\":%llu}\n",
          WindowSolverName(ecfg.solver), rate, w, m.total_arrivals,
          m.total_accepted, m.total_expired, m.total_rejected,
          m.booked_utility, m.driven_cost, static_cast<int>(m.windows.size()),
          Percentile(m.pickup_waits, 95), Percentile(m.solve_latencies, 95),
          m.retrieval_seconds,
          Percentile(m.retrieval_latencies, 95), m.retrieval_mean_candidates,
          static_cast<unsigned long long>(cfg.seed));
    }
  }

  // Fault sweep rows: degradation under breakdowns, no-shows and edge
  // disruptions at the fixed bench window.
  TablePrinter fault_table({"breakdown frac", "no-show frac", "edge faults",
                            "accepted", "abandoned", "re-dispatched",
                            "booked utility", "overlay fallbacks"});
  {
    Rng wrng(cfg.seed + 500);
    StreamingWorkloadOptions wopt;
    wopt.arrival_rate = 0.5;
    StreamingWorkload workload =
        MakeStreamingWorkload((*world)->instance, wopt, &wrng);
    UtilityModel model(&workload.instance, UtilityParams{cfg.alpha, cfg.beta});
    for (const FaultLevel& level : fault_levels) {
      FaultPlanOptions fopt;
      fopt.breakdown_fraction = level.breakdown;
      fopt.no_show_fraction = level.no_show;
      fopt.num_edge_faults = level.edge_faults;
      Rng frng(cfg.seed + 1000);
      workload.faults = MakeFaultPlan(workload, fopt, &frng);
      SolverContext ctx = (*world)->Context();
      ctx.model = &model;
      EngineConfig ecfg;
      ecfg.window = fault_window;
      ecfg.solver = WindowSolver::kEfficientGreedy;
      ecfg.seed = cfg.seed;
      DispatchEngine engine(&workload, &ctx, ecfg);
      const Status st = engine.Run();
      if (!st.ok()) {
        std::fprintf(stderr, "fault level (%g, %g, %d) failed: %s\n",
                     level.breakdown, level.no_show, level.edge_faults,
                     st.ToString().c_str());
        rc = 1;
        continue;
      }
      const EngineMetrics& m = engine.metrics();
      fault_table.AddRow(
          {TablePrinter::Num(level.breakdown, 2),
           TablePrinter::Num(level.no_show, 2),
           std::to_string(level.edge_faults),
           std::to_string(m.total_accepted),
           std::to_string(m.total_abandoned),
           std::to_string(m.total_redispatched),
           TablePrinter::Num(m.booked_utility, 3),
           std::to_string(m.overlay_fallbacks)});
      std::fprintf(
          out,
          "{\"bench\":\"engine\",\"solver\":\"%s\",\"arrival_rate\":%.17g,"
          "\"window\":%.17g,\"arrived\":%d,\"accepted\":%d,\"expired\":%d,"
          "\"rejected\":%d,\"booked_utility\":%.17g,\"driven_cost\":%.17g,"
          "\"num_windows\":%d,\"pickup_wait_p95\":%.17g,"
          "\"solve_latency_p95\":%.17g,"
          "\"breakdown_fraction\":%.17g,\"no_show_fraction\":%.17g,"
          "\"edge_faults\":%d,\"breakdowns\":%d,\"no_shows\":%d,"
          "\"disruptions\":%d,\"redispatched\":%d,\"abandoned\":%d,"
          "\"overlay_fallbacks\":%lld,\"seed\":%llu}\n",
          WindowSolverName(ecfg.solver), wopt.arrival_rate, fault_window,
          m.total_arrivals, m.total_accepted, m.total_expired,
          m.total_rejected, m.booked_utility, m.driven_cost,
          static_cast<int>(m.windows.size()),
          Percentile(m.pickup_waits, 95), Percentile(m.solve_latencies, 95),
          level.breakdown, level.no_show, level.edge_faults,
          m.total_breakdowns, m.total_no_shows, m.total_edge_disruptions,
          m.total_redispatched, m.total_abandoned,
          static_cast<long long>(m.overlay_fallbacks),
          static_cast<unsigned long long>(cfg.seed));
    }
  }
  std::fclose(out);
  table.Print();
  std::printf("\nfault sweep (window %g s, arrival rate 0.5/s):\n",
              fault_window);
  fault_table.Print();
  std::printf("\nper-run JSON appended to %s\n", out_path.c_str());
  return rc;
}
