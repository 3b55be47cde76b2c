// Stream workloads: the streaming DispatchEngine in-process, batch Run()
// over a recorded Poisson stream, on the world `urr_engine --city nyc
// --nodes N --riders M --vehicles V --window W --solver eg --threads 4`
// builds for seed kWorldSeed. The run's --seed draws the arrival process.
#include <algorithm>
#include <cstdio>

#include "bench.h"
#include "common/json_writer.h"

namespace perfbench {

using urr::Result;
using urr::Status;

namespace {

struct StreamSpec {
  const char* name;
  int nodes;
  int riders;
  int vehicles;
  double rate;    // riders per simulated second
  double window;  // W in simulated seconds; 0 = per-arrival dispatch
  int threads;
};

// README.md says why: stream-window exercises the batched prefetch, the
// parallel evaluation pool and the cross-window eval cache; stream-online
// bypasses all three and weighs CH contraction in set-up.
constexpr StreamSpec kStreams[] = {
    {"stream-window", 4900, 2500, 400, 2.0, 10.0, 4},
    {"stream-online", 10000, 4000, 2000, 2.0, 0.0, 4},
};

/// Worlds a run dispatches on, one stream each. The count is fixed, so a
/// faster program is compared over the same samples as a slower one. A
/// traced run dispatches untraced, decorated and on one thread instead.
constexpr int kDispatches = 3;
/// Set-ups per untraced run: setup_s is their median. Set-up time varies
/// more than dispatch time on a shared machine, so it takes more samples;
/// the worlds beyond kDispatches are only built.
constexpr int kSetups = 5;
/// Requests replayed through the in-process service for the server layers.
constexpr size_t kServerProbeRequests = 1000;

/// What a fresh process builds before it can dispatch: the world and the
/// recorded stream. Heap members keep the model's pointers stable.
struct Setup {
  std::unique_ptr<urr::ExperimentWorld> world;
  std::unique_ptr<urr::StreamingWorkload> workload;
  std::unique_ptr<urr::UtilityModel> model;
  double seconds = 0;

  urr::SolverContext Context() const {
    urr::SolverContext ctx = world->Context();
    ctx.model = model.get();
    return ctx;
  }
};

Result<Setup> SetUp(const urr::ExperimentConfig& cfg, const StreamSpec& spec,
                    uint64_t demand_seed, Tracer* tracer) {
  ScopedSpan span(tracer, "setup", "exp");
  Setup s;
  URR_ASSIGN_OR_RETURN(s.world, urr::BuildWorld(cfg));
  urr::StreamingWorkloadOptions wopt;
  wopt.arrival_rate = spec.rate;
  urr::Rng demand(demand_seed);
  s.workload = std::make_unique<urr::StreamingWorkload>(
      urr::MakeStreamingWorkload(s.world->instance, wopt, &demand));
  s.model = std::make_unique<urr::UtilityModel>(
      &s.workload->instance, urr::UtilityParams{cfg.alpha, cfg.beta});
  s.seconds = span.Stop();
  return s;
}

struct StreamRun {
  double wall = 0;  // Run(), seconds
  double cpu = 0;   // process CPU seconds over the same span
  urr::EngineMetrics metrics;
  std::string log;
  std::string fingerprint;
  double booked = 0;
  std::string error;  // non-empty when Run() failed
};

/// One batch Run() of the recorded stream on a fresh engine.
StreamRun Dispatch(const Setup& s, urr::SolverContext ctx,
                   const urr::EngineConfig& ecfg, Tracer* tracer,
                   Report* checkpoint_probe) {
  StreamRun run;
  urr::DispatchEngine engine(s.workload.get(), &ctx, ecfg);
  ScopedSpan span(tracer, "engine.run", "engine");
  const double cpu0 = SelfCpuSeconds();
  const Status st = engine.Run();
  run.wall = span.Stop();
  run.cpu = SelfCpuSeconds() - cpu0;
  if (!st.ok()) {
    run.error = st.ToString();
    return run;
  }
  run.metrics = engine.metrics();
  run.log = engine.SerializedLog();
  run.fingerprint = engine.SolutionFingerprint();
  run.booked = engine.booked_utility();
  if (checkpoint_probe != nullptr) {
    ReportCheckpoint(engine, checkpoint_probe, tracer);
  }
  return run;
}

/// Dispatch-step latencies, ms. Per-arrival mode: one decision per arrival.
/// Windowed: the solves of windows that received arrivals; the drain
/// windows after the last arrival only retry a finite stream's leftovers
/// and have no counterpart in a live service.
std::vector<double> SolveMs(const urr::EngineMetrics& m, bool windowed) {
  std::vector<double> out;
  if (!windowed) {
    for (double s : m.solve_latencies) out.push_back(s * 1e3);
    return out;
  }
  for (const urr::WindowMetrics& w : m.windows) {
    if (w.arrivals > 0) out.push_back(w.solve_seconds * 1e3);
  }
  return out;
}

/// Per rider, the compute time before the engine answered it, ms: the
/// decision itself per arrival, else the solve of the window it arrived in.
std::vector<double> DecideMs(const urr::EngineMetrics& m, bool windowed) {
  if (!windowed) return SolveMs(m, false);
  std::vector<double> out;
  for (const urr::WindowMetrics& w : m.windows) {
    out.insert(out.end(), static_cast<size_t>(w.arrivals), w.solve_seconds * 1e3);
  }
  return out;
}

/// Framed-protocol requests for the first `limit` inputs in the engine's
/// (time, rank) order, carrying their recorded times as a replaying client
/// sends them to a virtual-clock service.
std::vector<std::string> RequestPayloads(const urr::StreamingWorkload& w,
                                         size_t limit) {
  struct Input {
    double time;
    int rank;  // 0 arrival, 1 cancel (the engine's tie-break)
    urr::RiderId rider;
  };
  std::vector<Input> inputs;
  for (const urr::RiderArrival& a : w.arrivals) {
    inputs.push_back({a.time, 0, a.rider});
  }
  for (const urr::CancelRequest& c : w.cancellations) {
    inputs.push_back({c.time, 1, c.rider});
  }
  std::stable_sort(inputs.begin(), inputs.end(),
                   [](const Input& a, const Input& b) {
                     return a.time != b.time ? a.time < b.time
                                             : a.rank < b.rank;
                   });
  std::vector<std::string> payloads;
  for (size_t i = 0; i < inputs.size() && i < limit; ++i) {
    urr::JsonWriter jw;
    jw.BeginObject()
        .Field("op", inputs[i].rank == 0 ? "submit_rider" : "cancel_rider")
        .Field("id", static_cast<int64_t>(i))
        .Field("req_id", static_cast<int64_t>(i))
        .Field("rider", inputs[i].rider)
        .Field("time", inputs[i].time)
        .EndObject();
    payloads.push_back(jw.str());
  }
  return payloads;
}

/// Fails the report unless `run` finished and reproduced `first` exactly.
void RequireSame(const StreamRun& first, const StreamRun& run,
                 const std::string& what, Report* report) {
  if (!run.error.empty()) {
    report->Fail(what + ": " + run.error);
  } else if (run.log != first.log) {
    report->Fail(what + ": event log differs from the first run");
  } else if (run.fingerprint != first.fingerprint) {
    report->Fail(what + ": SolutionFingerprint differs from the first run");
  } else if (run.booked != first.booked) {
    report->Fail(what + ": booked utility differs from the first run");
  }
}

double RidersPerSecond(const StreamRun& run) {
  return run.wall > 0 ? run.metrics.total_arrivals / run.wall : 0.0;
}

}  // namespace

Report RunStream(const RunOptions& options, Tracer* tracer) {
  Report report;
  const StreamSpec* spec = nullptr;
  for (const StreamSpec& s : kStreams) {
    if (options.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    report.Fail("unknown stream workload " + options.workload);
    return report;
  }
  const bool windowed = spec->window > 0;
  const urr::ExperimentConfig cfg = CityConfig(
      spec->nodes, spec->riders, spec->vehicles, kWorldSeed, spec->threads);
  urr::EngineConfig ecfg;
  ecfg.window = spec->window;
  ecfg.solver = urr::WindowSolver::kEfficientGreedy;
  ecfg.seed = kWorldSeed;

  std::vector<double> setup_s;
  std::vector<double> riders_per_s;
  std::vector<double> solve_ms;
  std::vector<double> decide_ms;
  StreamRun first;
  double traced_wall = 0;
  const int setups = options.trace ? kDispatches : kSetups;
  for (int k = 0; k < setups; ++k) {
    Result<Setup> setup = SetUp(cfg, *spec, options.seed, tracer);
    if (!setup.ok()) {
      report.Fail("set-up: " + setup.status().ToString());
      return report;
    }
    setup_s.push_back(setup->seconds);
    urr::SolverContext ctx = setup->Context();
    StreamRun run;
    bool timed = false;
    if (k == 0) {
      // Every stream runs on a fresh world, so its caches start cold as in
      // a fresh urr_engine process. The first is the one all others match.
      first = Dispatch(*setup, ctx, ecfg, nullptr,
                       options.trace ? &report : nullptr);
      if (!first.error.empty()) {
        report.Fail("dispatch: " + first.error);
        return report;
      }
      run = first;
      timed = true;
      report.digest = Hex(Fnv(first.log));
    } else if (options.trace && k == 1) {
      // The same stream behind the timing decorator (and its clones).
      auto tallies = std::make_shared<TallySet>();
      TimedOracle timed_oracle(ctx.oracle, tallies);
      ctx.oracle = &timed_oracle;
      urr::AttachThreadPool(&ctx, setup->world->pool.get());
      run = Dispatch(*setup, ctx, ecfg, tracer, nullptr);
      traced_wall = run.wall;
      const OracleTally sum = tallies->Sum();
      ReportRoutingLayers(sum, first.metrics, &report);
      tracer->Counter("routing.oracle_pairs", static_cast<double>(sum.pairs));
      RequireSame(first, run, "traced run", &report);
    } else if (options.trace && k == 2) {
      // One solver thread: the parallel evaluation pool's speed-up.
      ctx.pool = nullptr;
      ctx.worker_set.reset();
      run = Dispatch(*setup, ctx, ecfg, nullptr, nullptr);
      report.Set("engine.parallel_speedup",
                 first.wall > 0 ? run.wall / first.wall : 0.0, "x");
      RequireSame(first, run, "1-thread run", &report);
    } else if (!options.trace && k < kDispatches) {
      // The same stream again, on a fresh world.
      run = Dispatch(*setup, ctx, ecfg, nullptr, nullptr);
      RequireSame(first, run, "repeat run", &report);
      timed = run.error.empty();
    }
    if (timed) {
      report.attempted += static_cast<int64_t>(
          setup->workload->arrivals.size() +
          setup->workload->cancellations.size());
      riders_per_s.push_back(RidersPerSecond(run));
      const std::vector<double> solves = SolveMs(run.metrics, windowed);
      const std::vector<double> decides = DecideMs(run.metrics, windowed);
      solve_ms.insert(solve_ms.end(), solves.begin(), solves.end());
      decide_ms.insert(decide_ms.end(), decides.begin(), decides.end());
      char line[256];
      std::snprintf(line, sizeof(line),
                    "stream %d: %.3f s wall, %.3f s cpu, %.1f riders/s", k,
                    run.wall, run.cpu, RidersPerSecond(run));
      report.Note(line);
    }
    // The check pass follows the last dispatch, on its already warm world.
    if (k == kDispatches - 1) {
      Result<double> check =
          CheckReplay(*setup->workload, first.log, first.fingerprint,
                      first.booked, &ctx, ecfg);
      if (!check.ok()) {
        report.Fail("replay check: " + check.status().ToString());
      } else {
        report.Note("event log replayed byte-identically through a batch "
                    "engine with invariant checks in " +
                    std::to_string(*check) + " s");
      }
    }
  }

  const urr::EngineMetrics& m = first.metrics;
  char line[320];
  std::snprintf(line, sizeof(line),
                "%s: %d arrivals, %d accepted, %zu solves, %lld kernel evals, "
                "%lld eval-cache hits, %lld retrievals, %lld oracle misses, "
                "log digest %s",
                spec->name, m.total_arrivals, m.total_accepted,
                m.solve_latencies.size(),
                static_cast<long long>(m.kernel_evals),
                static_cast<long long>(m.eval_cache_hits),
                static_cast<long long>(m.retrieval_riders),
                static_cast<long long>(m.oracle_misses),
                report.digest.c_str());
  report.Note(line);
  if (!options.trace) {
    report.Set("setup_s", Median(setup_s), "s");
    report.Set("peak_rss_mb", SelfPeakRssMb(), "MiB");
    report.Set("riders_per_s", Median(riders_per_s), "1/s");
    report.Set("solve_p50_ms", Pct(solve_ms, 50), "ms");
    report.Set("solve_p95_ms", Pct(solve_ms, 95), "ms");
    std::snprintf(line, sizeof(line),
                  "decide_p50_ms %.4f decide_p99_ms %.4f over %zu riders "
                  "(%zu solves)",
                  Pct(decide_ms, 50), Pct(decide_ms, 99), decide_ms.size(),
                  solve_ms.size());
    report.Note(line);
    report.Set("booked_utility", first.booked, "utility");
    report.Set("accept_rate",
               m.total_arrivals > 0
                   ? static_cast<double>(m.total_accepted) / m.total_arrivals
                   : 0.0,
               "ratio");
    return report;
  }

  ReportEngineLayers(m, first.wall, &report);
  report.Set("trace.overhead_ratio",
             first.wall > 0 ? traced_wall / first.wall : 0.0, "x");
  Status st = SetupLayers(cfg, options.tmp_dir + "/stream.urrx", &report,
                          tracer);
  if (!st.ok()) report.Fail("set-up layers: " + st.ToString());
  Result<Setup> probe = SetUp(cfg, *spec, options.seed, nullptr);
  if (!probe.ok()) {
    report.Fail("server-layer set-up: " + probe.status().ToString());
    return report;
  }
  urr::SolverContext ctx = probe->Context();
  Result<std::string> served = ProbeServerLayers(
      *probe->workload, &ctx, ecfg,
      RequestPayloads(*probe->workload, kServerProbeRequests),
      options.tmp_dir + "/service", &report, tracer);
  if (!served.ok()) {
    report.Fail("server layers: " + served.status().ToString());
  }
  return report;
}

}  // namespace perfbench
