// urr_engine: command-line streaming dispatcher. Builds a city-scale world
// (network, geo-social substrate, instance), streams its riders through the
// discrete-event DispatchEngine with micro-batch windows, and prints the
// run's engine metrics — as a table or as machine-readable JSON. The event
// log can be dumped, and --verify-replay re-runs the logged input through a
// fresh engine and checks the log and final fleet state reproduce exactly.
//
// Examples:
//   urr_engine --city nyc --nodes 6000 --riders 500 --vehicles 100
//              --window 30 --solver eg --arrival-rate 0.5
//   urr_engine --window 0 --solver eg --json
//   urr_engine --cancel-fraction 0.1 --log events.log --verify-replay
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>

#include "common/table.h"
#include "engine/engine.h"
#include "exp/harness.h"
#include "urr/metrics.h"

namespace urr {
namespace {

struct Options {
  std::string city = "nyc";
  int nodes = 4000;
  int grid_width = 12;         // --city grid only
  int grid_height = 10;
  double quantize = 0;         // snap edge costs to multiples of this
  int riders = 300;
  int vehicles = 60;
  int capacity = 3;
  double deadline_min_minutes = 10;
  double deadline_max_minutes = 30;
  double window = 30;          // micro-batch window W (seconds); 0 = online
  std::string solver = "eg";   // cf|eg|ba|gbs-eg|gbs-ba
  double arrival_rate = 0.5;   // riders per second
  double cancel_fraction = 0;  // share of riders that request cancellation
  double cancel_delay = 60;    // mean seconds from arrival to the request
  int max_queue = 0;           // admission control; 0 = unbounded
  std::string oracle;          // "" = URR_ORACLE env
  std::string index_path;      // load CH/HL from this .urrx snapshot
  uint64_t seed = 42;
  int threads = 0;             // 0 = URR_THREADS env
  std::string log_path;        // dump the event log here
  std::string expect_log_path;  // compare the run's log against this file
  bool json = false;           // machine-readable EngineMetrics
  bool windows = false;        // include the per-window array in the JSON
  bool verify_replay = false;  // replay the log and compare
  bool no_eval_cache = false;  // disable the cross-window eval cache
  // Fault injection (seeded, replayable; all zero = no faults).
  double breakdown_fraction = 0;   // share of vehicles that break down
  double no_show_fraction = 0;     // share of riders absent at pickup
  int edge_faults = 0;             // number of edge disruption events
  double closure_fraction = 0.5;   // share of edge faults that are closures
  double slowdown_factor = 4.0;    // cost multiplier of non-closure faults
  double fault_duration = 300;     // mean seconds until an edge restores
  uint64_t fault_seed = 0;         // 0 = derived from --seed
  int max_redispatch = 3;          // retry budget for displaced riders
  double redispatch_backoff = 30;  // base backoff seconds (doubles per try)
  // Checkpoint/restore.
  int checkpoint_every = 0;        // windows between checkpoints; 0 = off
  std::string checkpoint_file;     // write checkpoints to FILE.<k>
  std::string restore_path;        // resume the run from this checkpoint
  bool verify_restore = false;     // re-run from every checkpoint + compare
  bool validate_invariants = false;  // full live-state check every window
  bool help = false;
};

void PrintUsage() {
  std::printf(R"(urr_engine - event-driven streaming ridesharing dispatcher

world:
  --city nyc|chicago|grid --nodes N
  --grid-width W --grid-height H --quantize Q   grid preset dimensions and
                          edge-cost quantum (matches urr_index build)
  --riders M --vehicles N --capacity C
  --deadline-min MIN --deadline-max MIN   pickup deadline range (minutes)
  --oracle dijkstra|ch|caching|hl         distance oracle stack
  --index FILE            load the CH + hub labels from a .urrx snapshot
                          (build one with urr_index; must match the world's
                          network — queries are bitwise identical to a
                          fresh build, checkpoints record its checksum)

streaming workload:
  --arrival-rate R        mean rider arrivals per second (Poisson)
  --cancel-fraction F     share of riders that later request cancellation
  --cancel-delay S        mean seconds from arrival to that request

engine:
  --window W              micro-batch window in seconds (0 = dispatch each
                          arrival immediately, OnlineDispatcher-equivalent)
  --solver cf|eg|ba|gbs-eg|gbs-ba   approach solving each window
  --max-queue Q           reject arrivals beyond Q queued riders (0 = off)
  --seed S --threads T    (solutions are identical at any thread count)

output:
  --json                  print EngineMetrics as one JSON object
  --windows               include the per-window array in that JSON
  --log FILE              write the deterministic event log to FILE
  --expect-log FILE       require the run's log to match FILE byte for byte
                          (exits non-zero printing the first diverging event)
  --verify-replay         rebuild the input from the log, re-run a fresh
                          engine and require byte-identical log + fleet state

evaluation path:
  --no-eval-cache         disable the cross-window evaluation cache (the log
                          and fleet state stay byte-identical)

fault injection (seeded and replayable; all defaults off):
  --breakdown-fraction F  share of vehicles that break down mid-run
  --no-show-fraction F    share of riders absent when their pickup arrives
  --edge-faults N         number of road-edge disruption events
  --closure-fraction F    share of edge faults that fully close the edge
  --slowdown-factor X     cost multiplier of the non-closure faults
  --fault-duration S      mean seconds until a disrupted edge restores
  --fault-seed S          fault-plan RNG seed (0 = derived from --seed)
  --max-redispatch K      retry budget for fault-displaced riders
  --redispatch-backoff S  base retry backoff seconds (doubles per attempt,
                          capped by the rider's remaining pickup slack)
  --validate-invariants   run the full live-state check every window

checkpoint/restore:
  --checkpoint-every N    snapshot the live state every N window boundaries
  --checkpoint-file FILE  write each snapshot to FILE.<k>
  --restore FILE          resume a fresh run from a snapshot file
  --verify-restore        re-run from every snapshot taken and require a
                          byte-identical log + fleet state (exits non-zero
                          and prints the first diverging event otherwise)

)");
}

Result<Options> ParseArgs(int argc, char** argv) {
  Options opt;
  std::map<std::string, std::string*> strings = {
      {"--city", &opt.city},
      {"--solver", &opt.solver},
      {"--oracle", &opt.oracle},
      {"--index", &opt.index_path},
      {"--log", &opt.log_path},
      {"--expect-log", &opt.expect_log_path},
      {"--checkpoint-file", &opt.checkpoint_file},
      {"--restore", &opt.restore_path},
  };
  std::map<std::string, double*> doubles = {
      {"--deadline-min", &opt.deadline_min_minutes},
      {"--deadline-max", &opt.deadline_max_minutes},
      {"--window", &opt.window},
      {"--arrival-rate", &opt.arrival_rate},
      {"--cancel-fraction", &opt.cancel_fraction},
      {"--cancel-delay", &opt.cancel_delay},
      {"--breakdown-fraction", &opt.breakdown_fraction},
      {"--no-show-fraction", &opt.no_show_fraction},
      {"--closure-fraction", &opt.closure_fraction},
      {"--slowdown-factor", &opt.slowdown_factor},
      {"--fault-duration", &opt.fault_duration},
      {"--redispatch-backoff", &opt.redispatch_backoff},
      {"--quantize", &opt.quantize},
  };
  std::map<std::string, int*> ints = {
      {"--grid-width", &opt.grid_width},
      {"--grid-height", &opt.grid_height},
      {"--nodes", &opt.nodes},         {"--riders", &opt.riders},
      {"--vehicles", &opt.vehicles},   {"--capacity", &opt.capacity},
      {"--max-queue", &opt.max_queue}, {"--threads", &opt.threads},
      {"--edge-faults", &opt.edge_faults},
      {"--max-redispatch", &opt.max_redispatch},
      {"--checkpoint-every", &opt.checkpoint_every},
  };
  std::map<std::string, bool*> bools = {
      {"--json", &opt.json},
      {"--windows", &opt.windows},
      {"--verify-replay", &opt.verify_replay},
      {"--no-eval-cache", &opt.no_eval_cache},
      {"--verify-restore", &opt.verify_restore},
      {"--validate-invariants", &opt.validate_invariants},
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      opt.help = true;
      return opt;
    }
    auto need_value = [&]() -> Result<std::string> {
      if (i + 1 >= argc) {
        return Status::InvalidArgument(flag + " needs a value");
      }
      return std::string(argv[++i]);
    };
    if (auto it = strings.find(flag); it != strings.end()) {
      URR_ASSIGN_OR_RETURN(*it->second, need_value());
    } else if (auto dt = doubles.find(flag); dt != doubles.end()) {
      URR_ASSIGN_OR_RETURN(std::string v, need_value());
      *dt->second = std::atof(v.c_str());
    } else if (auto nt = ints.find(flag); nt != ints.end()) {
      URR_ASSIGN_OR_RETURN(std::string v, need_value());
      *nt->second = std::atoi(v.c_str());
    } else if (auto bt = bools.find(flag); bt != bools.end()) {
      *bt->second = true;
    } else if (flag == "--seed") {
      URR_ASSIGN_OR_RETURN(std::string v, need_value());
      opt.seed = static_cast<uint64_t>(std::atoll(v.c_str()));
    } else if (flag == "--fault-seed") {
      URR_ASSIGN_OR_RETURN(std::string v, need_value());
      opt.fault_seed = static_cast<uint64_t>(std::atoll(v.c_str()));
    } else {
      return Status::InvalidArgument("unknown flag: " + flag);
    }
  }
  return opt;
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  if (written != content.size()) return Status::IOError("short write " + path);
  return Status::OK();
}

Result<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  std::string content;
  char buf[1 << 16];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, got);
  }
  std::fclose(f);
  return content;
}

/// Byte-compares two serialized event logs; on divergence prints the first
/// differing event (line) of each and returns Internal.
Status CompareLogs(const std::string& want, const std::string& got,
                   const std::string& what) {
  if (want == got) return Status::OK();
  size_t line = 1;
  size_t wi = 0;
  size_t gi = 0;
  while (wi < want.size() || gi < got.size()) {
    const size_t we = std::min(want.find('\n', wi), want.size());
    const size_t ge = std::min(got.find('\n', gi), got.size());
    const std::string wline = want.substr(wi, we - wi);
    const std::string gline = got.substr(gi, ge - gi);
    if (wline != gline) {
      std::fprintf(stderr,
                   "%s diverged at event %zu:\n  expected: %s\n  got:      %s\n",
                   what.c_str(), line,
                   wline.empty() ? "<end of log>" : wline.c_str(),
                   gline.empty() ? "<end of log>" : gline.c_str());
      return Status::Internal(what + " diverged at event " +
                              std::to_string(line));
    }
    wi = we + 1;
    gi = ge + 1;
    ++line;
  }
  return Status::Internal(what + " diverged");
}

Status Run(const Options& opt) {
  WindowSolver solver;
  if (!ParseWindowSolver(opt.solver, &solver)) {
    return Status::InvalidArgument("unknown --solver " + opt.solver);
  }
  if (opt.window < 0 || opt.arrival_rate < 0) {
    return Status::InvalidArgument("--window/--arrival-rate must be >= 0");
  }

  ExperimentConfig cfg;
  cfg.city = opt.city == "chicago" ? CityKind::kChicagoLike
             : opt.city == "grid" ? CityKind::kGrid
                                  : CityKind::kNycLike;
  if (opt.city != "nyc" && opt.city != "chicago" && opt.city != "grid") {
    return Status::InvalidArgument("unknown --city " + opt.city);
  }
  cfg.grid_width = opt.grid_width;
  cfg.grid_height = opt.grid_height;
  cfg.quantize = opt.quantize;
  cfg.city_nodes = opt.nodes;
  cfg.num_social_users = std::max(500, opt.nodes / 2);
  cfg.num_trip_records = std::max(2000, opt.riders * 3);
  cfg.num_riders = opt.riders;
  cfg.num_vehicles = opt.vehicles;
  cfg.capacity = opt.capacity;
  cfg.rt_min_minutes = opt.deadline_min_minutes;
  cfg.rt_max_minutes = opt.deadline_max_minutes;
  cfg.oracle = opt.oracle;
  cfg.index_snapshot = opt.index_path;
  cfg.seed = opt.seed;
  cfg.num_threads = opt.threads;
  URR_ASSIGN_OR_RETURN(std::unique_ptr<ExperimentWorld> world,
                       BuildWorld(cfg));

  StreamingWorkloadOptions wopt;
  wopt.arrival_rate = opt.arrival_rate;
  wopt.cancel_fraction = opt.cancel_fraction;
  wopt.cancel_delay_mean = opt.cancel_delay;
  StreamingWorkload workload =
      MakeStreamingWorkload(world->instance, wopt, &world->rng);
  if (opt.breakdown_fraction > 0 || opt.no_show_fraction > 0 ||
      opt.edge_faults > 0) {
    FaultPlanOptions fopt;
    fopt.breakdown_fraction = opt.breakdown_fraction;
    fopt.no_show_fraction = opt.no_show_fraction;
    fopt.num_edge_faults = opt.edge_faults;
    fopt.closure_fraction = opt.closure_fraction;
    fopt.slowdown_factor = opt.slowdown_factor;
    fopt.edge_fault_mean_duration = opt.fault_duration;
    // A dedicated seed keeps the fault plan independent of how much
    // entropy world/workload generation consumed.
    Rng fault_rng(opt.fault_seed != 0 ? opt.fault_seed
                                      : opt.seed ^ 0x9e3779b97f4a7c15ULL);
    workload.faults = MakeFaultPlan(workload, fopt, &fault_rng);
  }

  UtilityModel model(&workload.instance,
                     UtilityParams{cfg.alpha, cfg.beta});
  SolverContext ctx = world->Context();
  ctx.model = &model;

  EngineConfig ecfg;
  ecfg.window = opt.window;
  ecfg.solver = solver;
  ecfg.max_queue = opt.max_queue;
  ecfg.seed = opt.seed;
  ecfg.use_eval_cache = !opt.no_eval_cache;
  ecfg.gbs = cfg.gbs;
  ecfg.max_redispatch = opt.max_redispatch;
  ecfg.redispatch_backoff = opt.redispatch_backoff;
  ecfg.checkpoint_every = opt.checkpoint_every;
  ecfg.validate_invariants = opt.validate_invariants;
  ecfg.index_snapshot_path = opt.index_path;
  ecfg.index_snapshot_checksum = world->index_checksum;
  if (solver == WindowSolver::kGbsEg || solver == WindowSolver::kGbsBa) {
    URR_ASSIGN_OR_RETURN(ecfg.gbs_preprocess, world->GbsPreprocessing());
  }

  DispatchEngine engine(&workload, &ctx, ecfg);
  if (!opt.restore_path.empty()) {
    URR_ASSIGN_OR_RETURN(std::string snapshot, ReadFile(opt.restore_path));
    URR_RETURN_NOT_OK(engine.Restore(snapshot));
    std::printf("restored from %s\n", opt.restore_path.c_str());
  }
  URR_RETURN_NOT_OK(engine.Run());
  const EngineMetrics& m = engine.metrics();

  if (opt.json) {
    std::printf("%s\n", EngineMetricsJson(m, opt.windows).c_str());
  } else {
    TablePrinter summary({"solver", "window (s)", "arrived", "accepted",
                          "rejected", "expired", "cancelled", "booked utility",
                          "wait p95 (s)", "solve p95 (s)"});
    summary.AddRow({WindowSolverName(solver), TablePrinter::Num(opt.window, 0),
                    std::to_string(m.total_arrivals),
                    std::to_string(m.total_accepted),
                    std::to_string(m.total_rejected),
                    std::to_string(m.total_expired),
                    std::to_string(m.total_cancelled),
                    TablePrinter::Num(m.booked_utility, 3),
                    TablePrinter::Num(Percentile(m.pickup_waits, 95), 1),
                    TablePrinter::Num(Percentile(m.solve_latencies, 95), 4)});
    summary.Print();
    std::printf(
        "%d windows, %d picked up / %d dropped off, %.0f cost driven\n",
        static_cast<int>(m.windows.size()), m.total_picked_up,
        m.total_dropped_off, m.driven_cost);
    std::printf(
        "eval path: %lld kernel evals, cache %lld/%lld hit/miss, "
        "%lld pairs screened (%lld queries elided)\n",
        static_cast<long long>(m.kernel_evals),
        static_cast<long long>(m.eval_cache_hits),
        static_cast<long long>(m.eval_cache_misses),
        static_cast<long long>(m.screened_pairs),
        static_cast<long long>(m.elided_queries));
    if (m.total_breakdowns + m.total_no_shows + m.total_edge_disruptions >
        0) {
      std::printf(
          "faults: %d breakdowns, %d no-shows, %d/%d edge disruptions/"
          "restores; %d re-dispatched, %d abandoned, %d deadlines relaxed\n",
          m.total_breakdowns, m.total_no_shows, m.total_edge_disruptions,
          m.total_edge_restores, m.total_redispatched, m.total_abandoned,
          m.total_deadline_relaxed);
      std::printf(
          "overlay: %lld queries while disrupted, %lld settled by Euclid "
          "bounds, %lld exact fallbacks\n",
          static_cast<long long>(m.overlay_queries),
          static_cast<long long>(m.overlay_euclid_screened),
          static_cast<long long>(m.overlay_fallbacks));
    }
  }

  if (!opt.log_path.empty()) {
    URR_RETURN_NOT_OK(WriteFile(opt.log_path, engine.SerializedLog()));
    std::printf("event log (%zu events) written to %s\n",
                engine.event_log().size(), opt.log_path.c_str());
  }
  if (!opt.checkpoint_file.empty()) {
    for (size_t k = 0; k < engine.checkpoints().size(); ++k) {
      const std::string path =
          opt.checkpoint_file + "." + std::to_string(k);
      URR_RETURN_NOT_OK(WriteFile(path, engine.checkpoints()[k].second));
      std::printf("checkpoint at t=%.0f written to %s\n",
                  engine.checkpoints()[k].first, path.c_str());
    }
  }

  if (!opt.expect_log_path.empty()) {
    URR_ASSIGN_OR_RETURN(std::string expected, ReadFile(opt.expect_log_path));
    URR_RETURN_NOT_OK(CompareLogs(expected, engine.SerializedLog(),
                                  "log vs " + opt.expect_log_path));
    std::printf("log matches %s\n", opt.expect_log_path.c_str());
  }

  if (opt.verify_replay) {
    URR_ASSIGN_OR_RETURN(StreamingWorkload replayed,
                         WorkloadFromLog(workload, engine.event_log()));
    DispatchEngine second(&replayed, &ctx, ecfg);
    URR_RETURN_NOT_OK(second.Run());
    URR_RETURN_NOT_OK(
        CompareLogs(engine.SerializedLog(), second.SerializedLog(), "replay"));
    if (second.SolutionFingerprint() != engine.SolutionFingerprint()) {
      return Status::Internal("replay diverged: final fleet state differs");
    }
    std::printf("replay verified: %zu events and final fleet state match\n",
                engine.event_log().size());
  }

  if (opt.verify_restore) {
    for (size_t k = 0; k < engine.checkpoints().size(); ++k) {
      DispatchEngine resumed(&workload, &ctx, ecfg);
      URR_RETURN_NOT_OK(resumed.Restore(engine.checkpoints()[k].second));
      URR_RETURN_NOT_OK(resumed.Run());
      URR_RETURN_NOT_OK(CompareLogs(
          engine.SerializedLog(), resumed.SerializedLog(),
          "restore from checkpoint " + std::to_string(k)));
      if (resumed.SolutionFingerprint() != engine.SolutionFingerprint()) {
        return Status::Internal("restore from checkpoint " +
                                std::to_string(k) +
                                " diverged: final fleet state differs");
      }
    }
    std::printf("restore verified: %zu checkpoint(s) reproduce the run\n",
                engine.checkpoints().size());
  }
  return Status::OK();
}

}  // namespace
}  // namespace urr

int main(int argc, char** argv) {
  auto options = urr::ParseArgs(argc, argv);
  if (!options.ok()) {
    std::fprintf(stderr, "%s\n", options.status().ToString().c_str());
    urr::PrintUsage();
    return 2;
  }
  if (options->help) {
    urr::PrintUsage();
    return 0;
  }
  const urr::Status st = urr::Run(*options);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
