// urr_server: the long-lived dispatch service. Builds the same city-scale
// world as urr_engine (network, geo-social substrate, instance, recorded
// workload), opens a live DispatchEngine session behind the framed JSON
// protocol (DESIGN.md §12) and serves SubmitRider / CancelRider /
// QueryStatus / Metrics / InjectFault / Shutdown requests from any number
// of concurrent connections.
//
// Under the default virtual clock, serving the recorded workload through
// the socket (urr_loadgen --mode replay) produces an event log
// byte-identical to `urr_engine` on the same flags — the smoke script and
// CI hold that differential.
//
// Examples:
//   urr_server --nodes 2000 --riders 200 --vehicles 40 --port 0
//              --port-file /tmp/port --log server_events.log
//   urr_server --index city.urrx --socket /tmp/urr.sock --steady-clock
//              --timescale 60 --max-queue 32
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>

#include "common/binary_io.h"
#include "engine/engine.h"
#include "exp/harness.h"
#include "server/server.h"

namespace urr {
namespace {

struct Options {
  // World (mirrors urr_engine so batch and server runs share a workload).
  std::string city = "nyc";
  int nodes = 4000;
  int grid_width = 12;       // --city grid only
  int grid_height = 10;
  double quantize = 0;
  int riders = 300;
  int vehicles = 60;
  int capacity = 3;
  double deadline_min_minutes = 10;
  double deadline_max_minutes = 30;
  std::string index_path;
  uint64_t seed = 42;
  int threads = 0;
  // Workload.
  double arrival_rate = 0.5;
  double cancel_fraction = 0;
  double cancel_delay = 60;
  double breakdown_fraction = 0;
  double no_show_fraction = 0;
  int edge_faults = 0;
  double closure_fraction = 0.5;
  double slowdown_factor = 4.0;
  double fault_duration = 300;
  uint64_t fault_seed = 0;
  // Engine.
  double window = 30;
  std::string solver = "eg";
  int max_queue = 0;
  int max_redispatch = 3;
  double redispatch_backoff = 30;
  bool arm_faults = false;   // install the overlay for live edge injection
  bool validate_invariants = false;
  // Server.
  int port = 0;              // 0 = ephemeral; -1 = TCP off
  std::string socket_path;   // unix-domain socket ("" = off)
  std::string port_file;     // write the resolved TCP port here
  int max_sessions = 64;
  bool steady_clock = false; // wall-clock time stamps instead of virtual
  double timescale = 1.0;
  // Crash safety.
  std::string journal_dir;   // write-ahead journal + checkpoints ("" = off)
  std::string recover_dir;   // recover from this journal dir, then serve
  int checkpoint_every = 256;
  int dedup_window = 1 << 16;
  bool no_journal_fsync = false;
  // Output.
  std::string log_path;      // final event log after shutdown
  std::string fingerprint_path;  // final SolutionFingerprint after shutdown
  bool json = false;         // final EngineMetrics JSON on stdout
  bool help = false;
};

void PrintUsage() {
  std::printf(R"(urr_server - long-lived utility-aware dispatch service

world (same flags as urr_engine; both build the identical workload):
  --city nyc|chicago|grid --nodes N --riders M --vehicles V --capacity C
  --grid-width W --grid-height H --quantize Q
                          grid preset dimensions + edge-cost quantum; with
                          the golden fixture's recipe these match
                          tests/data/golden.urrx exactly
  --deadline-min MIN --deadline-max MIN
  --index FILE            cold-start the distance oracle from a .urrx snapshot
  --seed S --threads T

workload (recorded schedule; clients replay or ignore it):
  --arrival-rate R --cancel-fraction F --cancel-delay S
  --breakdown-fraction F --no-show-fraction F --edge-faults N
  --closure-fraction F --slowdown-factor X --fault-duration S --fault-seed S

engine:
  --window W --solver cf|eg|ba|gbs-eg|gbs-ba
  --max-queue Q           admission control: arrivals beyond Q queued riders
                          are answered with a 429 rejection
  --max-redispatch K --redispatch-backoff S
  --arm-faults            install the disruption overlay even with no
                          recorded edge faults, so inject_fault requests
                          can disrupt edges at runtime
  --validate-invariants

server:
  --port P                TCP on 127.0.0.1:P (0 = pick an ephemeral port,
                          -1 = TCP off)
  --socket PATH           also/instead listen on a unix-domain socket
  --port-file FILE        write the resolved TCP port to FILE (scripts)
  --max-sessions N        concurrent connections; excess connections wait
                          in the listen backlog (backpressure)
  --steady-clock          stamp requests with elapsed wall time instead of
                          requiring a "time" field (breaks replay identity)
  --timescale X           steady clock: simulated seconds per real second

crash safety (DESIGN.md #15):
  --journal DIR           write-ahead journal + periodic checkpoints in DIR;
                          every mutating request is durable before it is
                          applied, so a kill -9 loses nothing
  --recover DIR           recover from DIR (latest valid checkpoint + journal
                          suffix replay, torn tails truncated), then serve,
                          appending to the same journal
  --checkpoint-every N    journaled mutations between checkpoints (256)
  --dedup-window N        idempotency window: cached responses kept for
                          req_id dedup (65536)
  --no-journal-fsync      skip the per-record fdatasync (faster; an OS crash
                          may lose the newest records)

output:
  --log FILE              write the final deterministic event log to FILE
                          after graceful shutdown
  --fingerprint FILE      write the final SolutionFingerprint to FILE after
                          graceful shutdown (crash-recovery differentials)
  --json                  print the final EngineMetrics JSON to stdout

The server runs until a client sends {"op":"shutdown"} (or SIGTERM-free
environments: kill it; with --journal a killed server is recovered
byte-exactly by --recover, otherwise the log is only written on graceful
shutdown).
)");
}

Result<Options> ParseArgs(int argc, char** argv) {
  Options opt;
  std::map<std::string, std::string*> strings = {
      {"--city", &opt.city},       {"--solver", &opt.solver},
      {"--index", &opt.index_path},
      {"--socket", &opt.socket_path}, {"--port-file", &opt.port_file},
      {"--log", &opt.log_path},       {"--journal", &opt.journal_dir},
      {"--recover", &opt.recover_dir},
      {"--fingerprint", &opt.fingerprint_path},
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
      {"--timescale", &opt.timescale},
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
      {"--port", &opt.port},
      {"--max-sessions", &opt.max_sessions},
      {"--checkpoint-every", &opt.checkpoint_every},
      {"--dedup-window", &opt.dedup_window},
  };
  std::map<std::string, bool*> bools = {
      {"--arm-faults", &opt.arm_faults},
      {"--validate-invariants", &opt.validate_invariants},
      {"--steady-clock", &opt.steady_clock},
      {"--no-journal-fsync", &opt.no_journal_fsync},
      {"--json", &opt.json},
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

Status Run(const Options& opt) {
  WindowSolver solver;
  if (!ParseWindowSolver(opt.solver, &solver)) {
    return Status::InvalidArgument("unknown --solver " + opt.solver);
  }
  if (opt.city != "nyc" && opt.city != "chicago" && opt.city != "grid") {
    return Status::InvalidArgument("unknown --city " + opt.city);
  }

  ExperimentConfig cfg;
  cfg.city = opt.city == "chicago" ? CityKind::kChicagoLike
             : opt.city == "grid" ? CityKind::kGrid
                                  : CityKind::kNycLike;
  cfg.city_nodes = opt.nodes;
  cfg.grid_width = opt.grid_width;
  cfg.grid_height = opt.grid_height;
  cfg.quantize = opt.quantize;
  cfg.num_social_users = std::max(500, opt.nodes / 2);
  cfg.num_trip_records = std::max(2000, opt.riders * 3);
  cfg.num_riders = opt.riders;
  cfg.num_vehicles = opt.vehicles;
  cfg.capacity = opt.capacity;
  cfg.rt_min_minutes = opt.deadline_min_minutes;
  cfg.rt_max_minutes = opt.deadline_max_minutes;
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
  ecfg.gbs = cfg.gbs;
  ecfg.max_redispatch = opt.max_redispatch;
  ecfg.redispatch_backoff = opt.redispatch_backoff;
  ecfg.validate_invariants = opt.validate_invariants;
  ecfg.arm_overlay = opt.arm_faults;
  ecfg.index_snapshot_path = opt.index_path;
  ecfg.index_snapshot_checksum = world->index_checksum;
  if (solver == WindowSolver::kGbsEg || solver == WindowSolver::kGbsBa) {
    URR_ASSIGN_OR_RETURN(ecfg.gbs_preprocess, world->GbsPreprocessing());
  }

  ServiceConfig scfg;
  scfg.virtual_clock = !opt.steady_clock;
  scfg.timescale = opt.timescale;
  if (!opt.journal_dir.empty() && !opt.recover_dir.empty() &&
      opt.journal_dir != opt.recover_dir) {
    return Status::InvalidArgument(
        "--journal and --recover name different directories");
  }
  scfg.journal_dir =
      opt.recover_dir.empty() ? opt.journal_dir : opt.recover_dir;
  scfg.recover = !opt.recover_dir.empty();
  scfg.checkpoint_every = opt.checkpoint_every;
  scfg.journal_fsync = !opt.no_journal_fsync;
  scfg.dedup_window = opt.dedup_window;
  AdmissionController admission(opt.max_sessions);
  DispatchService service(&workload, &ctx, ecfg, scfg, &admission);
  URR_RETURN_NOT_OK(service.Start());
  if (scfg.recover) {
    std::fprintf(stderr, "recovered: %lld journaled mutation(s) total, %lld replayed past the checkpoint\n",
                 static_cast<long long>(service.journal_records()),
                 static_cast<long long>(service.recovered_replayed()));
  }

  ServerConfig svcfg;
  svcfg.port = opt.port;
  svcfg.unix_path = opt.socket_path;
  DispatchServer server(&service, &admission, svcfg);
  URR_RETURN_NOT_OK(server.Start());
  if (server.port() > 0) {
    std::printf("listening on 127.0.0.1:%d\n", server.port());
  }
  if (!opt.socket_path.empty()) {
    std::printf("listening on %s\n", opt.socket_path.c_str());
  }
  if (!opt.port_file.empty()) {
    URR_RETURN_NOT_OK(
        WriteFile(opt.port_file, std::to_string(server.port()) + "\n"));
  }
  std::fflush(stdout);

  server.Wait();          // returns once a shutdown request arrived
  URR_RETURN_NOT_OK(server.Stop());  // graceful drain + engine finish

  if (!opt.log_path.empty()) {
    URR_RETURN_NOT_OK(WriteFile(opt.log_path, service.SerializedLog()));
    std::fprintf(stderr, "event log written to %s\n", opt.log_path.c_str());
  }
  if (!opt.fingerprint_path.empty()) {
    URR_RETURN_NOT_OK(WriteFile(opt.fingerprint_path,
                                service.engine().SolutionFingerprint() +
                                    "\n"));
    std::fprintf(stderr, "fingerprint written to %s\n",
                 opt.fingerprint_path.c_str());
  }
  if (opt.json) {
    std::printf("%s\n", service.MetricsJson().c_str());
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
