#include "exp/session.h"

#include <algorithm>

namespace urr {

void SessionOptions::Register(FlagSet* flags) {
  FlagSet& f = *flags;
  f.Section("world:");
  f.Flag("--city", "nyc|chicago|grid", &city, "network preset");
  f.Flag("--nodes", "N", &nodes, "size of the nyc/chicago presets");
  f.Flag("--grid-width", "W", &grid_width, "grid preset width");
  f.Flag("--grid-height", "H", &grid_height, "grid preset height");
  f.Flag("--quantize", "Q", &quantize,
         "snap edge costs to multiples of Q (as urr_index build)");
  f.Flag("--riders", "M", &riders, "riders in the workload");
  f.Flag("--vehicles", "V", &vehicles, "fleet size");
  f.Flag("--capacity", "C", &capacity, "seats per vehicle");
  f.Flag("--deadline-min", "MIN", &deadline_min_minutes,
         "pickup deadline range, lower end (minutes)");
  f.Flag("--deadline-max", "MIN", &deadline_max_minutes, "its upper end");
  f.Flag("--index", "FILE", &index_path,
         "load the hub labels from a .urrx snapshot of this\n"
         "world's network (build one with urr_index)");
  f.Flag("--seed", "S", &seed, "world, workload and engine seed");
  f.Flag("--threads", "T", &threads,
         "evaluation threads (0 = URR_THREADS env); results\n"
         "are identical at any thread count");
  f.Section("streaming workload:");
  f.Flag("--arrival-rate", "R", &arrival_rate,
         "mean rider arrivals per second (Poisson)");
  f.Flag("--cancel-fraction", "F", &cancel_fraction,
         "share of riders that later request cancellation");
  f.Flag("--cancel-delay", "S", &cancel_delay,
         "mean seconds from arrival to that request");
  f.Section("fault injection (seeded and replayable; all defaults off):");
  f.Flag("--breakdown-fraction", "F", &breakdown_fraction,
         "share of vehicles that break down mid-run");
  f.Flag("--no-show-fraction", "F", &no_show_fraction,
         "share of riders absent at their pickup");
  f.Flag("--edge-faults", "N", &edge_faults, "road-edge disruption events");
  f.Flag("--closure-fraction", "F", &closure_fraction,
         "share of edge faults that close the edge");
  f.Flag("--slowdown-factor", "X", &slowdown_factor,
         "cost multiplier of the other edge faults");
  f.Flag("--fault-duration", "S", &fault_duration,
         "mean seconds until a disrupted edge restores");
  f.Flag("--fault-seed", "S", &fault_seed, "0 = derived from --seed");
  f.Section("engine:");
  f.Flag("--window", "W", &window,
         "micro-batch window in seconds (0 = dispatch each\n"
         "arrival immediately)");
  f.Flag("--solver", "cf|eg|ba|gbs-eg|gbs-ba", &solver,
         "approach solving each window");
  f.Flag("--max-queue", "Q", &max_queue,
         "reject arrivals beyond Q queued riders (0 = off)");
  f.Flag("--max-redispatch", "K", &max_redispatch,
         "retry budget for fault-displaced riders");
  f.Flag("--redispatch-backoff", "S", &redispatch_backoff,
         "base retry backoff seconds (doubles per attempt,\n"
         "capped by the rider's remaining pickup slack)");
  f.Flag("--validate-invariants", &validate_invariants,
         "run the full live-state check every window");
}

Result<std::unique_ptr<Session>> BuildSession(const SessionOptions& opt) {
  WindowSolver solver;
  if (!ParseWindowSolver(opt.solver, &solver)) {
    return Status::InvalidArgument("unknown --solver " + opt.solver);
  }
  if (opt.city != "nyc" && opt.city != "chicago" && opt.city != "grid") {
    return Status::InvalidArgument("unknown --city " + opt.city);
  }
  if (opt.window < 0 || opt.arrival_rate < 0) {
    return Status::InvalidArgument("--window/--arrival-rate must be >= 0");
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
  auto session = std::make_unique<Session>();
  URR_ASSIGN_OR_RETURN(session->world, BuildWorld(cfg));
  ExperimentWorld& world = *session->world;

  StreamingWorkloadOptions wopt;
  wopt.arrival_rate = opt.arrival_rate;
  wopt.cancel_fraction = opt.cancel_fraction;
  wopt.cancel_delay_mean = opt.cancel_delay;
  session->workload = MakeStreamingWorkload(world.instance, wopt, &world.rng);
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
    session->workload.faults =
        MakeFaultPlan(session->workload, fopt, &fault_rng);
  }

  session->model = UtilityModel(&session->workload.instance,
                                UtilityParams{cfg.alpha, cfg.beta});
  session->ctx = world.Context();
  session->ctx.model = &session->model;

  EngineConfig& ecfg = session->engine;
  ecfg.window = opt.window;
  ecfg.solver = solver;
  ecfg.max_queue = opt.max_queue;
  ecfg.seed = opt.seed;
  ecfg.gbs = cfg.gbs;
  ecfg.max_redispatch = opt.max_redispatch;
  ecfg.redispatch_backoff = opt.redispatch_backoff;
  ecfg.validate_invariants = opt.validate_invariants;
  ecfg.index_snapshot_path = opt.index_path;
  ecfg.index_snapshot_checksum = world.index_checksum;
  if (solver == WindowSolver::kGbsEg || solver == WindowSolver::kGbsBa) {
    URR_ASSIGN_OR_RETURN(ecfg.gbs_preprocess, world.GbsPreprocessing());
  }
  return session;
}

}  // namespace urr
