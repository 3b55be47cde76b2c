#include "exp/simulation.h"

#include <utility>
#include <vector>

#include "engine/engine.h"

namespace urr {

namespace {

WindowSolver SolverFor(Approach approach) {
  switch (approach) {
    case Approach::kCostFirst:
      return WindowSolver::kCostFirst;
    case Approach::kEfficientGreedy:
      return WindowSolver::kEfficientGreedy;
    case Approach::kBilateral:
      return WindowSolver::kBilateral;
    case Approach::kGbsEg:
      return WindowSolver::kGbsEg;
    case Approach::kGbsBa:
      return WindowSolver::kGbsBa;
  }
  return WindowSolver::kEfficientGreedy;
}

}  // namespace

Result<SimulationReport> RunRollingHorizon(ExperimentWorld* world,
                                           const SimulationConfig& config) {
  if (config.num_frames <= 0 || config.riders_per_frame <= 0 ||
      config.frame_minutes <= 0 || config.dispatch_seconds < 0) {
    return Status::InvalidArgument("simulation config must be positive");
  }
  // Fit the demand model on the world's records (frame 0's window; the
  // paper mines λ and p_ik per frame — with synthetic records one window is
  // representative, so we reuse it for every simulated frame).
  URR_ASSIGN_OR_RETURN(
      PoissonDemandModel demand,
      PoissonDemandModel::Fit(world->records, world->network.num_nodes(),
                              /*frame_start=*/0,
                              world->config.frame_minutes * 60));

  InstanceBuilder builder(&world->network, &world->social,
                          world->checkins.get(), world->oracle.get());
  InstanceOptions opts;
  const int target = config.num_frames * config.riders_per_frame;
  opts.num_riders = target;  // target; actual may differ
  opts.num_vehicles = world->config.num_vehicles;
  opts.pickup_deadline_min = world->config.rt_min_minutes * 60;
  opts.pickup_deadline_max = world->config.rt_max_minutes * 60;
  opts.capacity = world->config.capacity;
  opts.epsilon = world->config.epsilon;

  Rng* rng = &world->rng;

  // --- Demand for the whole horizon. ---------------------------------------
  std::vector<std::pair<NodeId, NodeId>> od;
  od.reserve(static_cast<size_t>(target));
  int guard = target * 8;
  while (static_cast<int>(od.size()) < target && guard-- > 0) {
    const auto trip = demand.SampleTrip(rng);
    if (trip.first != trip.second) od.push_back(trip);
  }
  URR_ASSIGN_OR_RETURN(UrrInstance instance,
                       builder.BuildFromTrips(od, world->instance.vehicles,
                                              opts, /*now=*/0, rng));
  if (instance.num_riders() < config.num_frames) {
    return Status::Infeasible("demand model produced too few riders");
  }

  // --- One streaming workload spanning every frame. -------------------------
  // Riders are bucketed into near-equal consecutive frames and arrive spread
  // uniformly inside theirs; deadlines shift with the arrival so each rider
  // keeps the pickup/dropoff budget the builder drew relative to t = 0.
  const Cost frame_len = config.frame_minutes * 60;
  const int n = instance.num_riders();
  StreamingWorkload workload;
  workload.instance = std::move(instance);
  std::vector<int> frame_of(static_cast<size_t>(n), 0);
  for (int f = 0; f < config.num_frames; ++f) {
    const int lo = f * n / config.num_frames;
    const int hi = (f + 1) * n / config.num_frames;
    for (int i = lo; i < hi; ++i) {
      const Cost t =
          f * frame_len + frame_len * static_cast<Cost>(i - lo) / (hi - lo);
      workload.arrivals.push_back({i, t});
      Rider& r = workload.instance.riders[static_cast<size_t>(i)];
      r.pickup_deadline += t;
      r.dropoff_deadline += t;
      frame_of[static_cast<size_t>(i)] = f;
    }
  }

  // --- Dispatch through the engine. ----------------------------------------
  UtilityModel model(&workload.instance,
                     UtilityParams{world->config.alpha, world->config.beta});
  SolverContext ctx = world->Context();
  ctx.model = &model;
  EngineConfig ecfg;
  ecfg.window = config.dispatch_seconds;
  ecfg.solver = SolverFor(config.approach);
  ecfg.seed = world->config.seed * 0x9e3779b97f4a7c15ULL + 1;
  ecfg.gbs = world->config.gbs;
  if (config.approach == Approach::kGbsEg ||
      config.approach == Approach::kGbsBa) {
    // Road-network preprocessing is cached on the world and not charged to
    // solve time, matching RunApproach's accounting.
    URR_ASSIGN_OR_RETURN(ecfg.gbs_preprocess, world->GbsPreprocessing());
  }
  DispatchEngine engine(&workload, &ctx, ecfg);
  URR_RETURN_NOT_OK(engine.Run());

  // --- Frame reports. -------------------------------------------------------
  SimulationReport report;
  report.frames.resize(static_cast<size_t>(config.num_frames));
  for (int f = 0; f < config.num_frames; ++f) {
    report.frames[static_cast<size_t>(f)].frame = f;
    report.frames[static_cast<size_t>(f)].frame_start = f * frame_len;
  }
  const std::vector<double>& booked = engine.booked_utilities();
  for (int i = 0; i < n; ++i) {
    FrameReport& fr = report.frames[static_cast<size_t>(frame_of[i])];
    ++fr.arrived;
    if (engine.solution().assignment[static_cast<size_t>(i)] >= 0) {
      ++fr.served;
      fr.utility += booked[static_cast<size_t>(i)];
    }
  }
  const EngineMetrics& m = engine.metrics();
  double windows_driven = 0;
  for (const WindowMetrics& w : m.windows) {
    int f = static_cast<int>(w.window_start / frame_len);
    if (f >= config.num_frames) f = config.num_frames - 1;
    report.frames[static_cast<size_t>(f)].solve_seconds += w.solve_seconds;
    report.frames[static_cast<size_t>(f)].travel_cost += w.driven_cost;
    windows_driven += w.driven_cost;
  }
  // Driving after the last boundary (the drain) belongs to the last frame.
  report.frames.back().travel_cost += m.driven_cost - windows_driven;

  for (const FrameReport& f : report.frames) {
    report.total_arrived += f.arrived;
    report.total_served += f.served;
    report.total_utility += f.utility;
    report.total_travel_cost += f.travel_cost;
  }
  return report;
}

}  // namespace urr
