#include "exp/harness.h"

#include <cmath>

#include "common/env.h"
#include "common/stopwatch.h"
#include "graph/generators.h"
#include "routing/index_snapshot.h"
#include "trips/trip_generator.h"
#include "urr/bilateral.h"
#include "urr/cost_first.h"
#include "urr/greedy.h"

namespace urr {

SolverContext ExperimentWorld::Context() {
  SolverContext ctx;
  ctx.oracle = oracle.get();
  ctx.model = &model;
  ctx.vehicle_index = vehicle_index.get();
  ctx.rng = &rng;
  ctx.euclid_speed = max_speed;
  ctx.pool = pool.get();
  ctx.worker_set = worker_set;
  ctx.retrieval_stats = &retrieval_stats;
  return ctx;
}

Result<std::unique_ptr<ExperimentWorld>> BuildWorld(
    const ExperimentConfig& config) {
  auto world = std::make_unique<ExperimentWorld>();
  world->config = config;
  world->rng = Rng(config.seed);
  Rng* rng = &world->rng;

  // --- Road network. -------------------------------------------------------
  switch (config.city) {
    case CityKind::kNycLike: {
      URR_ASSIGN_OR_RETURN(world->network,
                           GenerateNycLike(config.city_nodes, rng));
      break;
    }
    case CityKind::kChicagoLike: {
      URR_ASSIGN_OR_RETURN(world->network,
                           GenerateChicagoLike(config.city_nodes, rng));
      break;
    }
    case CityKind::kGrid: {
      GridCityOptions g;
      g.width = config.grid_width;
      g.height = config.grid_height;
      URR_ASSIGN_OR_RETURN(world->network, GenerateGridCity(g, rng));
      break;
    }
  }
  if (config.quantize > 0) {
    // Same rounding as `urr_index build --quantize`, so snapshots built by
    // that tool serialize byte-identically to this network.
    std::vector<Edge> edges = world->network.EdgeList();
    for (Edge& e : edges) {
      e.cost = std::round(e.cost / config.quantize) * config.quantize;
    }
    URR_ASSIGN_OR_RETURN(
        world->network,
        RoadNetwork::Build(world->network.num_nodes(), std::move(edges),
                           world->network.coords()));
  }

  // --- Evaluation pool (created before the oracle so the CH / HL
  // construction parallelizes on it; build results are bit-identical at any
  // thread count).
  const int threads =
      config.num_threads > 0 ? config.num_threads : NumThreads();
  if (threads > 1) world->pool = std::make_unique<ThreadPool>(threads);

  // --- Routing oracle: hub labels, loaded from the snapshot or built.
  if (!config.index_snapshot.empty()) {
    URR_ASSIGN_OR_RETURN(IndexSnapshot snapshot,
                         LoadIndexSnapshot(config.index_snapshot));
    // The snapshot must describe this exact network, byte for byte —
    // preprocessing for a different graph would silently corrupt every
    // distance downstream.
    BinaryWriter want, got;
    world->network.Serialize(&want);
    snapshot.network.Serialize(&got);
    if (want.buffer() != got.buffer()) {
      return Status::InvalidArgument(
          "index snapshot '" + config.index_snapshot +
          "' was built for a different network than this configuration "
          "generates");
    }
    world->oracle = std::make_unique<HubLabelOracle>(
        std::make_shared<const HubLabels>(std::move(snapshot.hub_labels)));
    URR_ASSIGN_OR_RETURN(world->index_checksum,
                         IndexSnapshotFileChecksum(config.index_snapshot));
  } else {
    ChOptions ch_options;
    ch_options.pool = world->pool.get();
    URR_ASSIGN_OR_RETURN(world->oracle,
                         HubLabelOracle::Create(world->network, ch_options));
  }

  // --- Geo-social substrate. -----------------------------------------------
  SocialGenOptions social_opt;
  social_opt.num_users = config.num_social_users;
  URR_ASSIGN_OR_RETURN(world->social, GeneratePowerLawFriends(social_opt, rng));
  URR_ASSIGN_OR_RETURN(
      CheckInMap checkins,
      CheckInMap::Generate(world->network, config.num_social_users,
                           /*per_user=*/3, rng));
  world->checkins = std::make_unique<CheckInMap>(std::move(checkins));
  URR_ASSIGN_OR_RETURN(LocationHistorySimilarity history,
                       LocationHistorySimilarity::Build(
                           world->network, *world->checkins,
                           config.num_social_users));
  world->history =
      std::make_unique<LocationHistorySimilarity>(std::move(history));

  // --- Trip records + demand model + instance. -----------------------------
  TripGenOptions trip_opt;
  trip_opt.num_trips = config.num_trip_records;
  trip_opt.window = config.frame_minutes * 60;
  URR_ASSIGN_OR_RETURN(world->records,
                       GenerateTrips(world->network, trip_opt, rng));

  InstanceOptions inst_opt;
  inst_opt.num_riders = config.num_riders;
  inst_opt.num_vehicles = config.num_vehicles;
  inst_opt.pickup_deadline_min = config.rt_min_minutes * 60;
  inst_opt.pickup_deadline_max = config.rt_max_minutes * 60;
  inst_opt.capacity = config.capacity;
  inst_opt.epsilon = config.epsilon;

  InstanceBuilder builder(&world->network, &world->social,
                          world->checkins.get(), world->oracle.get());
  if (config.synthetic) {
    URR_ASSIGN_OR_RETURN(
        PoissonDemandModel demand,
        PoissonDemandModel::Fit(world->records, world->network.num_nodes(),
                                /*frame_start=*/0,
                                /*frame_length=*/config.frame_minutes * 60));
    URR_ASSIGN_OR_RETURN(world->instance,
                         builder.BuildFromModel(demand, inst_opt, rng));
  } else {
    URR_ASSIGN_OR_RETURN(world->instance,
                         builder.BuildFromRecords(world->records, inst_opt, rng));
  }

  // --- Utility model + vehicle index. --------------------------------------
  world->instance.history = world->history.get();
  world->model = UtilityModel(&world->instance,
                              UtilityParams{config.alpha, config.beta});
  std::vector<NodeId> locations;
  locations.reserve(world->instance.vehicles.size());
  for (const Vehicle& v : world->instance.vehicles) {
    locations.push_back(v.location);
  }
  world->vehicle_index =
      std::make_unique<VehicleIndex>(world->network, locations);
  world->max_speed = world->network.MaxSpeed();

  // --- Evaluation-pool wiring. ---------------------------------------------
  // Worker 0 (the caller) keeps the world's oracle; workers 1..T-1 get
  // clones sharing its labels. Results are bit-identical at any thread count.
  if (world->pool != nullptr) {
    SolverContext wiring;
    wiring.oracle = world->oracle.get();
    AttachThreadPool(&wiring, world->pool.get());
    world->worker_set = wiring.worker_set;
  }
  return world;
}

std::string ApproachName(Approach approach) {
  switch (approach) {
    case Approach::kCostFirst:
      return "CF";
    case Approach::kEfficientGreedy:
      return "EG";
    case Approach::kBilateral:
      return "BA";
    case Approach::kGbsEg:
      return "GBS+EG";
    case Approach::kGbsBa:
      return "GBS+BA";
  }
  return "?";
}

const std::vector<Approach>& AllApproaches() {
  static const std::vector<Approach> kAll = {
      Approach::kCostFirst, Approach::kEfficientGreedy, Approach::kBilateral,
      Approach::kGbsEg, Approach::kGbsBa};
  return kAll;
}

Result<const GbsPreprocess*> ExperimentWorld::GbsPreprocessing() {
  if (gbs_pre == nullptr) {
    SolverContext ctx = Context();
    URR_ASSIGN_OR_RETURN(GbsPreprocess pre,
                         PrepareGbs(instance, &ctx, config.gbs));
    gbs_pre = std::make_unique<GbsPreprocess>(std::move(pre));
  }
  return const_cast<const GbsPreprocess*>(gbs_pre.get());
}

namespace {

/// One solve, dispatched on the approach.
Result<UrrSolution> SolveOnce(ExperimentWorld* world, SolverContext* ctx,
                              Approach approach, const GbsPreprocess* pre) {
  const UrrInstance& instance = world->instance;
  UrrSolution sol = MakeEmptySolution(instance, ctx->oracle);
  switch (approach) {
    case Approach::kCostFirst:
      sol = SolveCostFirst(instance, ctx);
      break;
    case Approach::kEfficientGreedy:
      sol = SolveEfficientGreedy(instance, ctx);
      break;
    case Approach::kBilateral:
      sol = SolveBilateral(instance, ctx);
      break;
    case Approach::kGbsEg: {
      GbsOptions opt = world->config.gbs;
      opt.base = GbsBase::kEfficientGreedy;
      URR_ASSIGN_OR_RETURN(sol, SolveGbs(instance, ctx, opt, *pre));
      break;
    }
    case Approach::kGbsBa: {
      GbsOptions opt = world->config.gbs;
      opt.base = GbsBase::kBilateral;
      URR_ASSIGN_OR_RETURN(sol, SolveGbs(instance, ctx, opt, *pre));
      break;
    }
  }
  return sol;
}

}  // namespace

Result<ApproachResult> RunApproach(ExperimentWorld* world, Approach approach) {
  SolverContext ctx = world->Context();
  const UrrInstance& instance = world->instance;
  // Area construction is road-network preprocessing (Sec 6.2) and is not
  // charged to the arranging time, so resolve it before starting the clock.
  const GbsPreprocess* pre = nullptr;
  if (approach == Approach::kGbsEg || approach == Approach::kGbsBa) {
    URR_ASSIGN_OR_RETURN(pre, world->GbsPreprocessing());
  }
  // Steady-state timing: one untimed warm-up run fills the shared distance
  // cache, so the reported time measures the arranging algorithm rather
  // than which approach happens to touch a cold pair first.
  URR_RETURN_NOT_OK(SolveOnce(world, &ctx, approach, pre).status());
  Stopwatch watch;
  URR_ASSIGN_OR_RETURN(UrrSolution sol, SolveOnce(world, &ctx, approach, pre));
  ApproachResult result;
  result.seconds = watch.ElapsedSeconds();
  URR_RETURN_NOT_OK(sol.Validate(instance));
  result.name = ApproachName(approach);
  result.utility = sol.TotalUtility(world->model);
  result.assigned = sol.NumAssigned();
  result.travel_cost = sol.TotalCost();
  return result;
}

}  // namespace urr
