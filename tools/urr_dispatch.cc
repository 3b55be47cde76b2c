// urr_dispatch: command-line batch dispatcher. Loads a road network (DIMACS
// files or a generated city), a trip workload (CSV or generated), builds a
// URR instance and solves it with the chosen approach, printing the
// paper-style summary and optionally dumping the schedules as CSV.
//
// Examples:
//   urr_dispatch --city nyc --nodes 10000 --riders 1000 --vehicles 200
//   urr_dispatch --network nyc.gr --coords nyc.co --trips trips.csv
//                --approach gbs-ba --out schedules.csv
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "common/csv.h"
#include "common/env.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/table.h"
#include "graph/dimacs.h"
#include "graph/generators.h"
#include "routing/hub_labels.h"
#include "social/checkins.h"
#include "social/generators.h"
#include "trips/instance_builder.h"
#include "trips/io.h"
#include "trips/trip_generator.h"
#include "urr/eval_cache.h"
#include "urr/metrics.h"
#include "urr/urr.h"

namespace urr {
namespace {

struct Options {
  std::string network_path;  // DIMACS .gr
  std::string coords_path;   // DIMACS .co
  std::string city = "nyc";  // generated city preset
  int nodes = 6000;
  std::string trips_path;  // node-based trip CSV
  int riders = 500;
  int vehicles = 100;
  int capacity = 3;
  double alpha = 0.33;
  double beta = 0.33;
  double epsilon = 1.5;
  double deadline_min_minutes = 10;
  double deadline_max_minutes = 30;
  std::string approach = "ba";
  uint64_t seed = 42;
  int threads = 0;  // 0 = URR_THREADS env, 1 = serial
  std::string out_path;
  bool json = false;  // machine-readable SolutionMetrics instead of the table
  bool help = false;
};

void PrintUsage() {
  std::printf(R"(urr_dispatch - utility-aware ridesharing batch dispatcher

network source (pick one):
  --network FILE.gr [--coords FILE.co]   load a DIMACS road network
  --city nyc|chicago --nodes N           generate a city-like network

workload source (pick one):
  --trips FILE.csv        node-based trip CSV (pickup_node, dropoff_node,
                          pickup_time, duration)
  (default)               generate a workload on the network

instance:
  --riders M --vehicles N --capacity C
  --alpha A --beta B      utility balance (Eq. 1)
  --epsilon E             flexible factor for drop-off deadlines
  --deadline-min MIN --deadline-max MIN   pickup deadline range (minutes)

solver:
  --approach cf|eg|ba|gbs-eg|gbs-ba|online
  --seed S
  --threads T             evaluation threads (0 = URR_THREADS env, 1 = serial;
                          the solution is identical for every T)
  --out FILE.csv          dump the resulting schedules
  --json                  print SolutionMetrics as one JSON object instead
                          of the human-readable tables

)");
}

Result<Options> ParseArgs(int argc, char** argv) {
  Options opt;
  std::map<std::string, std::string*> strings = {
      {"--network", &opt.network_path}, {"--coords", &opt.coords_path},
      {"--city", &opt.city},            {"--trips", &opt.trips_path},
      {"--approach", &opt.approach},    {"--out", &opt.out_path},
  };
  std::map<std::string, double*> doubles = {
      {"--alpha", &opt.alpha},
      {"--beta", &opt.beta},
      {"--epsilon", &opt.epsilon},
      {"--deadline-min", &opt.deadline_min_minutes},
      {"--deadline-max", &opt.deadline_max_minutes},
  };
  std::map<std::string, int*> ints = {
      {"--nodes", &opt.nodes},
      {"--riders", &opt.riders},
      {"--vehicles", &opt.vehicles},
      {"--capacity", &opt.capacity},
      {"--threads", &opt.threads},
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
    } else if (flag == "--json") {
      opt.json = true;
    } else if (flag == "--seed") {
      URR_ASSIGN_OR_RETURN(std::string v, need_value());
      opt.seed = static_cast<uint64_t>(std::atoll(v.c_str()));
    } else {
      return Status::InvalidArgument("unknown flag: " + flag);
    }
  }
  return opt;
}

/// Dumps schedules as CSV rows (vehicle, seq, rider, event, node, deadline).
Status DumpSchedules(const std::string& path, const UrrSolution& sol) {
  CsvTable table;
  table.header = {"vehicle", "position", "rider", "event", "node", "deadline"};
  for (size_t j = 0; j < sol.schedules.size(); ++j) {
    const TransferSequence& seq = sol.schedules[j];
    for (int u = 0; u < seq.num_stops(); ++u) {
      const Stop& s = seq.stop(u);
      table.rows.push_back(
          {std::to_string(j), std::to_string(u), std::to_string(s.rider),
           s.type == StopType::kPickup ? "pickup" : "dropoff",
           std::to_string(s.location), std::to_string(s.deadline)});
    }
  }
  return WriteCsvFile(path, table);
}

Status Run(const Options& opt) {
  Rng rng(opt.seed);
  // --- Network. -------------------------------------------------------------
  RoadNetwork network;
  if (!opt.network_path.empty()) {
    URR_ASSIGN_OR_RETURN(network,
                         LoadDimacsFiles(opt.network_path, opt.coords_path));
    std::printf("loaded %s: %d nodes / %lld edges\n", opt.network_path.c_str(),
                network.num_nodes(), static_cast<long long>(network.num_edges()));
  } else if (opt.city == "chicago") {
    URR_ASSIGN_OR_RETURN(network, GenerateChicagoLike(opt.nodes, &rng));
  } else if (opt.city == "nyc") {
    URR_ASSIGN_OR_RETURN(network, GenerateNycLike(opt.nodes, &rng));
  } else {
    return Status::InvalidArgument("unknown --city " + opt.city);
  }

  // --- Routing oracle. --------------------------------------------------------
  Stopwatch prep;
  URR_ASSIGN_OR_RETURN(std::unique_ptr<HubLabelOracle> labels,
                       HubLabelOracle::Create(network));
  DistanceOracle& oracle = *labels;
  std::printf("hub-label oracle built in %.2fs\n", prep.ElapsedSeconds());

  // --- Social substrate. -------------------------------------------------------
  SocialGenOptions sopt;
  sopt.num_users = std::max(500, static_cast<int>(network.num_nodes() * 0.74));
  URR_ASSIGN_OR_RETURN(SocialGraph social, GeneratePowerLawFriends(sopt, &rng));
  URR_ASSIGN_OR_RETURN(CheckInMap checkins,
                       CheckInMap::Generate(network, sopt.num_users, 3, &rng));

  // --- Trips. -------------------------------------------------------------------
  TripRecords records;
  if (!opt.trips_path.empty()) {
    URR_ASSIGN_OR_RETURN(records,
                         ReadTripRecords(opt.trips_path, network.num_nodes()));
    std::printf("loaded %zu trip records\n", records.size());
  } else {
    TripGenOptions topt;
    topt.num_trips = std::max(2000, opt.riders * 3);
    URR_ASSIGN_OR_RETURN(records, GenerateTrips(network, topt, &rng));
  }

  // --- Instance. ------------------------------------------------------------------
  InstanceBuilder builder(&network, &social, &checkins, &oracle);
  InstanceOptions iopt;
  iopt.num_riders = opt.riders;
  iopt.num_vehicles = opt.vehicles;
  iopt.capacity = opt.capacity;
  iopt.epsilon = opt.epsilon;
  iopt.pickup_deadline_min = opt.deadline_min_minutes * 60;
  iopt.pickup_deadline_max = opt.deadline_max_minutes * 60;
  URR_ASSIGN_OR_RETURN(UrrInstance instance,
                       builder.BuildFromRecords(records, iopt, &rng));

  UtilityModel model(&instance, UtilityParams{opt.alpha, opt.beta});
  std::vector<NodeId> locations;
  for (const Vehicle& v : instance.vehicles) locations.push_back(v.location);
  VehicleIndex index(network, locations);
  SolverContext ctx;
  ctx.oracle = &oracle;
  ctx.model = &model;
  ctx.vehicle_index = &index;
  ctx.rng = &rng;
  ctx.euclid_speed = network.MaxSpeed();

  // --- Evaluation cache (a pure optimization: the solution is byte-identical
  // without it) and retrieval counters. -----------------------------------------
  EvalCache eval_cache;
  EvalCounters counters;
  RetrievalStats retrieval_stats;
  ctx.eval_cache = &eval_cache;
  ctx.counters = &counters;
  ctx.retrieval_stats = &retrieval_stats;

  // --- Evaluation pool (results identical at any thread count). ----------------
  const int threads = opt.threads > 0 ? opt.threads : NumThreads();
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads);
    AttachThreadPool(&ctx, pool.get());
    if (ctx.eval_pool() != nullptr) {
      std::printf("evaluation pool: %d threads\n", threads);
    }
  }

  // --- Solve. -------------------------------------------------------------------
  Stopwatch watch;
  UrrSolution sol = MakeEmptySolution(instance, &oracle);
  if (opt.approach == "cf") {
    sol = SolveCostFirst(instance, &ctx);
  } else if (opt.approach == "eg") {
    sol = SolveEfficientGreedy(instance, &ctx);
  } else if (opt.approach == "ba") {
    sol = SolveBilateral(instance, &ctx);
  } else if (opt.approach == "gbs-eg" || opt.approach == "gbs-ba") {
    GbsOptions gopt;
    gopt.base = opt.approach == "gbs-eg" ? GbsBase::kEfficientGreedy
                                         : GbsBase::kBilateral;
    URR_ASSIGN_OR_RETURN(sol, SolveGbs(instance, &ctx, gopt));
  } else if (opt.approach == "online") {
    OnlineDispatcher dispatcher(&instance, &ctx, OnlineObjective::kUtilityGain);
    std::vector<RiderId> order(instance.riders.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<RiderId>(i);
    sol = dispatcher.DispatchAll(order);
  } else {
    return Status::InvalidArgument("unknown --approach " + opt.approach);
  }
  const double seconds = watch.ElapsedSeconds();
  URR_RETURN_NOT_OK(sol.Validate(instance));

  SolutionMetrics metrics = ComputeMetrics(instance, model, sol);
  AttachEvalStats(ctx, &metrics);
  AttachRejectionReasons(instance, &ctx, sol, &metrics);
  if (opt.json) {
    // Machine-readable path: the JSON object is the last stdout line.
    std::printf("%s\n", MetricsJson(metrics).c_str());
  } else {
    TablePrinter summary({"approach", "overall utility", "travel cost (s)",
                          "riders served", "solve time (s)"});
    summary.AddRow({opt.approach, TablePrinter::Num(sol.TotalUtility(model), 3),
                    TablePrinter::Num(sol.TotalCost(), 0),
                    std::to_string(sol.NumAssigned()),
                    TablePrinter::Num(seconds, 3)});
    summary.Print();
    std::printf("%s", FormatMetrics(metrics).c_str());
    std::printf(
        "eval path: %lld kernel evals, cache %lld/%lld hit/miss, "
        "%lld pairs screened (%lld queries elided)\n",
        static_cast<long long>(metrics.kernel_evals),
        static_cast<long long>(metrics.eval_cache_hits),
        static_cast<long long>(metrics.eval_cache_misses),
        static_cast<long long>(metrics.screened_pairs),
        static_cast<long long>(metrics.elided_queries));
  }

  if (!opt.out_path.empty()) {
    URR_RETURN_NOT_OK(DumpSchedules(opt.out_path, sol));
    std::printf("schedules written to %s\n", opt.out_path.c_str());
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
