// Micro-benchmarks (google-benchmark) of the primitives the URR solvers
// lean on: point-to-point shortest paths (plain / ALT / CH),
// bounded reverse exploration, Algorithm-1 insertion, utility evaluation and
// Jaccard similarity.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <thread>

#include "common/env.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "graph/generators.h"
#include "routing/alt.h"
#include "routing/distance_oracle.h"
#include "routing/hub_labels.h"
#include "routing/index_snapshot.h"
#include "sched/insertion.h"
#include "sched/kinetic_tree.h"
#include "cover/kspc.h"
#include "social/generators.h"
#include "urr/solution.h"
#include "urr/utility.h"

namespace urr {
namespace {

/// Shared fixture state, built once.
struct MicroWorld {
  RoadNetwork network;
  std::shared_ptr<const ContractionHierarchy> ch;
  /// Labels extracted from `ch`: the production oracle.
  std::unique_ptr<HubLabelOracle> hl;
  SocialGraph social;
  Rng rng{1234};

  MicroWorld() {
    GridCityOptions opt;
    opt.width = 70;
    opt.height = 70;
    network = *GenerateGridCity(opt, &rng);
    ch = std::make_shared<const ContractionHierarchy>(
        *ContractionHierarchy::Build(network));
    hl = *HubLabelOracle::FromHierarchy(*ch);
    SocialGenOptions sopt;
    sopt.num_users = 2000;
    social = *GeneratePowerLawFriends(sopt, &rng);
  }

  NodeId RandomNode() {
    return static_cast<NodeId>(rng.UniformInt(0, network.num_nodes() - 1));
  }

  /// Like RandomNode() but from a caller-owned stream, for benchmarks that
  /// need the same node set regardless of registration order.
  NodeId RandomNodeFrom(Rng* r) {
    return static_cast<NodeId>(r->UniformInt(0, network.num_nodes() - 1));
  }
};

MicroWorld& World() {
  static MicroWorld world;
  return world;
}

void BM_DijkstraPointToPoint(benchmark::State& state) {
  MicroWorld& w = World();
  DijkstraEngine engine(w.network);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Distance(w.RandomNode(), w.RandomNode()));
  }
}
BENCHMARK(BM_DijkstraPointToPoint);

void BM_AltQuery(benchmark::State& state) {
  MicroWorld& w = World();
  static AltIndex index = *AltIndex::Build(w.network, 8, &w.rng);
  AltQuery query(w.network, index);
  for (auto _ : state) {
    benchmark::DoNotOptimize(query.Distance(w.RandomNode(), w.RandomNode()));
  }
}
BENCHMARK(BM_AltQuery);

void BM_ChQuery(benchmark::State& state) {
  MicroWorld& w = World();
  ChQuery query(*w.ch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(query.Distance(w.RandomNode(), w.RandomNode()));
  }
}
BENCHMARK(BM_ChQuery);

void BM_BoundedReverseExplore(benchmark::State& state) {
  MicroWorld& w = World();
  DijkstraEngine engine(w.network);
  const Cost radius = static_cast<Cost>(state.range(0));
  for (auto _ : state) {
    int64_t count = 0;
    engine.Explore(w.RandomNode(), radius, /*reverse=*/true,
                   [&](NodeId, Cost) { ++count; });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_BoundedReverseExplore)->Arg(600)->Arg(1800);

/// Builds a w-stop schedule then measures FindBestInsertion.
void BM_FindBestInsertion(benchmark::State& state) {
  MicroWorld& w = World();
  TransferSequence seq(w.RandomNode(), 0, 6, w.hl.get());
  const int target_stops = static_cast<int>(state.range(0));
  int rider = 0;
  while (seq.num_stops() < target_stops) {
    RiderTrip trip{rider++, w.RandomNode(), w.RandomNode(), 1e7, 1e8};
    if (trip.source == trip.destination) continue;
    (void)ArrangeSingleRider(&seq, trip);
  }
  for (auto _ : state) {
    RiderTrip probe{999, w.RandomNode(), w.RandomNode(), 1e7, 1e8};
    benchmark::DoNotOptimize(FindBestInsertion(seq, probe));
  }
}
BENCHMARK(BM_FindBestInsertion)->Arg(4)->Arg(8)->Arg(16);

/// Kinetic-tree maintenance ([20]): cost of keeping every valid ordering
/// while riders accumulate, versus Algorithm 1's single-sequence insert.
void BM_KineticTreeInsert(benchmark::State& state) {
  MicroWorld& w = World();
  const int committed = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    KineticTree tree(w.RandomNode(), 0, 4, w.hl.get());
    int placed = 0;
    for (int r = 0; placed < committed && r < committed * 6; ++r) {
      RiderTrip trip{r, w.RandomNode(), w.RandomNode(), 1e7, 1e8};
      if (trip.source == trip.destination) continue;
      if (tree.Insert(trip, 200000).ok()) ++placed;
    }
    RiderTrip probe{999, w.RandomNode(), w.RandomNode(), 1e7, 1e8};
    state.ResumeTiming();
    benchmark::DoNotOptimize(tree.Insert(probe, 200000));
  }
}
BENCHMARK(BM_KineticTreeInsert)->Arg(2)->Arg(4);

void BM_ScheduleUtility(benchmark::State& state) {
  MicroWorld& w = World();
  UrrInstance instance;
  instance.network = &w.network;
  instance.social = &w.social;
  for (int i = 0; i < 8; ++i) {
    Rider r;
    r.source = w.RandomNode();
    r.destination = w.RandomNode();
    r.pickup_deadline = 1e7;
    r.dropoff_deadline = 1e8;
    r.user = static_cast<UserId>(w.rng.UniformInt(0, 1999));
    instance.riders.push_back(r);
  }
  instance.vehicles = {{w.RandomNode(), 8}};
  UtilityModel model(&instance, {0.33, 0.33});
  TransferSequence seq(instance.vehicles[0].location, 0, 8, w.hl.get());
  for (int i = 0; i < 8; ++i) {
    const Rider& r = instance.riders[static_cast<size_t>(i)];
    if (r.source == r.destination) continue;
    (void)ArrangeSingleRider(&seq, instance.Trip(i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.ScheduleUtility(0, seq));
  }
}
BENCHMARK(BM_ScheduleUtility);

void BM_KspcCover(benchmark::State& state) {
  MicroWorld& w = World();
  // A smaller sub-grid keeps the per-iteration cost sane.
  Rng rng(77);
  GridCityOptions opt;
  opt.width = 24;
  opt.height = 24;
  static RoadNetwork net = *GenerateGridCity(opt, &rng);
  KspcOptions kopt;
  kopt.k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Rng r(777);
    benchmark::DoNotOptimize(KShortestPathCover(net, kopt, &r));
  }
  (void)w;
}
BENCHMARK(BM_KspcCover)->Arg(3)->Arg(5)->Unit(benchmark::kMillisecond);

/// Fixture for the parallel candidate-evaluation benchmark: a CH-backed
/// cloneable oracle, an instance and the full rider x vehicle pair set.
struct EvalWorld {
  std::unique_ptr<ChOracle> oracle;
  UrrInstance instance;
  std::unique_ptr<UtilityModel> model;
  UrrSolution sol;
  std::vector<RiderVehiclePair> pairs;

  EvalWorld() {
    MicroWorld& w = World();
    oracle = *ChOracle::Create(w.network);
    instance.network = &w.network;
    instance.social = &w.social;
    while (static_cast<int>(instance.riders.size()) < 128) {
      Rider r;
      r.source = w.RandomNode();
      r.destination = w.RandomNode();
      if (r.source == r.destination) continue;
      r.pickup_deadline = 1e7;
      r.dropoff_deadline = 1e8;
      r.user = static_cast<UserId>(w.rng.UniformInt(0, 1999));
      instance.riders.push_back(r);
    }
    for (int j = 0; j < 16; ++j) {
      instance.vehicles.push_back({w.RandomNode(), 3});
    }
    model = std::make_unique<UtilityModel>(&instance, UtilityParams{0.33, 0.33});
    sol = MakeEmptySolution(instance, oracle.get());
    for (RiderId i = 0; i < instance.num_riders(); ++i) {
      for (int j = 0; j < instance.num_vehicles(); ++j) {
        pairs.push_back({i, j});
      }
    }
  }
};

/// The solvers' parallel evaluation phase at Arg(0) threads. The returned
/// evaluations are identical for every thread count; only wall-clock should
/// move (speedup is hardware-dependent — on a single-core host the extra
/// threads only add scheduling overhead).
void BM_ParallelCandidateEval(benchmark::State& state) {
  static EvalWorld ew;
  const int threads = static_cast<int>(state.range(0));
  ThreadPool pool(threads);
  Rng rng(1);
  SolverContext ctx;
  ctx.oracle = ew.oracle.get();
  ctx.model = ew.model.get();
  ctx.rng = &rng;
  AttachThreadPool(&ctx, &pool);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EvaluateCandidates(ew.instance, &ctx, ew.sol, ew.pairs,
                           /*need_utility=*/true));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ew.pairs.size()));
}
BENCHMARK(BM_ParallelCandidateEval)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Head-to-head of the exact oracles on an identical workload: scalar
/// Distance calls over a fixed 16x64 source/target rectangle. range(0) picks
/// the oracle (0 = Dijkstra, 1 = CH, 2 = hub labels); all three compute the
/// exact same 1024 distances.
void BM_OracleComparison(benchmark::State& state) {
  MicroWorld& w = World();
  static DijkstraOracle dijkstra(w.network);
  static ChOracle ch(w.ch);
  DistanceOracle* const oracles[] = {&dijkstra, &ch, w.hl.get()};
  DistanceOracle* oracle = oracles[state.range(0)];
  Rng rng(99);  // fixed pair set: every oracle does identical work
  std::vector<NodeId> sources, targets;
  for (int i = 0; i < 16; ++i) sources.push_back(w.RandomNodeFrom(&rng));
  for (int i = 0; i < 64; ++i) targets.push_back(w.RandomNodeFrom(&rng));
  std::vector<Cost> out(sources.size() * targets.size());
  for (auto _ : state) {
    for (size_t i = 0; i < sources.size(); ++i) {
      for (size_t j = 0; j < targets.size(); ++j) {
        out[i * targets.size() + j] = oracle->Distance(sources[i], targets[j]);
      }
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(out.size()));
}
BENCHMARK(BM_OracleComparison)
    ->ArgName("oracle")
    ->DenseRange(0, 2)
    ->Unit(benchmark::kMillisecond);

/// One window's candidate retrieval: 64 pending riders against a fleet of
/// range(0) idle vehicles scattered over the grid city, Table-3 deadlines
/// (rt⁻ in [10, 30] min), so each bounded reverse Dijkstra settles the
/// rider's whole reachability disc.
void BM_CandidateRetrieval(benchmark::State& state) {
  MicroWorld& w = World();
  const int fleet = static_cast<int>(state.range(0));
  UrrInstance instance;
  instance.network = &w.network;
  Rng rng(4242);  // fixed stream: the same riders at every fleet size
  std::vector<RiderId> riders;
  for (int i = 0; i < 64; ++i) {
    Rider r;
    r.source = w.RandomNodeFrom(&rng);
    r.destination = w.RandomNodeFrom(&rng);
    r.pickup_deadline = rng.Uniform(600, 1800);
    r.dropoff_deadline = 1e8;
    instance.riders.push_back(r);
    riders.push_back(i);
  }
  std::vector<NodeId> locations;
  for (int j = 0; j < fleet; ++j) {
    locations.push_back(w.RandomNodeFrom(&rng));
    instance.vehicles.push_back({locations.back(), 3});
  }
  VehicleIndex vindex(w.network, locations);
  SolverContext ctx;
  ctx.vehicle_index = &vindex;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        CandidateVehiclesForRiders(instance, &ctx, riders, nullptr));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(riders.size()));
}
BENCHMARK(BM_CandidateRetrieval)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_Jaccard(benchmark::State& state) {
  MicroWorld& w = World();
  for (auto _ : state) {
    const UserId a = static_cast<UserId>(w.rng.UniformInt(0, 1999));
    const UserId b = static_cast<UserId>(w.rng.UniformInt(0, 1999));
    benchmark::DoNotOptimize(w.social.Jaccard(a, b));
  }
}
BENCHMARK(BM_Jaccard);

}  // namespace

/// Perf snapshot for the repo: the solvers' candidate-evaluation phase
/// (EvaluateCandidates over the full rider x vehicle pair set of the
/// generator city, scalar queries per candidate) timed under CH versus hub
/// labels. Values are bit-identical; only the wall clock moves.
/// Writes a small JSON file so the speedup is tracked in-tree.
int EmitOracleSnapshot(const std::string& path) {
  EvalWorld ew;
  MicroWorld& w = World();
  Stopwatch hl_prep;
  auto hl = HubLabelOracle::FromHierarchy(ew.oracle->hierarchy());
  if (!hl.ok()) {
    std::fprintf(stderr, "hl failed: %s\n", hl.status().ToString().c_str());
    return 1;
  }
  const double hl_prep_s = hl_prep.ElapsedSeconds();

  // Best-of-R wall clock for one EvaluateCandidates pass over all pairs.
  auto measure = [&](DistanceOracle* oracle) {
    Rng rng(1);
    SolverContext ctx;
    ctx.oracle = oracle;
    ctx.model = ew.model.get();
    ctx.rng = &rng;
    double best = 1e300;
    for (int rep = 0; rep < 6; ++rep) {
      Stopwatch t;
      auto evals =
          EvaluateCandidates(ew.instance, &ctx, ew.sol, ew.pairs,
                             /*need_utility=*/true);
      benchmark::DoNotOptimize(evals.data());
      const double s = t.ElapsedSeconds();
      if (rep > 0 && s < best) best = s;  // rep 0 is warm-up
    }
    return best;
  };
  const double eval_ch_s = measure(ew.oracle.get());
  const double eval_hl_s = measure(hl->get());

  // Index-construction rows: the full preprocessing pipeline (CH contraction
  // + hub-label extraction, both timed separately) at 1, 2 and 8 threads —
  // all three builds are bit-identical — plus the .urrx snapshot save/load
  // round trip, whose load time is the engine's cold-start cost.
  struct BuildRow {
    int threads;
    double contract_s;
    double label_s;
  };
  std::vector<BuildRow> rows;
  IndexSnapshot snapshot;
  for (const int threads : {1, 2, 8}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    ChOptions options;
    options.pool = pool.get();
    IndexBuildStats stats;
    double best_contract = 1e300, best_label = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      auto snap = BuildIndexSnapshot(w.network, options, &stats);
      if (!snap.ok()) {
        std::fprintf(stderr, "index build failed: %s\n",
                     snap.status().ToString().c_str());
        return 1;
      }
      best_contract = std::min(best_contract, stats.ch_contract_seconds);
      best_label = std::min(best_label, stats.hl_label_seconds);
      if (threads == 1) snapshot = *std::move(snap);
    }
    rows.push_back({threads, best_contract, best_label});
  }
  const std::string urrx_path = path + ".urrx";
  double save_s = 0, load_s = 0;
  {
    Stopwatch t;
    if (!SaveIndexSnapshot(snapshot, urrx_path).ok()) {
      std::fprintf(stderr, "cannot save %s\n", urrx_path.c_str());
      return 1;
    }
    save_s = t.ElapsedSeconds();
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      Stopwatch lt;
      auto loaded = LoadIndexSnapshot(urrx_path);
      if (!loaded.ok()) {
        std::fprintf(stderr, "cannot load %s\n", urrx_path.c_str());
        return 1;
      }
      benchmark::DoNotOptimize(loaded->hub_labels.num_entries());
      best = std::min(best, lt.ElapsedSeconds());
    }
    load_s = best;
    std::remove(urrx_path.c_str());
  }
  const double serial_build_s = rows[0].contract_s + rows[0].label_s;
  const double cold_start_speedup = load_s > 0 ? serial_build_s / load_s : 0;

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"commit\": \"%s\",\n"
               "  \"nproc\": %u,\n"
               "  \"build_type\": \"%s\",\n"
               "  \"benchmark\": \"candidate_evaluation\",\n"
               "  \"city_nodes\": %d,\n"
               "  \"riders\": %d,\n"
               "  \"vehicles\": %d,\n"
               "  \"pairs\": %zu,\n"
               "  \"hl_label_build_seconds\": %.3f,\n"
               "  \"eval_ch_seconds\": %.6f,\n"
               "  \"eval_hl_seconds\": %.6f,\n"
               "  \"speedup_eval_hl_vs_eval_ch\": %.2f,\n"
               "  \"index_build\": [\n",
               URR_GIT_COMMIT, std::thread::hardware_concurrency(),
               URR_BUILD_TYPE, w.network.num_nodes(),
               static_cast<int>(ew.instance.riders.size()),
               static_cast<int>(ew.instance.vehicles.size()), ew.pairs.size(),
               hl_prep_s, eval_ch_s, eval_hl_s,
               eval_ch_s / eval_hl_s);
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f,
                 "    {\"threads\": %d, \"ch_contract_seconds\": %.6f, "
                 "\"hl_label_seconds\": %.6f}%s\n",
                 rows[i].threads, rows[i].contract_s, rows[i].label_s,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n"
               "  \"snapshot_save_seconds\": %.6f,\n"
               "  \"snapshot_load_seconds\": %.6f,\n"
               "  \"cold_start_speedup_vs_rebuild\": %.1f\n"
               "}\n",
               save_s, load_s, cold_start_speedup);
  std::fclose(f);
  std::printf("wrote %s: eval CH %.3fms, eval HL %.3fms (%.1fx)\n",
              path.c_str(), eval_ch_s * 1e3, eval_hl_s * 1e3,
              eval_ch_s / eval_hl_s);
  std::printf("index build: serial %.3fs (contract %.3fs + labels %.3fs), "
              "8-thread contract %.3fs; snapshot load %.3fs (%.0fx cold-start "
              "speedup)\n",
              serial_build_s, rows[0].contract_s, rows[0].label_s,
              rows[2].contract_s, load_s, cold_start_speedup);
  return 0;
}

}  // namespace urr

// BENCHMARK_MAIN, plus an escape hatch that writes a perf snapshot instead
// of running the google-benchmark suite: URR_EMIT_ORACLE_JSON=<path> (the
// candidate-evaluation snapshot).
int main(int argc, char** argv) {
  const std::string snapshot = urr::GetEnvString("URR_EMIT_ORACLE_JSON", "");
  if (!snapshot.empty()) {
    return urr::EmitOracleSnapshot(snapshot == "1" ? "BENCH_oracle.json"
                                                   : snapshot);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
