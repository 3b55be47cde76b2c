// Serial-vs-parallel differential suite: every solver (CF, EG, BA, GBS+EG,
// GBS+EG with the group-filter bound — the wave-parallel path — and GBS+BA)
// must produce a byte-identical solution with 1, 2 and 8 evaluation
// threads: same assignment vector, same stop sequences, same total utility
// and travel cost down to the last bit. Covered on generator city graphs
// (via the experiment harness, hub labels) and on grid graphs (hand-built
// world, DijkstraOracle, AttachThreadPool wiring), across varying
// capacities and deadline ranges.
//
// Oracle differential: on quantized-cost grids (every edge cost a multiple
// of 1/256, so path sums are exact in double arithmetic) the same solves
// under hub labels and under the CH must also be byte-identical to the
// Dijkstra reference.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exp/harness.h"
#include "graph/generators.h"
#include "routing/hub_labels.h"
#include "routing/index_snapshot.h"
#include "urr/eval_cache.h"
#include "urr/urr.h"

namespace urr {
namespace {

/// Exact bit pattern of a double, so fingerprint equality means bit-identity
/// (an EXPECT_EQ on doubles would also pass for -0.0 vs 0.0 etc.).
std::string BitsOf(double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  std::ostringstream os;
  os << std::hex << bits;
  return os.str();
}

/// Full fingerprint of a solution: assignment, every stop of every
/// schedule, and the two aggregate metrics as raw bits.
std::string Fingerprint(const UrrSolution& sol, const UtilityModel& model) {
  std::ostringstream os;
  for (int a : sol.assignment) os << a << ',';
  os << '|';
  for (const TransferSequence& s : sol.schedules) {
    for (int u = 0; u < s.num_stops(); ++u) {
      const Stop& st = s.stop(u);
      os << st.rider << (st.type == StopType::kPickup ? 'p' : 'd')
         << st.location << ':' << BitsOf(st.deadline) << ';';
    }
    os << '/';
  }
  os << '|' << BitsOf(sol.TotalUtility(model)) << '|' << BitsOf(sol.TotalCost());
  return os.str();
}

enum class Variant { kCf, kEg, kBa, kGbsEg, kGbsEgFilter, kGbsBa };

const char* VariantName(Variant v) {
  switch (v) {
    case Variant::kCf:
      return "CF";
    case Variant::kEg:
      return "EG";
    case Variant::kBa:
      return "BA";
    case Variant::kGbsEg:
      return "GBS+EG";
    case Variant::kGbsEgFilter:
      return "GBS+EG/filter";
    case Variant::kGbsBa:
      return "GBS+BA";
  }
  return "?";
}

UrrSolution SolveVariant(const UrrInstance& instance, SolverContext* ctx,
                         const GbsOptions& gbs, Variant v) {
  switch (v) {
    case Variant::kCf:
      return SolveCostFirst(instance, ctx);
    case Variant::kEg:
      return SolveEfficientGreedy(instance, ctx);
    case Variant::kBa:
      return SolveBilateral(instance, ctx);
    case Variant::kGbsEg:
    case Variant::kGbsEgFilter:
    case Variant::kGbsBa: {
      GbsOptions opt = gbs;
      opt.base =
          v == Variant::kGbsBa ? GbsBase::kBilateral : GbsBase::kEfficientGreedy;
      opt.use_group_filter_bound = v == Variant::kGbsEgFilter;
      auto sol = SolveGbs(instance, ctx, opt);
      EXPECT_TRUE(sol.ok()) << sol.status();
      return sol.ok() ? *std::move(sol) : UrrSolution{};
    }
  }
  return UrrSolution{};
}

const std::vector<Variant>& AllVariants() {
  static const std::vector<Variant> kAll = {
      Variant::kCf,    Variant::kEg,          Variant::kBa,
      Variant::kGbsEg, Variant::kGbsEgFilter, Variant::kGbsBa};
  return kAll;
}

// --- Harness-built generator cities (hub labels). ---------------------------

/// One full solve on a freshly built world (fresh rng state for every
/// thread count, so the only varying input is the pool size).
std::string RunOnWorld(ExperimentConfig cfg, Variant v, int threads) {
  cfg.num_threads = threads;
  auto world_or = BuildWorld(cfg);
  EXPECT_TRUE(world_or.ok()) << world_or.status();
  if (!world_or.ok()) return "";
  auto world = *std::move(world_or);
  if (threads > 1) {
    // The harness must actually have wired the pool (the hub-label oracle
    // is cloneable); otherwise the test would compare serial runs.
    EXPECT_NE(world->Context().eval_pool(), nullptr);
  }
  SolverContext ctx = world->Context();
  const UrrSolution sol = SolveVariant(world->instance, &ctx, cfg.gbs, v);
  EXPECT_TRUE(sol.Validate(world->instance).ok()) << VariantName(v);
  return Fingerprint(sol, world->model);
}

struct CityScenario {
  const char* name;
  ExperimentConfig cfg;
};

std::vector<CityScenario> CityScenarios() {
  std::vector<CityScenario> out;
  {
    ExperimentConfig cfg;
    cfg.city = CityKind::kNycLike;
    cfg.city_nodes = 800;
    cfg.num_social_users = 200;
    cfg.num_trip_records = 900;
    cfg.num_riders = 70;
    cfg.num_vehicles = 14;
    cfg.capacity = 3;
    cfg.seed = 42;
    cfg.gbs.k = 3;
    cfg.gbs.d_max = 200;
    out.push_back({"nyc-like", cfg});
  }
  {
    ExperimentConfig cfg;
    cfg.city = CityKind::kChicagoLike;
    cfg.city_nodes = 700;
    cfg.num_social_users = 150;
    cfg.num_trip_records = 800;
    cfg.num_riders = 50;
    cfg.num_vehicles = 10;
    cfg.capacity = 2;                // tighter seats
    cfg.rt_min_minutes = 5;          // tighter deadlines
    cfg.rt_max_minutes = 15;
    cfg.seed = 7;
    cfg.gbs.k = 2;
    cfg.gbs.d_max = 250;
    out.push_back({"chicago-like", cfg});
  }
  return out;
}

TEST(ParallelDifferentialTest, CityWorldsIdenticalAcrossThreadCounts) {
  for (const CityScenario& scenario : CityScenarios()) {
    for (Variant v : AllVariants()) {
      SCOPED_TRACE(std::string(scenario.name) + " / " + VariantName(v));
      const std::string serial = RunOnWorld(scenario.cfg, v, 1);
      ASSERT_FALSE(serial.empty());
      EXPECT_EQ(serial, RunOnWorld(scenario.cfg, v, 2));
      EXPECT_EQ(serial, RunOnWorld(scenario.cfg, v, 8));
    }
  }
}

// --- Hand-built grid worlds (DijkstraOracle + AttachThreadPool). -----------

struct GridWorld {
  RoadNetwork network;
  SocialGraph social;
  UrrInstance instance;
  std::unique_ptr<DijkstraOracle> oracle;
  std::unique_ptr<UtilityModel> model;
  std::unique_ptr<VehicleIndex> index;
  Rng rng{0};
};

std::unique_ptr<GridWorld> MakeGridWorld(uint64_t seed, int riders,
                                         int vehicles, int capacity,
                                         Cost deadline_lo, Cost deadline_hi,
                                         bool quantize = false) {
  auto w = std::make_unique<GridWorld>();
  w->rng = Rng(seed);
  GridCityOptions gopt;
  gopt.width = 11;
  gopt.height = 11;
  gopt.keep_probability = 0.9;
  auto g = GenerateGridCity(gopt, &w->rng);
  EXPECT_TRUE(g.ok());
  w->network = *std::move(g);
  if (quantize) {
    // Round every edge cost to a multiple of 1/256: path sums become exact
    // in double arithmetic, so every exact oracle returns identical bits.
    std::vector<Edge> edges = w->network.EdgeList();
    for (Edge& e : edges) e.cost = std::round(e.cost * 256.0) / 256.0;
    auto q = RoadNetwork::Build(w->network.num_nodes(), std::move(edges),
                                w->network.coords());
    EXPECT_TRUE(q.ok());
    w->network = *std::move(q);
  }
  w->oracle = std::make_unique<DijkstraOracle>(w->network);

  SocialGenOptions sopt;
  sopt.num_users = 80;
  auto social = GeneratePowerLawFriends(sopt, &w->rng);
  EXPECT_TRUE(social.ok());
  w->social = *std::move(social);

  w->instance.network = &w->network;
  w->instance.social = &w->social;
  auto random_node = [&] {
    return static_cast<NodeId>(
        w->rng.UniformInt(0, w->network.num_nodes() - 1));
  };
  for (int i = 0; i < riders; ++i) {
    Rider r;
    r.source = random_node();
    do {
      r.destination = random_node();
    } while (r.destination == r.source);
    r.pickup_deadline = w->rng.Uniform(deadline_lo, deadline_hi);
    const Cost direct = w->oracle->Distance(r.source, r.destination);
    r.dropoff_deadline = r.pickup_deadline + direct * w->rng.Uniform(1.2, 2.2);
    r.user = static_cast<UserId>(w->rng.UniformInt(0, 79));
    w->instance.riders.push_back(r);
  }
  std::vector<NodeId> locations;
  for (int j = 0; j < vehicles; ++j) {
    const NodeId loc = random_node();
    w->instance.vehicles.push_back({loc, capacity});
    locations.push_back(loc);
  }
  for (int i = 0; i < riders * vehicles; ++i) {
    w->instance.vehicle_utility.push_back(static_cast<float>(w->rng.Uniform()));
  }
  w->model = std::make_unique<UtilityModel>(&w->instance,
                                            UtilityParams{0.33, 0.33});
  w->index = std::make_unique<VehicleIndex>(w->network, locations);
  return w;
}

/// Evaluation-path feature switches for the toggle-matrix contracts. Both
/// are pure optimizations: any combination must give the same bits.
struct EvalToggles {
  bool screening = true;  // euclid_speed = MaxSpeed(); false sets it to 0
  bool cache = false;     // an EvalCache is attached when true
};

std::string RunOnGrid(uint64_t seed, int riders, int vehicles, int capacity,
                      Cost deadline_lo, Cost deadline_hi, Variant v,
                      int threads, EvalToggles toggles = {}) {
  auto w = MakeGridWorld(seed, riders, vehicles, capacity, deadline_lo,
                         deadline_hi);
  SolverContext ctx;
  ctx.oracle = w->oracle.get();
  ctx.model = w->model.get();
  ctx.vehicle_index = w->index.get();
  ctx.rng = &w->rng;
  ctx.euclid_speed = toggles.screening ? w->network.MaxSpeed() : 0;
  EvalCache cache;
  EvalCounters counters;
  if (toggles.cache) ctx.eval_cache = &cache;
  ctx.counters = &counters;
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads);
    AttachThreadPool(&ctx, pool.get());
    EXPECT_NE(ctx.eval_pool(), nullptr);  // DijkstraOracle is cloneable
  }
  GbsOptions gbs;
  gbs.k = 3;
  gbs.d_max = 200;
  const UrrSolution sol = SolveVariant(w->instance, &ctx, gbs, v);
  EXPECT_TRUE(sol.Validate(w->instance).ok()) << VariantName(v);
  if (toggles.cache) {
    // The cache must actually have been exercised (hits + misses > 0) for
    // the toggle contract to mean anything.
    EXPECT_GT(counters.cache_hits.load() + counters.cache_misses.load(), 0)
        << VariantName(v);
  }
  return Fingerprint(sol, *w->model);
}

TEST(ParallelDifferentialTest, GridWorldsIdenticalAcrossThreadCounts) {
  struct GridScenario {
    uint64_t seed;
    int riders, vehicles, capacity;
    Cost deadline_lo, deadline_hi;
  };
  const std::vector<GridScenario> scenarios = {
      {11, 60, 12, 3, 200, 2000},   // roomy deadlines
      {23, 45, 9, 2, 100, 800},     // tight deadlines, small seats
      {37, 50, 8, 4, 300, 2500},    // high capacity
  };
  for (const GridScenario& s : scenarios) {
    for (Variant v : AllVariants()) {
      SCOPED_TRACE(std::string(VariantName(v)) + " seed=" +
                   std::to_string(s.seed));
      const std::string serial =
          RunOnGrid(s.seed, s.riders, s.vehicles, s.capacity, s.deadline_lo,
                    s.deadline_hi, v, 1);
      ASSERT_FALSE(serial.empty());
      EXPECT_EQ(serial, RunOnGrid(s.seed, s.riders, s.vehicles, s.capacity,
                                  s.deadline_lo, s.deadline_hi, v, 2));
      EXPECT_EQ(serial, RunOnGrid(s.seed, s.riders, s.vehicles, s.capacity,
                                  s.deadline_lo, s.deadline_hi, v, 8));
    }
  }
}

// The exactness contract for the evaluation path: the Euclidean bound
// (kernel screening and group filtering) and the (rider, vehicle, version)
// eval cache — individually and combined — give byte-identical solutions
// to the unbounded (euclid_speed = 0), uncached baseline at 1, 2 and 8
// threads, for every solver.
TEST(ParallelDifferentialTest, GridWorldsIdenticalAcrossEvalToggles) {
  const uint64_t seed = 11;
  const int riders = 60, vehicles = 12, capacity = 3;
  const Cost lo = 200, hi = 2000;
  const std::vector<EvalToggles> matrix = {
      {/*screening=*/false, /*cache=*/false},
      {/*screening=*/true, /*cache=*/false},
      {/*screening=*/false, /*cache=*/true},
      {/*screening=*/true, /*cache=*/true},
  };
  for (Variant v : AllVariants()) {
    SCOPED_TRACE(VariantName(v));
    const std::string baseline =
        RunOnGrid(seed, riders, vehicles, capacity, lo, hi, v, 1,
                  {/*screening=*/false, /*cache=*/false});
    ASSERT_FALSE(baseline.empty());
    for (size_t m = 0; m < matrix.size(); ++m) {
      for (int threads : {1, 2, 8}) {
        SCOPED_TRACE("toggles=" + std::to_string(m) +
                     " threads=" + std::to_string(threads));
        EXPECT_EQ(baseline, RunOnGrid(seed, riders, vehicles, capacity, lo, hi,
                                      v, threads, matrix[m]));
      }
    }
  }
}

// --- Cross-oracle differential on quantized costs. -------------------------

/// Builds the oracle a quantized-grid solve routes on.
using OracleFactory = std::unique_ptr<DistanceOracle> (*)(const RoadNetwork&);

std::unique_ptr<DistanceOracle> MakeDijkstra(const RoadNetwork& g) {
  return std::make_unique<DijkstraOracle>(g);
}

std::unique_ptr<DistanceOracle> MakeCh(const RoadNetwork& g) {
  auto ch = ChOracle::Create(g);
  EXPECT_TRUE(ch.ok()) << ch.status();
  return ch.ok() ? *std::move(ch) : nullptr;
}

std::unique_ptr<DistanceOracle> MakeHubLabels(const RoadNetwork& g) {
  auto hl = HubLabelOracle::Create(g);
  EXPECT_TRUE(hl.ok()) << hl.status();
  return hl.ok() ? *std::move(hl) : nullptr;
}

/// Solve on a quantized grid world under the oracle `make` builds.
/// Instance generation always uses the world's DijkstraOracle, so the
/// instance is byte-identical regardless of which oracle solves it.
std::string RunOnQuantizedGrid(uint64_t seed, int riders, int vehicles,
                               int capacity, Cost deadline_lo,
                               Cost deadline_hi, Variant v, OracleFactory make,
                               int threads) {
  auto w = MakeGridWorld(seed, riders, vehicles, capacity, deadline_lo,
                         deadline_hi, /*quantize=*/true);
  std::unique_ptr<DistanceOracle> oracle = make(w->network);
  if (oracle == nullptr) return "";
  SolverContext ctx;
  ctx.oracle = oracle.get();
  ctx.model = w->model.get();
  ctx.vehicle_index = w->index.get();
  ctx.rng = &w->rng;
  ctx.euclid_speed = w->network.MaxSpeed();
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads);
    AttachThreadPool(&ctx, pool.get());
    EXPECT_NE(ctx.eval_pool(), nullptr);
  }
  GbsOptions gbs;
  gbs.k = 3;
  gbs.d_max = 200;
  const UrrSolution sol = SolveVariant(w->instance, &ctx, gbs, v);
  EXPECT_TRUE(sol.Validate(w->instance).ok()) << VariantName(v);
  return Fingerprint(sol, *w->model);
}

// The exactness claim, end to end: with quantized edge costs the whole
// solver output — assignment, stops, utility and cost bits — under hub
// labels (production) and under the CH is identical to the Dijkstra
// reference, serial or parallel, at any thread count.
TEST(ParallelDifferentialTest, QuantizedGridsHubLabelsAndChMatchDijkstra) {
  struct Scenario {
    uint64_t seed;
    int riders, vehicles, capacity;
    Cost deadline_lo, deadline_hi;
  };
  const std::vector<Scenario> scenarios = {
      {11, 40, 8, 3, 200, 2000},
      {23, 35, 7, 2, 100, 800},
  };
  const std::vector<std::pair<const char*, OracleFactory>> contenders = {
      {"ch", &MakeCh}, {"hub labels", &MakeHubLabels}};
  for (const Scenario& s : scenarios) {
    for (Variant v : AllVariants()) {
      SCOPED_TRACE(std::string(VariantName(v)) + " seed=" +
                   std::to_string(s.seed));
      const std::string want =
          RunOnQuantizedGrid(s.seed, s.riders, s.vehicles, s.capacity,
                             s.deadline_lo, s.deadline_hi, v, &MakeDijkstra, 1);
      ASSERT_FALSE(want.empty());
      for (const auto& [name, make] : contenders) {
        SCOPED_TRACE(name);
        EXPECT_EQ(want, RunOnQuantizedGrid(s.seed, s.riders, s.vehicles,
                                           s.capacity, s.deadline_lo,
                                           s.deadline_hi, v, make, 1));
        EXPECT_EQ(want, RunOnQuantizedGrid(s.seed, s.riders, s.vehicles,
                                           s.capacity, s.deadline_lo,
                                           s.deadline_hi, v, make, 8));
      }
    }
  }
}

// --- Snapshot differential. ------------------------------------------------

// The .urrx encoding of a city-scale index is byte-identical whether the
// preprocessing ran serially or on 2 or 8 workers.
TEST(ParallelDifferentialTest, IndexSnapshotBytesIdenticalAcrossThreadCounts) {
  Rng rng(42);
  auto net = GenerateNycLike(800, &rng);
  ASSERT_TRUE(net.ok());
  auto bytes_with_threads = [&](int threads) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    ChOptions options;
    options.pool = pool.get();
    auto snap = BuildIndexSnapshot(*net, options);
    EXPECT_TRUE(snap.ok()) << snap.status();
    return SerializeIndexSnapshot(*snap);
  };
  const std::string serial = bytes_with_threads(1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(bytes_with_threads(2), serial);
  EXPECT_EQ(bytes_with_threads(8), serial);
}

// Full-pipeline differential for the snapshot load path: a harness world
// whose oracle comes from a loaded .urrx file must solve to the same
// bits as one that rebuilt the preprocessing from scratch, serial and
// parallel.
TEST(ParallelDifferentialTest, SnapshotLoadedWorldsIdenticalToFreshBuild) {
  for (const CityScenario& scenario : CityScenarios()) {
    // Build the snapshot for this scenario's network once.
    auto world_or = BuildWorld(scenario.cfg);
    ASSERT_TRUE(world_or.ok()) << world_or.status();
    auto snap = BuildIndexSnapshot((*world_or)->network);
    ASSERT_TRUE(snap.ok()) << snap.status();
    const std::string path = ::testing::TempDir() + "/" + scenario.name +
                             ".differential.urrx";
    ASSERT_TRUE(SaveIndexSnapshot(*snap, path).ok());

    ExperimentConfig loaded_cfg = scenario.cfg;
    loaded_cfg.index_snapshot = path;
    for (Variant v : {Variant::kEg, Variant::kGbsEgFilter}) {
      SCOPED_TRACE(std::string(scenario.name) + " / " + VariantName(v));
      const std::string fresh = RunOnWorld(scenario.cfg, v, 1);
      ASSERT_FALSE(fresh.empty());
      EXPECT_EQ(fresh, RunOnWorld(loaded_cfg, v, 1));
      EXPECT_EQ(fresh, RunOnWorld(loaded_cfg, v, 8));
    }
  }
}

// A snapshot of the wrong network must be rejected loudly, not silently
// produce distances for a different graph.
TEST(ParallelDifferentialTest, SnapshotForDifferentNetworkIsRejected) {
  Rng rng(5);
  auto other = GenerateNycLike(300, &rng);
  ASSERT_TRUE(other.ok());
  auto snap = BuildIndexSnapshot(*other);
  ASSERT_TRUE(snap.ok());
  const std::string path = ::testing::TempDir() + "/wrong-network.urrx";
  ASSERT_TRUE(SaveIndexSnapshot(*snap, path).ok());

  ExperimentConfig cfg = CityScenarios()[0].cfg;
  cfg.index_snapshot = path;
  auto world = BuildWorld(cfg);
  EXPECT_FALSE(world.ok());
}

// A pool whose oracle cannot clone must silently stay serial (and still be
// correct), never race on the shared oracle.
TEST(ParallelDifferentialTest, NonCloneableOracleStaysSerial) {
  struct Opaque : DistanceOracle {
    explicit Opaque(DistanceOracle* base) : base_(base) {}
    Cost Distance(NodeId u, NodeId v) override {
      ++num_calls_;
      return base_->Distance(u, v);
    }
    DistanceOracle* base_;
  };
  auto w = MakeGridWorld(5, 30, 6, 3, 200, 1500);
  Opaque opaque(w->oracle.get());
  SolverContext ctx;
  ctx.oracle = &opaque;
  ctx.model = w->model.get();
  ctx.vehicle_index = w->index.get();
  ctx.rng = &w->rng;
  ThreadPool pool(4);
  AttachThreadPool(&ctx, &pool);
  // The attach must refuse atomically: no pool, no partially filled
  // worker-oracle set left behind by the failed Clone().
  EXPECT_EQ(ctx.worker_set, nullptr);
  EXPECT_EQ(ctx.eval_pool(), nullptr);
  const UrrSolution sol = SolveEfficientGreedy(w->instance, &ctx);
  EXPECT_TRUE(sol.Validate(w->instance).ok());
  EXPECT_GT(opaque.num_calls(), 0);
}

}  // namespace
}  // namespace urr
