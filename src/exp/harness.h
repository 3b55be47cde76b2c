// Experiment harness: builds the full world the paper's experiments run in
// (city network, geo-social substrate, trip records, Poisson demand model,
// URR instance) and runs each approach with the paper's measurements
// (overall utility + running time).
#ifndef URR_EXP_HARNESS_H_
#define URR_EXP_HARNESS_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "routing/distance_oracle.h"
#include "routing/hub_labels.h"
#include "social/checkins.h"
#include "social/generators.h"
#include "social/history_similarity.h"
#include "spatial/vehicle_index.h"
#include "trips/instance_builder.h"
#include "urr/gbs.h"
#include "urr/solution.h"

namespace urr {

/// Which city-like network preset to generate. kGrid matches the network
/// `urr_index build --city grid` produces for the same seed/width/height/
/// quantize, so .urrx snapshots (including the checked-in golden fixture)
/// can cold-start a full experiment world.
enum class CityKind { kNycLike, kChicagoLike, kGrid };

/// One experiment's configuration; defaults mirror Table 3's bold values,
/// scaled by BenchScale() at the bench call sites.
struct ExperimentConfig {
  CityKind city = CityKind::kNycLike;
  NodeId city_nodes = 10000;
  int grid_width = 12;            // kGrid only
  int grid_height = 10;
  /// When > 0, snap every edge cost to a multiple of this value after
  /// generation (exact doubles, so path sums are exact — same rule as
  /// `urr_index build --quantize`).
  double quantize = 0;
  int num_social_users = 2000;
  int num_trip_records = 8000;

  int num_riders = 1000;          // m (already scaled by the caller)
  int num_vehicles = 200;         // n
  double rt_min_minutes = 10;     // pickup deadline range
  double rt_max_minutes = 30;
  int capacity = 3;               // a_j
  double alpha = 0.33;            // balancing parameters
  double beta = 0.33;
  double epsilon = 1.5;           // flexible factor
  double frame_minutes = 30;      // δ_j
  bool synthetic = true;          // Poisson-mined pipeline vs records directly
  uint64_t seed = 42;

  /// Evaluation threads for the solvers (candidate retrieval and
  /// evaluation). 0 = take URR_THREADS from the environment; 1 = serial.
  /// Results are bit-identical for every value. The same pool also
  /// parallelizes the CH contraction and hub-label extraction during
  /// BuildWorld.
  int num_threads = 0;

  /// Path to a .urrx index snapshot. When set, the hub labels are loaded
  /// from it instead of rebuilt (the snapshot must match the generated
  /// network exactly); queries are bitwise identical to a fresh build.
  /// Empty = always build.
  std::string index_snapshot;

  GbsOptions gbs;                 // k / d_max / auto_k for GBS runs
};

/// Everything one experiment needs, with stable addresses (heap-allocate).
struct ExperimentWorld {
  RoadNetwork network;
  SocialGraph social;
  std::unique_ptr<CheckInMap> checkins;
  std::unique_ptr<LocationHistorySimilarity> history;
  /// The distance oracle every solver, the instance builder and the
  /// simulation route on (hub labels, exact).
  std::unique_ptr<HubLabelOracle> oracle;
  TripRecords records;
  UrrInstance instance;
  UtilityModel model{nullptr, {}};  // re-pointed in BuildWorld
  std::unique_ptr<VehicleIndex> vehicle_index;
  /// Counters the contexts from Context() record candidate retrieval into.
  RetrievalStats retrieval_stats;
  Rng rng{42};
  ExperimentConfig config;
  /// Cached RoadNetwork::MaxSpeed() for Euclidean lower bounds.
  double max_speed = 0;
  /// Cached GBS road-network preprocessing (lazy; keyed by k and d_max).
  std::unique_ptr<GbsPreprocess> gbs_pre;
  /// Evaluation pool (null when config.num_threads resolves to 1) plus the
  /// per-worker oracle set it hands to solver contexts (shared ownership:
  /// contexts copied out of Context() keep the clones alive).
  std::unique_ptr<ThreadPool> pool;
  std::shared_ptr<WorkerOracleSet> worker_set;
  /// Whole-file FNV-1a checksum of config.index_snapshot when one was
  /// loaded (0 otherwise); engine checkpoints record it as provenance.
  uint64_t index_checksum = 0;

  /// Solver context wired to this world's members.
  SolverContext Context();

  /// Returns (building on first use) the GBS preprocessing for the current
  /// config.gbs options. Preprocessing time is not charged to solve time,
  /// matching the paper's accounting (Sec 6.2).
  Result<const GbsPreprocess*> GbsPreprocessing();
};

/// Builds a world. Heap-allocated so borrowed pointers stay valid.
Result<std::unique_ptr<ExperimentWorld>> BuildWorld(
    const ExperimentConfig& config);

/// Approaches under test (§7.1.3).
enum class Approach { kCostFirst, kEfficientGreedy, kBilateral, kGbsEg, kGbsBa };

/// Printable name ("CF", "EG", "BA", "GBS+EG", "GBS+BA").
std::string ApproachName(Approach approach);

/// All five approaches in the paper's reporting order.
const std::vector<Approach>& AllApproaches();

/// One approach's measured outcome.
struct ApproachResult {
  std::string name;
  double utility = 0;      // Σ μ(r_i, c_{r_i})
  double seconds = 0;      // wall-clock solve time
  int assigned = 0;        // riders served
  double travel_cost = 0;  // Σ cost(S_j)
};

/// Runs one approach on the world's instance (validates the solution).
Result<ApproachResult> RunApproach(ExperimentWorld* world, Approach approach);

}  // namespace urr

#endif  // URR_EXP_HARNESS_H_
