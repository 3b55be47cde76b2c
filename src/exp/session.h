// The "world -> workload -> engine" recipe of the streaming CLI tools
// (urr_engine, urr_server). SessionOptions is the one flag table for the
// shared world, workload, fault and engine options; BuildSession runs the
// steps in one fixed order, so the same flags consume the same random
// numbers and yield the same workload — which is what lets a virtual-clock
// urr_server replay reproduce urr_engine's event log byte for byte.
#ifndef URR_EXP_SESSION_H_
#define URR_EXP_SESSION_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/flags.h"
#include "engine/engine.h"
#include "exp/harness.h"

namespace urr {

struct SessionOptions {
  // World.
  std::string city = "nyc";  // nyc | chicago | grid
  int nodes = 4000;
  int grid_width = 12;       // --city grid only
  int grid_height = 10;
  double quantize = 0;       // snap edge costs to multiples of this
  int riders = 300;
  int vehicles = 60;
  int capacity = 3;
  double deadline_min_minutes = 10;
  double deadline_max_minutes = 30;
  std::string index_path;    // load the hub labels from this .urrx
  uint64_t seed = 42;
  int threads = 0;           // 0 = URR_THREADS env
  // Streaming workload.
  double arrival_rate = 0.5;   // riders per second
  double cancel_fraction = 0;  // share of riders that request cancellation
  double cancel_delay = 60;    // mean seconds from arrival to the request
  // Fault injection (seeded, replayable; all zero = no faults).
  double breakdown_fraction = 0;
  double no_show_fraction = 0;
  int edge_faults = 0;
  double closure_fraction = 0.5;
  double slowdown_factor = 4.0;
  double fault_duration = 300;
  uint64_t fault_seed = 0;     // 0 = derived from seed
  // Engine.
  double window = 30;          // micro-batch window W (s); 0 = per arrival
  std::string solver = "eg";   // cf | eg | ba | gbs-eg | gbs-ba
  int max_queue = 0;           // admission control; 0 = unbounded
  int max_redispatch = 3;
  double redispatch_backoff = 30;
  bool validate_invariants = false;

  /// Registers the shared flags on `flags`, one usage section per group.
  void Register(FlagSet* flags);
};

/// One engine run's inputs, heap-owned so the pointers between them (the
/// model borrows the workload's instance, the context borrows the world and
/// the model, the engine config the world's GBS preprocessing) stay valid.
struct Session {
  std::unique_ptr<ExperimentWorld> world;
  StreamingWorkload workload;
  UtilityModel model{nullptr, {}};  // over workload.instance
  SolverContext ctx;                // world->Context() with `model`
  EngineConfig engine;
};

/// Checks the options (solver and city names; window and arrival rate
/// >= 0), then builds the world, the streaming workload on the world's Rng,
/// the fault plan on its own seed, the utility model, the solver context
/// and the engine config (with GBS preprocessing for the GBS solvers).
Result<std::unique_ptr<Session>> BuildSession(const SessionOptions& options);

}  // namespace urr

#endif  // URR_EXP_SESSION_H_
