// Shared pieces of the benchmark driver: run options, the report a run
// fills, in-memory span recording (written once as Chrome trace-event
// JSON), the timing decorator over DistanceOracle and the layer probes the
// stream workloads use. Everything here calls the program's public
// headers only; nothing is instrumented inside src/.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "exp/harness.h"
#include "routing/distance_oracle.h"

namespace perfbench {

/// Seed of the city, fleet and rider pool every workload runs on. The run's
/// --seed draws the demand instead (arrival process, request schedule and
/// which riders it uses), so runs differ in input while the variance
/// between generated cities stays out of the run-to-run spread.
inline constexpr uint64_t kWorldSeed = 42;

struct RunOptions {
  std::string workload;
  uint64_t seed = 42;
  bool trace = false;
  std::string tmp_dir;  // snapshots and journals of this run
};

/// What one run reports. Every metric carries its unit; run.py keeps the
/// end-to-end or the per-layer names BENCHMARK.json lists.
struct Report {
  std::vector<std::string> failures;  // empty = every correctness check held
  int64_t attempted = 0;              // arrivals and cancels dispatched
  int64_t failed = 0;                 // of those, failed operations
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::string digest;  // FNV-1a of the event log, for cross-run comparison
  std::vector<std::string> notes;  // human-readable extras (stdout)

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Fail(const std::string& why) { failures.push_back(why); }
  void Note(const std::string& line) { notes.push_back(line); }
};

/// Microseconds on the steady clock since the first call (the trace epoch).
double NowUs();

/// Spans kept in memory and written once, at the end, as Chrome trace-event
/// JSON (chrome://tracing, Perfetto). A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  /// One complete span on the calling thread's lane; `layer` is the module.
  void Span(std::string_view name, std::string_view layer, double start_us,
            double end_us);
  /// A counter sample at the current time (oracle totals and the like).
  void Counter(std::string_view name, double value);
  urr::Status Write(const std::string& path) const;

 private:
  struct Event {
    std::string name;
    std::string layer;
    char phase = 'X';
    double ts = 0;
    double dur = 0;
    uint64_t tid = 0;
  };
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Event> events_;  // guarded by mu_
};

/// Records a span from construction to destruction (or Stop()).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name, std::string_view layer)
      : tracer_(tracer), name_(name), layer_(layer), start_(NowUs()) {}
  ~ScopedSpan() { Stop(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  /// Ends the span and returns its length in seconds (0 after the first).
  double Stop();

 private:
  Tracer* tracer_;
  std::string name_;
  std::string layer_;
  double start_;
  bool stopped_ = false;
};

/// Call counts and busy time of one TimedOracle. Each instance is written
/// by one thread only; totals are read after the dispatch finished.
struct OracleTally {
  int64_t scalar = 0;
  int64_t batch = 0;
  int64_t pairwise = 0;
  int64_t pairs = 0;
  int64_t busy_ns = 0;
};

/// Owns the tallies of a TimedOracle and all of its clones (stable
/// addresses, so clones can outlive nothing they point to).
class TallySet {
 public:
  OracleTally* Add();
  OracleTally Sum() const;

 private:
  mutable std::mutex mu_;
  std::deque<OracleTally> tallies_;  // guarded by mu_
};

/// Timing decorator over DistanceOracle: forwards every call and counts
/// calls, pairs and the time spent inside them. Clone() clones the wrapped
/// oracle behind a new decorator, so the worker clones the thread pool
/// uses are timed too.
class TimedOracle final : public urr::DistanceOracle {
 public:
  /// Borrows `base`, which must outlive this oracle.
  TimedOracle(urr::DistanceOracle* base, std::shared_ptr<TallySet> tallies);

  urr::Cost Distance(urr::NodeId u, urr::NodeId v) override;
  void BatchDistances(std::span<const urr::NodeId> sources,
                      std::span<const urr::NodeId> targets,
                      urr::Cost* out) override;
  void BatchPairwise(std::span<const urr::NodeId> us,
                     std::span<const urr::NodeId> vs,
                     urr::Cost* out) override;
  bool SupportsBatch() const override { return base_->SupportsBatch(); }
  std::unique_ptr<urr::DistanceOracle> Clone() const override;

 private:
  TimedOracle(std::unique_ptr<urr::DistanceOracle> owned,
              std::shared_ptr<TallySet> tallies);

  urr::DistanceOracle* base_;
  std::unique_ptr<urr::DistanceOracle> owned_;  // set only for clones
  std::shared_ptr<TallySet> tallies_;
  OracleTally* tally_;
};

/// The world a CLI run with these flags builds (urr_engine maps its flags
/// the same way). Oracle, retrieval and evaluation knobs
/// stay at the program's defaults.
urr::ExperimentConfig CityConfig(int nodes, int riders, int vehicles,
                                 uint64_t seed, int threads);

/// Nearest-rank percentile (0 for no samples) and median.
double Pct(std::vector<double> values, double p);
double Median(std::vector<double> values);

uint64_t Fnv(std::string_view bytes);
std::string Hex(uint64_t v);
/// Peak resident set of this process, MiB.
double SelfPeakRssMb();
/// User + system CPU seconds of this process so far (all threads).
double SelfCpuSeconds();
/// Size of `path` in bytes, 0 when missing.
int64_t FileBytes(const std::string& path);

/// Times the set-up layers of `cfg`'s world one call at a time and reports
/// them: network generation, CH contraction and hub-label extraction
/// (saved as a .urrx snapshot at `snapshot_path`), a snapshot load, and
/// BuildWorld from the snapshot, whose remainder is exp.world_build_s.
urr::Status SetupLayers(const urr::ExperimentConfig& cfg,
                        const std::string& snapshot_path, Report* layers,
                        Tracer* tracer);

/// Engine, spatial and eval-path layers from a finished engine.
void ReportEngineLayers(const urr::EngineMetrics& m, double dispatch_seconds,
                        Report* report);
/// One Checkpoint() of the final state: size and time.
void ReportCheckpoint(const urr::DispatchEngine& engine, Report* report,
                      Tracer* tracer);
/// Routing layers from a traced dispatch's tallies plus the shared cache
/// counters of the untraced run (the decorator hides the cache from the
/// engine's own accounting).
void ReportRoutingLayers(const OracleTally& t, const urr::EngineMetrics& base,
                         Report* report);

/// Replays `payloads` (framed-protocol requests carrying their `time`)
/// through an in-process DispatchService with a virtual clock and an
/// fsync'd journal under `dir`: server.parse_us, server.handle_p50_us,
/// server.handle_p99_us, server.journal_append_us (RequestJournal::Append
/// of the journaled records), server.journal_mb and
/// server.checkpoint_bytes_last. Returns the service's final event log.
urr::Result<std::string> ProbeServerLayers(
    const urr::StreamingWorkload& workload, urr::SolverContext* ctx,
    const urr::EngineConfig& ecfg, const std::vector<std::string>& payloads,
    const std::string& dir, Report* report, Tracer* tracer);

/// Correctness check outside the timed runs: rebuilds the input from `log`
/// with WorkloadFromLog, runs a fresh batch engine with validate_invariants
/// and requires the identical log bytes, SolutionFingerprint and booked
/// utility. Returns the replay's wall seconds.
urr::Result<double> CheckReplay(const urr::StreamingWorkload& original,
                                const std::string& log_text,
                                const std::string& fingerprint, double booked,
                                urr::SolverContext* ctx,
                                urr::EngineConfig ecfg);

Report RunStream(const RunOptions& options, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
