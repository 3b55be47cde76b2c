// Layer probes shared by the workloads: span recording, the timing oracle
// decorator, the set-up layer timings, the in-process server replay and
// the replay correctness check.
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <numeric>

#include "bench.h"
#include "common/binary_io.h"
#include "common/json_parser.h"
#include "common/json_writer.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "graph/generators.h"
#include "routing/index_snapshot.h"
#include "server/dispatch_service.h"
#include "server/journal.h"
#include "server/protocol.h"

namespace perfbench {

using urr::Result;
using urr::Status;

namespace {

using SteadyClock = std::chrono::steady_clock;

/// Small per-thread lane ids for the trace (thread ids are not portable).
uint64_t Lane() {
  static std::atomic<uint64_t> next{1};
  thread_local const uint64_t lane = next.fetch_add(1);
  return lane;
}

}  // namespace

double NowUs() {
  static const SteadyClock::time_point epoch = SteadyClock::now();
  return std::chrono::duration<double, std::micro>(SteadyClock::now() - epoch)
      .count();
}

void Tracer::Span(std::string_view name, std::string_view layer,
                  double start_us, double end_us) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back({std::string(name), std::string(layer), 'X', start_us,
                     end_us - start_us, Lane()});
}

void Tracer::Counter(std::string_view name, double value) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back({std::string(name), "counter", 'C', NowUs(), value, 0});
}

Status Tracer::Write(const std::string& path) const {
  urr::JsonWriter w;
  w.BeginObject().Key("traceEvents").BeginArray();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Event& e : events_) {
      w.BeginObject()
          .Field("name", e.name)
          .Field("cat", e.layer)
          .Field("ph", std::string(1, e.phase))
          .Field("ts", e.ts)
          .Field("pid", int64_t{1})
          .Field("tid", static_cast<int64_t>(e.tid));
      if (e.phase == 'X') {
        w.Field("dur", e.dur);
      } else {
        w.Key("args").BeginObject().Field("value", e.dur).EndObject();
      }
      w.EndObject();
    }
  }
  w.EndArray().Field("displayTimeUnit", "ms").EndObject();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  const std::string& text = w.str();
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != text.size() || !closed) {
    return Status::IOError("short write " + path);
  }
  return Status::OK();
}

double ScopedSpan::Stop() {
  if (stopped_) return 0;
  stopped_ = true;
  const double end = NowUs();
  if (tracer_ != nullptr) tracer_->Span(name_, layer_, start_, end);
  return (end - start_) * 1e-6;
}

OracleTally* TallySet::Add() {
  std::lock_guard<std::mutex> lock(mu_);
  tallies_.emplace_back();
  return &tallies_.back();
}

OracleTally TallySet::Sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  OracleTally s;
  for (const OracleTally& t : tallies_) {
    s.scalar += t.scalar;
    s.batch += t.batch;
    s.pairwise += t.pairwise;
    s.pairs += t.pairs;
    s.busy_ns += t.busy_ns;
  }
  return s;
}

TimedOracle::TimedOracle(urr::DistanceOracle* base,
                         std::shared_ptr<TallySet> tallies)
    : base_(base), tallies_(std::move(tallies)), tally_(tallies_->Add()) {}

TimedOracle::TimedOracle(std::unique_ptr<urr::DistanceOracle> owned,
                         std::shared_ptr<TallySet> tallies)
    : base_(owned.get()),
      owned_(std::move(owned)),
      tallies_(std::move(tallies)),
      tally_(tallies_->Add()) {}

namespace {

int64_t NanosSince(SteadyClock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now() - t0)
      .count();
}

}  // namespace

urr::Cost TimedOracle::Distance(urr::NodeId u, urr::NodeId v) {
  const auto t0 = SteadyClock::now();
  const urr::Cost d = base_->Distance(u, v);
  tally_->busy_ns += NanosSince(t0);
  ++tally_->scalar;
  ++tally_->pairs;
  return d;
}

void TimedOracle::BatchDistances(std::span<const urr::NodeId> sources,
                                 std::span<const urr::NodeId> targets,
                                 urr::Cost* out) {
  const auto t0 = SteadyClock::now();
  base_->BatchDistances(sources, targets, out);
  tally_->busy_ns += NanosSince(t0);
  ++tally_->batch;
  tally_->pairs += static_cast<int64_t>(sources.size() * targets.size());
}

void TimedOracle::BatchPairwise(std::span<const urr::NodeId> us,
                                std::span<const urr::NodeId> vs,
                                urr::Cost* out) {
  const auto t0 = SteadyClock::now();
  base_->BatchPairwise(us, vs, out);
  tally_->busy_ns += NanosSince(t0);
  ++tally_->pairwise;
  tally_->pairs += static_cast<int64_t>(us.size());
}

std::unique_ptr<urr::DistanceOracle> TimedOracle::Clone() const {
  std::unique_ptr<urr::DistanceOracle> clone = base_->Clone();
  if (clone == nullptr) return nullptr;
  return std::unique_ptr<urr::DistanceOracle>(
      new TimedOracle(std::move(clone), tallies_));
}

urr::ExperimentConfig CityConfig(int nodes, int riders, int vehicles,
                                 uint64_t seed, int threads) {
  urr::ExperimentConfig cfg;
  cfg.city = urr::CityKind::kNycLike;
  cfg.city_nodes = nodes;
  cfg.num_social_users = std::max(500, nodes / 2);
  cfg.num_trip_records = std::max(2000, riders * 3);
  cfg.num_riders = riders;
  cfg.num_vehicles = vehicles;
  cfg.seed = seed;
  cfg.num_threads = threads;
  return cfg;
}

double Pct(std::vector<double> values, double p) {
  return urr::Percentile(std::move(values), p);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

uint64_t Fnv(std::string_view bytes) {
  return urr::Fnv1a64(bytes.data(), bytes.size());
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double SelfPeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double SelfCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return seconds(ru.ru_utime) + seconds(ru.ru_stime);
}

int64_t FileBytes(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<int64_t>(st.st_size);
}

Status SetupLayers(const urr::ExperimentConfig& cfg,
                   const std::string& snapshot_path, Report* layers,
                   Tracer* tracer) {
  // BuildWorld seeds its Rng with cfg.seed and draws the network first, so
  // this is the network every world of this config routes on.
  urr::Rng rng(cfg.seed);
  ScopedSpan gen(tracer, "graph.generate", "graph");
  URR_ASSIGN_OR_RETURN(urr::RoadNetwork network,
                       urr::GenerateNycLike(cfg.city_nodes, &rng));
  const double generate_s = gen.Stop();

  urr::ThreadPool pool(cfg.num_threads);
  urr::ChOptions options;
  options.pool = cfg.num_threads > 1 ? &pool : nullptr;
  ScopedSpan contract(tracer, "routing.ch_contract", "routing");
  URR_ASSIGN_OR_RETURN(urr::ContractionHierarchy ch,
                       urr::ContractionHierarchy::Build(network, options));
  const double contract_s = contract.Stop();
  const int64_t upward_edges = ch.num_upward_edges();

  ScopedSpan extract(tracer, "routing.hl_extract", "routing");
  URR_ASSIGN_OR_RETURN(urr::HubLabels labels,
                       urr::HubLabels::Build(ch, options.pool));
  const double extract_s = extract.Stop();
  const double label_avg = labels.average_label_size();

  {
    urr::IndexSnapshot snapshot;
    snapshot.network = std::move(network);
    snapshot.ch = std::move(ch);
    snapshot.hub_labels = std::move(labels);
    URR_RETURN_NOT_OK(urr::SaveIndexSnapshot(snapshot, snapshot_path));
  }

  double load_s = 0;
  {
    ScopedSpan load(tracer, "routing.snapshot_load", "routing");
    URR_ASSIGN_OR_RETURN(urr::IndexSnapshot loaded,
                         urr::LoadIndexSnapshot(snapshot_path));
    load_s = load.Stop();
  }
  urr::ExperimentConfig from_snapshot = cfg;
  from_snapshot.index_snapshot = snapshot_path;
  ScopedSpan build(tracer, "exp.build_world_from_snapshot", "exp");
  URR_ASSIGN_OR_RETURN(std::unique_ptr<urr::ExperimentWorld> world,
                       urr::BuildWorld(from_snapshot));
  const double world_s = build.Stop();

  layers->Set("graph.generate_s", generate_s, "s");
  layers->Set("routing.ch_contract_s", contract_s, "s");
  layers->Set("routing.hl_extract_s", extract_s, "s");
  layers->Set("routing.snapshot_load_s", load_s, "s");
  // BuildWorld from a snapshot = generate + load + social, trips, instance
  // and indexes; the last part is the exp layer's own share.
  layers->Set("exp.world_build_s",
              std::max(0.0, world_s - generate_s - load_s), "s");
  layers->Set("routing.ch_upward_edges", static_cast<double>(upward_edges),
              "count");
  layers->Set("routing.hl_label_avg", label_avg, "entries");
  return Status::OK();
}

void ReportEngineLayers(const urr::EngineMetrics& m, double dispatch_seconds,
                        Report* report) {
  report->Set("spatial.retrieval_s", m.retrieval_seconds, "s");
  report->Set("spatial.retrievals", static_cast<double>(m.retrieval_riders),
              "count");
  report->Set("spatial.candidates_per_rider", m.retrieval_mean_candidates,
              "count");
  report->Set("sched.kernel_evals", static_cast<double>(m.kernel_evals),
              "count");
  const int64_t lookups = m.eval_cache_hits + m.eval_cache_misses;
  report->Set("urr.eval_cache_lookups", static_cast<double>(lookups), "count");
  report->Set("urr.eval_cache_hit_ratio",
              lookups > 0 ? static_cast<double>(m.eval_cache_hits) /
                                static_cast<double>(lookups)
                          : 0.0,
              "ratio");
  report->Set("urr.screened_pairs", static_cast<double>(m.screened_pairs),
              "count");
  report->Set("urr.elided_queries", static_cast<double>(m.elided_queries),
              "count");
  const double solve_s = std::accumulate(m.solve_latencies.begin(),
                                         m.solve_latencies.end(), 0.0);
  report->Set("engine.solve_s", solve_s, "s");
  report->Set("engine.loop_s", std::max(0.0, dispatch_seconds - solve_s), "s");
  report->Set("engine.windows", static_cast<double>(m.windows.size()),
              "count");
  std::vector<double> depths;
  depths.reserve(m.windows.size());
  for (const urr::WindowMetrics& w : m.windows) depths.push_back(w.queue_depth);
  report->Set("engine.queue_depth_p95", Pct(depths, 95), "riders");
}

void ReportCheckpoint(const urr::DispatchEngine& engine, Report* report,
                      Tracer* tracer) {
  ScopedSpan span(tracer, "engine.checkpoint", "engine");
  const std::string checkpoint = engine.Checkpoint();
  const double seconds = span.Stop();
  report->Set("engine.checkpoint_bytes", static_cast<double>(checkpoint.size()),
              "bytes");
  report->Set("engine.checkpoint_ms", seconds * 1e3, "ms");
}

void ReportRoutingLayers(const OracleTally& t, const urr::EngineMetrics& base,
                         Report* report) {
  report->Set("routing.oracle_calls_scalar", static_cast<double>(t.scalar),
              "count");
  report->Set("routing.oracle_calls_batch", static_cast<double>(t.batch),
              "count");
  report->Set("routing.oracle_calls_pairwise", static_cast<double>(t.pairwise),
              "count");
  report->Set("routing.oracle_pairs", static_cast<double>(t.pairs), "count");
  report->Set("routing.oracle_busy_s", static_cast<double>(t.busy_ns) * 1e-9,
              "s");
  const int64_t lookups = base.oracle_hits + base.oracle_misses;
  report->Set("routing.cache_lookups", static_cast<double>(lookups), "count");
  report->Set("routing.cache_hit_ratio",
              lookups > 0 ? static_cast<double>(base.oracle_hits) /
                                static_cast<double>(lookups)
                          : 0.0,
              "ratio");
}

Result<std::string> ProbeServerLayers(
    const urr::StreamingWorkload& workload, urr::SolverContext* ctx,
    const urr::EngineConfig& ecfg, const std::vector<std::string>& payloads,
    const std::string& dir, Report* report, Tracer* tracer) {
  ::mkdir(dir.c_str(), 0755);
  urr::ServiceConfig scfg;
  scfg.virtual_clock = true;
  scfg.journal_dir = dir + "/journal";
  urr::DispatchService service(&workload, ctx, ecfg, scfg,
                               /*admission=*/nullptr);
  URR_RETURN_NOT_OK(service.Start());
  std::vector<double> parse_us;
  std::vector<double> handle_us;
  parse_us.reserve(payloads.size());
  handle_us.reserve(payloads.size());
  for (const std::string& payload : payloads) {
    const double p0 = NowUs();
    Result<urr::Request> request = urr::ParseRequest(payload);
    parse_us.push_back(NowUs() - p0);
    URR_RETURN_NOT_OK(request.status());
    const double h0 = NowUs();
    const std::string response = service.Handle(payload);
    const double h1 = NowUs();
    handle_us.push_back(h1 - h0);
    if (tracer != nullptr) tracer->Span("server.handle", "server", h0, h1);
    URR_ASSIGN_OR_RETURN(urr::JsonValue parsed, urr::ParseJson(response));
    const int64_t code = parsed.GetInt("code", 0);
    if (code != 200 && code != 429) {
      return Status::Internal("in-process replay answered " +
                              std::to_string(code) + ": " + response);
    }
  }
  URR_RETURN_NOT_OK(service.Finish());

  // RequestJournal::Append (with fdatasync) of the very records the service
  // journaled, into a fresh file.
  const std::string journal = scfg.journal_dir + "/journal.wal";
  URR_ASSIGN_OR_RETURN(urr::JournalScan scan, urr::ScanJournal(journal));
  URR_ASSIGN_OR_RETURN(urr::RequestJournal sink,
                       urr::RequestJournal::Open(dir + "/append.wal",
                                                 /*fsync=*/true));
  std::vector<double> append_us;
  append_us.reserve(scan.payloads.size());
  for (const std::string& record : scan.payloads) {
    const double a0 = NowUs();
    URR_RETURN_NOT_OK(sink.Append(record));
    append_us.push_back(NowUs() - a0);
  }
  URR_ASSIGN_OR_RETURN(auto checkpoints,
                       urr::ListServiceCheckpoints(scfg.journal_dir));
  report->Set("server.parse_us", Median(parse_us), "us");
  report->Set("server.handle_p50_us", Pct(handle_us, 50), "us");
  report->Set("server.handle_p99_us", Pct(handle_us, 99), "us");
  report->Set("server.journal_append_us", Median(append_us), "us");
  report->Set("server.journal_mb",
              static_cast<double>(FileBytes(journal)) / (1024.0 * 1024.0),
              "MiB");
  report->Set("server.checkpoint_bytes_last",
              checkpoints.empty()
                  ? 0.0
                  : static_cast<double>(FileBytes(checkpoints.front().second)),
              "bytes");
  return service.SerializedLog();
}

namespace {

/// 1-based line of the first difference between two event logs.
size_t FirstDivergingLine(const std::string& a, const std::string& b) {
  size_t line = 1;
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return line;
    if (a[i] == '\n') ++line;
  }
  return line;
}

}  // namespace

Result<double> CheckReplay(const urr::StreamingWorkload& original,
                           const std::string& log_text,
                           const std::string& fingerprint, double booked,
                           urr::SolverContext* ctx, urr::EngineConfig ecfg) {
  URR_ASSIGN_OR_RETURN(std::vector<urr::Event> log,
                       urr::ParseEventLog(log_text));
  URR_ASSIGN_OR_RETURN(urr::StreamingWorkload replayed,
                       urr::WorkloadFromLog(original, log));
  ecfg.validate_invariants = true;
  urr::Stopwatch watch;
  urr::DispatchEngine engine(&replayed, ctx, ecfg);
  URR_RETURN_NOT_OK(engine.Run());
  const double seconds = watch.ElapsedSeconds();
  const std::string replay_log = engine.SerializedLog();
  if (replay_log != log_text) {
    return Status::Internal(
        "replay log diverges at line " +
        std::to_string(FirstDivergingLine(replay_log, log_text)));
  }
  if (engine.SolutionFingerprint() != fingerprint) {
    return Status::Internal("replay SolutionFingerprint differs");
  }
  if (engine.booked_utility() != booked) {
    return Status::Internal("replay booked utility differs");
  }
  return seconds;
}

}  // namespace perfbench
