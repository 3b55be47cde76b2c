// urr_engine: command-line streaming dispatcher. Builds a city-scale world
// (network, geo-social substrate, instance), streams its riders through the
// discrete-event DispatchEngine with micro-batch windows, and prints the
// run's engine metrics — as a table or as machine-readable JSON. The event
// log can be dumped, and --verify-replay re-runs the logged input through a
// fresh engine and checks the log and final fleet state reproduce exactly.
//
// Examples:
//   urr_engine --city nyc --nodes 6000 --riders 500 --vehicles 100
//              --window 30 --solver eg --arrival-rate 0.5
//   urr_engine --window 0 --solver eg --json
//   urr_engine --cancel-fraction 0.1 --log events.log --verify-replay
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/table.h"
#include "exp/session.h"
#include "urr/metrics.h"

namespace urr {
namespace {

struct Options {
  SessionOptions session;
  bool json = false;             // machine-readable EngineMetrics
  bool windows = false;          // include the per-window array in the JSON
  std::string log_path;          // dump the event log here
  std::string expect_log_path;   // compare the run's log against this file
  bool verify_replay = false;    // replay the log and compare
  int checkpoint_every = 0;      // windows between checkpoints; 0 = off
  std::string checkpoint_file;   // write checkpoints to FILE.<k>
  std::string restore_path;      // resume the run from this checkpoint
  bool verify_restore = false;   // re-run from every checkpoint + compare

  void Register(FlagSet* flags) {
    FlagSet& f = *flags;
    session.Register(flags);
    f.Section("output:");
    f.Flag("--json", &json, "print EngineMetrics as one JSON object");
    f.Flag("--windows", &windows, "include the per-window array in that JSON");
    f.Flag("--log", "FILE", &log_path, "write the deterministic event log");
    f.Flag("--expect-log", "FILE", &expect_log_path,
           "require the run's log to match FILE byte for byte");
    f.Flag("--verify-replay", &verify_replay,
           "re-run a fresh engine on the input rebuilt from the\n"
           "log; require the same log and fleet state");
    f.Section("checkpoint/restore:");
    f.Flag("--checkpoint-every", "N", &checkpoint_every,
           "snapshot the live state every N window boundaries");
    f.Flag("--checkpoint-file", "FILE", &checkpoint_file,
           "write each snapshot to FILE.<k>");
    f.Flag("--restore", "FILE", &restore_path, "resume a run from a snapshot");
    f.Flag("--verify-restore", &verify_restore,
           "re-run from every snapshot taken; require the same\n"
           "log and fleet state");
  }
};

/// Byte-compares two serialized event logs; on divergence prints the first
/// differing event (line) of each and returns Internal.
Status CompareLogs(const std::string& want, const std::string& got,
                   const std::string& what) {
  if (want == got) return Status::OK();
  size_t line = 1;
  size_t wi = 0;
  size_t gi = 0;
  while (wi < want.size() || gi < got.size()) {
    const size_t we = std::min(want.find('\n', wi), want.size());
    const size_t ge = std::min(got.find('\n', gi), got.size());
    const std::string wline = want.substr(wi, we - wi);
    const std::string gline = got.substr(gi, ge - gi);
    if (wline != gline) {
      std::fprintf(stderr,
                   "%s diverged at event %zu:\n  expected: %s\n  got:      %s\n",
                   what.c_str(), line,
                   wline.empty() ? "<end of log>" : wline.c_str(),
                   gline.empty() ? "<end of log>" : gline.c_str());
      return Status::Internal(what + " diverged at event " +
                              std::to_string(line));
    }
    wi = we + 1;
    gi = ge + 1;
    ++line;
  }
  return Status::Internal(what + " diverged");
}

Status Run(const Options& opt) {
  URR_ASSIGN_OR_RETURN(std::unique_ptr<Session> session,
                       BuildSession(opt.session));
  const StreamingWorkload& workload = session->workload;
  SolverContext& ctx = session->ctx;
  EngineConfig& ecfg = session->engine;
  ecfg.checkpoint_every = opt.checkpoint_every;

  DispatchEngine engine(&workload, &ctx, ecfg);
  if (!opt.restore_path.empty()) {
    URR_ASSIGN_OR_RETURN(std::string snapshot, ReadFile(opt.restore_path));
    URR_RETURN_NOT_OK(engine.Restore(snapshot));
    std::printf("restored from %s\n", opt.restore_path.c_str());
  }
  URR_RETURN_NOT_OK(engine.Run());
  const EngineMetrics& m = engine.metrics();

  if (opt.json) {
    std::printf("%s\n", EngineMetricsJson(m, opt.windows).c_str());
  } else {
    TablePrinter summary({"solver", "window (s)", "arrived", "accepted",
                          "rejected", "expired", "cancelled", "booked utility",
                          "wait p95 (s)", "solve p95 (s)"});
    summary.AddRow({WindowSolverName(ecfg.solver),
                    TablePrinter::Num(ecfg.window, 0),
                    std::to_string(m.total_arrivals),
                    std::to_string(m.total_accepted),
                    std::to_string(m.total_rejected),
                    std::to_string(m.total_expired),
                    std::to_string(m.total_cancelled),
                    TablePrinter::Num(m.booked_utility, 3),
                    TablePrinter::Num(Percentile(m.pickup_waits, 95), 1),
                    TablePrinter::Num(Percentile(m.solve_latencies, 95), 4)});
    summary.Print();
    std::printf(
        "%d windows, %d picked up / %d dropped off, %.0f cost driven\n",
        static_cast<int>(m.windows.size()), m.total_picked_up,
        m.total_dropped_off, m.driven_cost);
    std::printf(
        "eval path: %lld kernel evals, cache %lld/%lld hit/miss, "
        "%lld pairs screened (%lld queries elided)\n",
        static_cast<long long>(m.kernel_evals),
        static_cast<long long>(m.eval_cache_hits),
        static_cast<long long>(m.eval_cache_misses),
        static_cast<long long>(m.screened_pairs),
        static_cast<long long>(m.elided_queries));
    if (m.total_breakdowns + m.total_no_shows + m.total_edge_disruptions >
        0) {
      std::printf(
          "faults: %d breakdowns, %d no-shows, %d/%d edge disruptions/"
          "restores; %d re-dispatched, %d abandoned, %d deadlines relaxed\n",
          m.total_breakdowns, m.total_no_shows, m.total_edge_disruptions,
          m.total_edge_restores, m.total_redispatched, m.total_abandoned,
          m.total_deadline_relaxed);
      std::printf(
          "overlay: %lld queries while disrupted, %lld settled by Euclid "
          "bounds, %lld exact fallbacks\n",
          static_cast<long long>(m.overlay_queries),
          static_cast<long long>(m.overlay_euclid_screened),
          static_cast<long long>(m.overlay_fallbacks));
    }
  }

  if (!opt.log_path.empty()) {
    URR_RETURN_NOT_OK(WriteFile(opt.log_path, engine.SerializedLog()));
    std::printf("event log (%zu events) written to %s\n",
                engine.event_log().size(), opt.log_path.c_str());
  }
  if (!opt.checkpoint_file.empty()) {
    for (size_t k = 0; k < engine.checkpoints().size(); ++k) {
      const std::string path =
          opt.checkpoint_file + "." + std::to_string(k);
      URR_RETURN_NOT_OK(WriteFile(path, engine.checkpoints()[k].second));
      std::printf("checkpoint at t=%.0f written to %s\n",
                  engine.checkpoints()[k].first, path.c_str());
    }
  }

  if (!opt.expect_log_path.empty()) {
    URR_ASSIGN_OR_RETURN(std::string expected, ReadFile(opt.expect_log_path));
    URR_RETURN_NOT_OK(CompareLogs(expected, engine.SerializedLog(),
                                  "log vs " + opt.expect_log_path));
    std::printf("log matches %s\n", opt.expect_log_path.c_str());
  }

  if (opt.verify_replay) {
    URR_ASSIGN_OR_RETURN(StreamingWorkload replayed,
                         WorkloadFromLog(workload, engine.event_log()));
    DispatchEngine second(&replayed, &ctx, ecfg);
    URR_RETURN_NOT_OK(second.Run());
    URR_RETURN_NOT_OK(
        CompareLogs(engine.SerializedLog(), second.SerializedLog(), "replay"));
    if (second.SolutionFingerprint() != engine.SolutionFingerprint()) {
      return Status::Internal("replay diverged: final fleet state differs");
    }
    std::printf("replay verified: %zu events and final fleet state match\n",
                engine.event_log().size());
  }

  if (opt.verify_restore) {
    for (size_t k = 0; k < engine.checkpoints().size(); ++k) {
      DispatchEngine resumed(&workload, &ctx, ecfg);
      URR_RETURN_NOT_OK(resumed.Restore(engine.checkpoints()[k].second));
      URR_RETURN_NOT_OK(resumed.Run());
      URR_RETURN_NOT_OK(CompareLogs(
          engine.SerializedLog(), resumed.SerializedLog(),
          "restore from checkpoint " + std::to_string(k)));
      if (resumed.SolutionFingerprint() != engine.SolutionFingerprint()) {
        return Status::Internal("restore from checkpoint " +
                                std::to_string(k) +
                                " diverged: final fleet state differs");
      }
    }
    std::printf("restore verified: %zu checkpoint(s) reproduce the run\n",
                engine.checkpoints().size());
  }
  return Status::OK();
}

}  // namespace
}  // namespace urr

int main(int argc, char** argv) {
  urr::Options options;
  urr::FlagSet flags(
      "urr_engine - event-driven streaming ridesharing dispatcher");
  options.Register(&flags);
  return flags.Main(argc, argv, [&](const std::vector<std::string>&) {
    return urr::Run(options);
  });
}
