// The dispatch service: one live DispatchEngine session behind the wire
// protocol (server/protocol.h). Transport-agnostic — the socket server
// (server/server.h) and the in-process benchmarks both drive it through
// Handle(payload) → response payload.
//
// Threading: Handle() is safe to call from any number of session threads.
// One mutex serializes engine access (window solves still parallelize
// internally through the SolverContext's thread pool); the same mutex
// orders clock reads, which makes steady-clock time stamps monotone across
// connections — exactly the engine's live-injection contract.
//
// Determinism: under a virtual clock (every request carries its `time`),
// the service is a pure funnel into the engine's (time, rank, seq) queue.
// Serving a recorded workload through it — same times, same rank order —
// produces an event log byte-identical to DispatchEngine::Run() on that
// workload. The server smoke test and tests/server_test.cc hold this.
//
// Crash safety (DESIGN.md §15): with a journal directory configured, every
// mutating request is serialized (with its stamped time) and appended to a
// checksummed write-ahead journal before it reaches the engine, and the
// engine is checkpointed on a journaled-mutation cadence. Start() with
// config.recover restores the latest valid checkpoint and replays the
// journal suffix through the same dispatch path, reproducing the exact
// pre-crash engine state — event log, SolutionFingerprint, dedup window —
// because dispatch is deterministic in (request, time) order. Requests
// carrying a `req_id` are idempotent: the response of the first execution
// is cached and returned to retries, so a client that timed out or lost
// its connection can safely resend.
#ifndef URR_SERVER_DISPATCH_SERVICE_H_
#define URR_SERVER_DISPATCH_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "engine/clock_source.h"
#include "engine/engine.h"
#include "server/admission.h"
#include "server/journal.h"
#include "server/protocol.h"

namespace urr {

struct ServiceConfig {
  /// true: requests carry their own `time` (deterministic replay mode).
  /// false: the service stamps elapsed wall seconds × timescale.
  bool virtual_clock = true;
  /// Steady-clock mode: simulated seconds per real second.
  double timescale = 1.0;
  /// Crash safety (DESIGN.md §15). Non-empty: every mutating request is
  /// appended to <journal_dir>/journal.wal (write-ahead, checksummed,
  /// fsync'd) before it touches the engine, and a service checkpoint
  /// (engine snapshot + journal position + dedup window) is written every
  /// `checkpoint_every` journaled mutations. Empty: no persistence.
  std::string journal_dir;
  /// Start() recovers from journal_dir — latest valid checkpoint, then a
  /// replay of the journal suffix — instead of requiring a fresh
  /// directory. The recovered run continues the event log byte-exactly.
  bool recover = false;
  /// Journaled mutations between service checkpoints (0 = journal only,
  /// recovery then replays from the start).
  int checkpoint_every = 256;
  /// fdatasync every journal record (default). Off keeps the write-ahead
  /// ordering but lets an OS crash lose the last few records.
  bool journal_fsync = true;
  /// Idempotency window: cached responses kept for dedup, FIFO-evicted.
  int dedup_window = 1 << 16;
};

class DispatchService {
 public:
  /// Borrows everything; `admission` may be null (no session accounting in
  /// the metrics response).
  DispatchService(const StreamingWorkload* workload, SolverContext* ctx,
                  const EngineConfig& engine_config,
                  const ServiceConfig& config,
                  AdmissionController* admission);

  /// Opens the live engine session and starts the clock. Call once. With
  /// config.journal_dir set this also opens (or, with config.recover,
  /// recovers from) the write-ahead journal: the latest valid checkpoint
  /// is restored, a torn journal tail is truncated with its Status kept
  /// for the metrics report, and the surviving journal suffix is replayed
  /// into the engine before the first request is accepted.
  Status Start();

  /// Handles one request payload and returns the response payload.
  /// Never throws and never returns an empty string: malformed requests
  /// get a 400 response, internal failures a 500.
  std::string Handle(std::string_view payload);

  /// Closes the live session (drains the fleet, finalizes metrics).
  /// Idempotent; called by the server after the last session ends.
  Status Finish();

  /// Set once a shutdown request was served; the server stops accepting.
  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Post-Finish access for differential tests and the --log flag.
  std::string SerializedLog();
  std::string MetricsJson();
  const DispatchEngine& engine() const { return engine_; }

  /// Recovery summary (valid after Start()): journaled mutations applied
  /// so far, and how the session began.
  int64_t journal_records() const { return journal_seq_; }
  int64_t recovered_replayed() const { return recovered_replayed_; }
  int64_t dedup_hits() const {
    return dedup_hits_.load(std::memory_order_relaxed);
  }

 private:
  std::string HandleParsed(const Request& req);
  /// The journaling wrapper around every mutating op: dedup lookup →
  /// inject id check → write-ahead append → dispatch → dedup insert →
  /// checkpoint cadence.
  std::string HandleMutating(const Request& req, Cost t);
  /// Pure dispatch of one mutating op at time `t` (no journaling) — the
  /// shared path of live handling and recovery replay.
  std::string DispatchMutating(const Request& req, Cost t);
  Status RecoverLocked();
  Status StartFreshJournalLocked();
  void MaybeCheckpointLocked();
  std::string HandleSubmit(const Request& req, Cost t);
  std::string HandleCancel(const Request& req, Cost t);
  std::string HandleQuery(const Request& req);
  std::string HandleMetrics(const Request& req);
  std::string HandleWorkload(const Request& req);
  std::string HandleInject(const Request& req, Cost t);
  /// NotFound naming the first vehicle (breakdown) or edge endpoint an
  /// inject_fault request names that the world lacks; OK otherwise.
  Status CheckInjectIds(const Request& req) const;
  std::string HandleTick(const Request& req, Cost t);
  std::string HandleShutdown(const Request& req);
  /// Maps an engine Status to the protocol's HTTP-style code.
  static int CodeFor(const Status& status);

  const StreamingWorkload* workload_;
  ServiceConfig config_;
  AdmissionController* admission_;
  DispatchEngine engine_;
  SteadyClock steady_;
  Cost epoch_ = 0;  // engine clock at Start(); steady time is added to it
  std::mutex mu_;
  std::atomic<bool> shutdown_{false};
  std::atomic<int64_t> requests_{0};
  std::atomic<int64_t> rejected_shutdown_{0};  // 503s after shutdown

  // Crash safety (all engine-state fields below are guarded by mu_).
  std::optional<RequestJournal> journal_;
  DedupCache dedup_;
  int64_t journal_seq_ = 0;           // journaled mutations applied
  int64_t last_checkpoint_seq_ = 0;   // journal_seq_ at the last checkpoint
  std::atomic<int64_t> dedup_hits_{0};
  Status journal_fault_;      // sticky: a failed append stops mutations
  Status checkpoint_fault_;   // last failed checkpoint write (non-fatal)
  bool recovered_ = false;
  int64_t recovered_checkpoint_seq_ = -1;  // -1 = replayed from scratch
  int64_t recovered_replayed_ = 0;         // journal records replayed
  std::string recovery_note_;  // torn-tail Status, kept for observability
};

}  // namespace urr

#endif  // URR_SERVER_DISPATCH_SERVICE_H_
