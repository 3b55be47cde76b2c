// Discrete-event streaming dispatch engine (micro-batch dispatch over a
// continuously advancing fleet). A deterministic event loop — min-priority
// queue on (simulated time, event rank, insertion sequence) — drives the
// rider lifecycle Arrival → Queued → Assigned → PickedUp → DroppedOff plus
// Expired and Cancelled. Arrivals accumulate for a window W; each boundary
// snapshots the fleet mid-route (no teleporting: schedules advance along
// their committed legs and keep onboard riders), solves the queued riders
// with one of the batch approaches as a warm-start sub-instance, and
// commits the winners as Algorithm-1 schedule extensions. W = 0 degenerates
// to OnlineDispatcher (same shared decision helper, so the differential is
// exact); a window larger than the workload recovers pure batch.
//
// Determinism: the loop is single-threaded; window solves inherit the
// repo's bit-identical parallel evaluation; wall-clock latencies feed only
// EngineMetrics. Same workload + config ⇒ byte-identical event log at any
// thread count, and replaying the log's input events (arrivals + cancel
// requests) through a fresh engine reproduces the identical log and final
// fleet state.
#ifndef URR_ENGINE_ENGINE_H_
#define URR_ENGINE_ENGINE_H_

#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine_metrics.h"
#include "engine/event.h"
#include "engine/workload.h"
#include "routing/disruption_overlay.h"
#include "urr/eval_cache.h"
#include "urr/gbs.h"
#include "urr/online.h"
#include "urr/solution.h"

namespace urr {

/// Which batch approach solves each window.
enum class WindowSolver {
  kCostFirst,        // greedy on Δcost (CF baseline)
  kEfficientGreedy,  // greedy on Δμ/Δcost (EG)
  kBilateral,        // BA with replacement (committed riders protected)
  kGbsEg,            // GBS with EG base
  kGbsBa,            // GBS with BA base
};

const char* WindowSolverName(WindowSolver solver);
/// Parses the names printed by WindowSolverName ("cf", "eg", "ba",
/// "gbs-eg", "gbs-ba").
bool ParseWindowSolver(std::string_view name, WindowSolver* out);

struct EngineConfig {
  /// Micro-batch window length W in clock units. 0 = dispatch every arrival
  /// immediately (OnlineDispatcher-equivalent).
  Cost window = 10;
  WindowSolver solver = WindowSolver::kEfficientGreedy;
  /// Objective of the per-arrival path when window == 0.
  OnlineObjective online_objective = OnlineObjective::kUtilityGain;
  /// Admission control: arrivals beyond this many queued riders are
  /// rejected on the spot. 0 = unbounded.
  int max_queue = 0;
  /// Seed of the engine-owned Rng (BA's random rider order); part of the
  /// replay identity.
  uint64_t seed = 7;
  /// Cross-window evaluation cache: window solves reuse CandidateEval
  /// entries for (rider, vehicle) pairs whose schedule has not mutated
  /// since the last window. Pure memoization — the event log and final
  /// fleet state are byte-identical with the cache on or off.
  bool use_eval_cache = true;
  /// Options for the GBS solvers; `base` is overridden to match `solver`.
  GbsOptions gbs;
  /// Optional externally cached GBS preprocessing (rider-independent
  /// road-network work). When null the engine runs PrepareGbs itself —
  /// note that PrepareGbs consumes the engine Rng, so whether this is set
  /// is part of the replay identity.
  const GbsPreprocess* gbs_preprocess = nullptr;
  /// Re-dispatch policy for riders displaced by a fault (breakdown or edge
  /// disruption): each displaced rider gets up to `max_redispatch` re-queue
  /// attempts; attempt k waits min(redispatch_backoff * 2^(k-1), remaining
  /// pickup slack) before re-entering the queue. Exhausted retries or
  /// nonpositive slack abandon the rider (kAbandoned, terminal).
  int max_redispatch = 3;
  Cost redispatch_backoff = 30;
  /// Take a checkpoint every this many window boundaries (right after the
  /// solve, when the engine is quiescent). 0 disables. Checkpoints are
  /// returned by checkpoints(); Restore() resumes a fresh engine from one.
  int checkpoint_every = 0;
  /// Provenance of the .urrx index snapshot the distance oracle was loaded
  /// from (empty/0 = the oracle was built fresh). Recorded in every
  /// checkpoint; Restore() refuses a checkpoint whose recorded snapshot
  /// disagrees with the restoring engine's — replaying against different
  /// preprocessing would silently diverge.
  std::string index_snapshot_path;
  uint64_t index_snapshot_checksum = 0;
  /// Run the full live-state invariant check (per-schedule Lemma 3.1
  /// validation + assignment/terminal-state consistency) after every window
  /// solve and every fault repair; Run() fails on the first violation.
  bool validate_invariants = false;
  /// Install the DisruptionOverlay stack even when the workload carries no
  /// edge faults, so a live session (dispatch service) can inject them
  /// later via InjectEdgeFaultLive. With no disruptions active the overlay
  /// passes every query through to the clean precomputed stack.
  bool arm_overlay = false;
};

/// Runs one streaming workload to completion. Borrows the workload and the
/// caller's SolverContext; substitutes its own vehicle index (tracking
/// mid-route anchors), its own seeded Rng and its own mutable instance
/// copy. ctx->model must be built over workload->instance (the engine's
/// copy has identical riders, so utilities agree).
class DispatchEngine {
 public:
  DispatchEngine(const StreamingWorkload* workload, SolverContext* ctx,
                 const EngineConfig& config);

  /// Processes every input event and drains the fleet. Call once.
  Status Run();

  // --- Live-session API (dispatch-as-a-service; DESIGN.md §12) ----------
  //
  // Instead of consuming the workload's recorded arrival/cancel schedule in
  // one Run(), a live session takes inputs one by one through the injection
  // hooks below. Every injection funnels through the same (time, rank, seq)
  // event queue and the same handlers as Run(), and each hook synchronously
  // processes everything ordered at-or-before the injected entry, so the
  // caller gets the outcome (queued / assigned / rejected + reason) in the
  // return value. Contract: driving a recorded workload through the hooks
  // in (time, rank) order produces an event log byte-identical to Run() on
  // the same workload (proved by live_engine_test and the server's
  // batch-vs-server differential). Injection times must be non-decreasing;
  // the caller (the dispatch service) owns the clock.

  /// Opens a live session: runs the same solver preparation as Run() and
  /// schedules the workload's recorded fault plan (arrivals/cancellations
  /// are ignored — they arrive via the hooks). Call instead of Run().
  /// On a Restore()d engine the snapshot's pending queue (fault plan,
  /// boundary chain) is resumed as-is, so a crashed live session continues
  /// exactly where the checkpoint left it.
  Status BeginLive();

  /// Outcome of one SubmitLive call.
  struct SubmitOutcome {
    bool queued = false;     // accepted into the dispatch queue (W > 0)
    bool assigned = false;   // committed immediately (W == 0 path)
    int vehicle = -1;        // the committing vehicle when assigned
    EngineReject reject = EngineReject::kNone;  // set when turned away
  };

  /// Injects rider `rider` arriving at `time`. The rider's pickup/dropoff
  /// deadlines are shifted so the budgets drawn at build time stay relative
  /// to the actual submit instant (same rule MakeStreamingWorkload applies
  /// to recorded arrivals). Errors: unknown rider, duplicate submission,
  /// time before the engine clock.
  Result<SubmitOutcome> SubmitLive(RiderId rider, Cost time);

  /// Injects a cancellation request; returns true when the rider actually
  /// left the system (false = the request was ignored, e.g. already picked
  /// up or never submitted — the same semantics as a recorded request).
  Result<bool> CancelLive(RiderId rider, Cost time);

  /// Admin fault injection (breakdown storms, road closures). Edge faults
  /// require the overlay: construct the engine with config.arm_overlay (or
  /// a workload that already carries edge faults).
  Status InjectBreakdownLive(int vehicle, Cost time);
  Status InjectEdgeFaultLive(NodeId a, NodeId b, double factor, Cost time);
  Status InjectEdgeRestoreLive(NodeId a, NodeId b, Cost time);

  /// Advances the engine clock to `time`, processing every queued entry
  /// (window boundaries, expirations, retries, scheduled faults) due at or
  /// before it. The real-time server ticks this between requests.
  Status AdvanceLive(Cost time);

  /// Closes the session: processes everything still queued, drains the
  /// fleet to the end of every committed schedule and finalizes metrics
  /// (the tail of Run()). Further injections fail.
  Status FinishLive();

  /// Read-only rider status for QueryStatus requests.
  struct RiderStatus {
    const char* state = "pending";  // lifecycle state name
    int vehicle = -1;               // assigned/serving vehicle, -1 if none
    double booked_utility = 0;      // utility committed for this rider
    Cost arrival_time = 0;          // submit time (meaningful once arrived)
  };
  Result<RiderStatus> QueryRider(RiderId rider) const;

  /// Current engine clock (virtual seconds).
  Cost now() const { return instance_.now; }
  /// Riders currently waiting for a window solve.
  int queue_depth() const { return static_cast<int>(queued_.size()); }
  /// True once FinishLive() (or Run()) completed.
  bool finished() const { return finished_; }

  /// Serializes the full live state — clock, queues, fleet schedules,
  /// pending events, RNG stream, disruption overlay, log prefix — as a
  /// self-contained text snapshot. Intended at window boundaries (the
  /// engine takes them itself via config.checkpoint_every) but valid
  /// whenever the engine is quiescent.
  std::string Checkpoint() const;

  /// Restores a snapshot into a freshly constructed engine (same workload,
  /// context and config as the engine that produced it) before Run() or
  /// BeginLive(). The resumed run replays a byte-identical event-log
  /// suffix and reaches the identical final SolutionFingerprint.
  Status Restore(const std::string& checkpoint);

  /// (time, snapshot) pairs taken during Run() per config.checkpoint_every.
  const std::vector<std::pair<Cost, std::string>>& checkpoints() const {
    return checkpoints_;
  }

  /// Full live-state invariant check: every schedule passes Lemma 3.1
  /// validation, every assignment is consistent with its schedule (pickup +
  /// dropoff scheduled, or dropoff-only for onboard riders), and terminal
  /// riders hold no schedule stops.
  Status ValidateLiveState() const;

  const UrrSolution& solution() const { return solution_; }
  const UrrInstance& instance() const { return instance_; }
  const std::vector<Event>& event_log() const { return log_; }
  std::string SerializedLog() const { return SerializeEventLog(log_); }
  const EngineMetrics& metrics() const { return metrics_; }
  /// Σ per-rider utility at commit time, net of cancellations.
  double booked_utility() const { return metrics_.booked_utility; }
  /// Per-rider utility booked at commit; 0 when unassigned or cancelled.
  const std::vector<double>& booked_utilities() const { return booked_; }

  /// Canonical rendering of the final fleet state (anchors, remaining
  /// stops, onboard riders, assignment, booked utility) for replay
  /// comparisons. %.17g throughout, so equality is bitwise.
  std::string SolutionFingerprint() const;

 private:
  enum class RiderState : uint8_t {
    kPending,    // not yet arrived
    kQueued,
    kAssigned,   // committed, not yet picked up
    kPickedUp,
    kDroppedOff,
    kExpired,
    kCancelled,  // includes no-shows (the rider left/never showed)
    kRejected,
    kWaitingRetry,  // displaced by a fault, backing off before re-queue
    kAbandoned,     // terminal: retries or slack exhausted
  };

  /// Which fault a rank-2 queue entry injects.
  enum class FaultKind : uint8_t { kNone, kBreakdown, kEdgeDisrupt, kEdgeRestore };

  /// Internal queue entry. Rank breaks time ties: arrivals join the window
  /// closing at the same instant, cancellations apply before the solve,
  /// faults strike before the solve sees the fleet, re-dispatches rejoin
  /// the queue in time for the boundary, and boundaries run before
  /// expirations so a rider expiring exactly at the boundary still gets
  /// its last chance.
  struct Pending {
    Cost time = 0;
    // 0 arrival, 1 cancel, 2 fault, 3 re-dispatch, 4 window boundary,
    // 5 expire.
    int rank = 0;
    int64_t seq = 0;
    RiderId rider = -1;
    // Fault payload (rank 2 only).
    FaultKind fault = FaultKind::kNone;
    int vehicle = -1;
    NodeId edge_a = kInvalidNode;
    NodeId edge_b = kInvalidNode;
    double value = 0;
    bool operator>(const Pending& o) const {
      if (time != o.time) return time > o.time;
      if (rank != o.rank) return rank > o.rank;
      return seq > o.seq;
    }
  };

  static constexpr int kRankArrival = 0;
  static constexpr int kRankCancel = 1;
  static constexpr int kRankFault = 2;
  static constexpr int kRankRedispatch = 3;
  static constexpr int kRankBoundary = 4;
  static constexpr int kRankExpire = 5;

  void Push(Cost time, int rank, RiderId rider);
  void PushFault(const Pending& entry);
  /// Schedules the workload's fault plan in a fixed kind order (breakdowns,
  /// edge disruptions, edge restores) shared by Run() and BeginLive().
  void PushFaultPlan();
  /// Solver preparation shared by Run() and BeginLive() (GBS base wiring +
  /// PrepareGbs; consumes the engine Rng, part of the replay identity).
  Status Prepare();
  /// Dispatches one popped queue entry to its handler (the event loop
  /// body, shared by Run() and the live pumps).
  Status ProcessEntry(const Pending& e);
  /// Processes every queued entry ordered at-or-before (time, rank, seq).
  Status PumpThrough(Cost time, int rank, int64_t seq);
  /// Processes every queued entry (live closing / batch main loop).
  Status PumpAll();
  /// The tail of Run(): drains the fleet to the end of every committed
  /// schedule and flushes the eval-path/overlay counters into metrics_.
  void FinishRun();
  /// Live mode: schedules the perpetual window-boundary chain (the same
  /// t0+W, t0+2W, ... grid Run() walks; boundaries with an empty queue are
  /// log-invisible, which keeps live logs byte-identical to batch).
  void StartBoundaryChain();
  /// Validates a live injection (session open, time monotonic).
  Status CheckLiveInjection(Cost time) const;
  /// Installs the DisruptionOverlay stack (main oracle + worker clones)
  /// when the workload carries edge faults; returns the oracle schedules
  /// should be built over. Called from the constructor.
  DistanceOracle* SetupOverlay();
  /// Executes every stop completed strictly before `t` (emitting PickedUp/
  /// DroppedOff), refreshes per-vehicle prefilter anchors and sets
  /// instance_.now = t.
  void AdvanceFleetTo(Cost t);
  void RefreshAnchor(int vehicle);
  void HandleArrival(const Pending& e);
  Status HandleCancel(const Pending& e);
  void HandleExpire(const Pending& e);
  Status HandleFault(const Pending& e);
  Status HandleBreakdown(const Pending& e);
  Status HandleEdgeFault(const Pending& e);
  void HandleRedispatch(const Pending& e);
  /// Refreshes every schedule against the new routing epoch and repairs
  /// deadline violations: pending riders are excised + re-dispatched,
  /// onboard riders' dropoff deadlines are forgiven (they cannot leave the
  /// vehicle mid-route).
  Status RepairAfterNetworkChange(Cost t);
  /// Bounded deadline-aware retry: schedules the rider's re-queue after a
  /// backoff capped by remaining pickup slack, or abandons them.
  void Redispatch(RiderId rider, Cost t);
  void Abandon(RiderId rider, Cost t);
  /// Removes the rider's booked utility and assignment (fault repair).
  void Unbook(RiderId rider);
  Status SolveWindow(Cost t);
  void CommitRider(Cost t, RiderId rider, int vehicle);
  double FleetUtilization() const;

  const StreamingWorkload* workload_;
  EngineConfig config_;
  UrrInstance instance_;  // mutable copy: now + vehicle anchors advance
  SolverContext ctx_;     // caller's context with our index + rng patched in
  VehicleIndex vehicle_index_;
  Rng rng_;
  // Disruption-overlay stack (wired by SetupOverlay when the workload has
  // edge faults; all null otherwise). Declared before solution_ so the
  // schedules can be built over the overlay oracle.
  std::shared_ptr<DisruptionState> disruption_state_;
  std::shared_ptr<OverlayStats> overlay_stats_;
  std::unique_ptr<DisruptionOverlay> overlay_;
  std::shared_ptr<WorkerOracleSet> overlay_worker_set_;
  UrrSolution solution_;
  EvalCache eval_cache_;     // cross-window memo (wired when use_eval_cache)
  EvalCounters counters_;    // eval-path counters, flushed into metrics_
  RetrievalStats retrieval_stats_;  // flushed into metrics_
  std::optional<GbsPreprocess> gbs_pre_;        // owned when not injected
  const GbsPreprocess* gbs_pre_ptr_ = nullptr;  // whichever is active

  std::priority_queue<Pending, std::vector<Pending>, std::greater<Pending>>
      queue_;
  int64_t next_seq_ = 0;
  int pending_inputs_ = 0;  // non-boundary entries currently queued

  std::vector<RiderState> state_;
  std::vector<Cost> arrival_time_;
  std::vector<double> booked_;  // per-rider utility at commit; 0 otherwise
  std::vector<RiderId> queued_;  // FIFO arrival order
  std::vector<int> all_vehicles_;
  std::vector<int> retries_;     // re-dispatch attempts per rider
  std::vector<bool> dead_;       // vehicles lost to a breakdown
  const std::vector<bool>* no_show_ = nullptr;  // workload fault flags

  std::vector<Event> log_;
  EngineMetrics metrics_;
  Cost window_start_ = 0;
  int window_arrivals_ = 0;
  int window_expired_ = 0;
  int window_cancelled_ = 0;
  double window_driven_ = 0;
  int windows_since_checkpoint_ = 0;
  std::vector<std::pair<Cost, std::string>> checkpoints_;
  bool ran_ = false;
  bool restored_ = false;
  // Live-session state (unused in batch mode; never checkpointed).
  bool live_ = false;      // BeginLive() opened a live session
  bool closing_ = false;   // FinishLive() is draining the queue
  bool finished_ = false;  // FinishRun() ran (batch or live)
  EngineReject last_reject_ = EngineReject::kNone;  // latest arrival verdict
  std::vector<Cost> recorded_arrival_;  // per-rider recorded arrival time

  friend struct EngineCheckpointAccess;  // engine/checkpoint.cc
};

/// Rebuilds the streaming input recorded in `log` (kArrival +
/// kCancelRequested events, plus the fault inputs: kVehicleBreakdown,
/// kEdgeDisruption/kEdgeRestore and the no-show flags behind kRiderNoShow
/// events) over `original`'s instance, for replay: running the result
/// through a fresh engine with the same config reproduces `log` byte for
/// byte.
Result<StreamingWorkload> WorkloadFromLog(const StreamingWorkload& original,
                                          const std::vector<Event>& log);

}  // namespace urr

#endif  // URR_ENGINE_ENGINE_H_
