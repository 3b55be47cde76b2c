#include "engine/engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/stopwatch.h"
#include "routing/distance_oracle.h"
#include "urr/bilateral.h"
#include "urr/greedy.h"

namespace urr {

namespace {

std::vector<NodeId> VehicleLocations(const UrrInstance& instance) {
  std::vector<NodeId> locations;
  locations.reserve(instance.vehicles.size());
  for (const Vehicle& v : instance.vehicles) locations.push_back(v.location);
  return locations;
}

}  // namespace

const char* WindowSolverName(WindowSolver solver) {
  switch (solver) {
    case WindowSolver::kCostFirst: return "cf";
    case WindowSolver::kEfficientGreedy: return "eg";
    case WindowSolver::kBilateral: return "ba";
    case WindowSolver::kGbsEg: return "gbs-eg";
    case WindowSolver::kGbsBa: return "gbs-ba";
  }
  return "unknown";
}

bool ParseWindowSolver(std::string_view name, WindowSolver* out) {
  for (WindowSolver s :
       {WindowSolver::kCostFirst, WindowSolver::kEfficientGreedy,
        WindowSolver::kBilateral, WindowSolver::kGbsEg, WindowSolver::kGbsBa}) {
    if (name == WindowSolverName(s)) {
      *out = s;
      return true;
    }
  }
  return false;
}

DispatchEngine::DispatchEngine(const StreamingWorkload* workload,
                               SolverContext* ctx, const EngineConfig& config)
    : workload_(workload),
      config_(config),
      instance_(workload->instance),
      ctx_(*ctx),
      vehicle_index_(*instance_.network, VehicleLocations(instance_)),
      rng_(config.seed),
      solution_(MakeEmptySolution(instance_, SetupOverlay())) {
  // The engine owns the time-varying pieces: its index tracks mid-route
  // anchors and its Rng makes BA's random order part of the replay identity.
  // It also owns the cross-window eval cache (schedule versions invalidate
  // entries as vehicles mutate) and the eval-path counters.
  ctx_.vehicle_index = &vehicle_index_;
  ctx_.rng = &rng_;
  ctx_.eval_cache = config_.use_eval_cache ? &eval_cache_ : nullptr;
  ctx_.counters = &counters_;
  ctx_.retrieval_stats = &retrieval_stats_;
  const size_t n = instance_.riders.size();
  state_.assign(n, RiderState::kPending);
  arrival_time_.assign(n, instance_.now);
  booked_.assign(n, 0.0);
  retries_.assign(n, 0);
  all_vehicles_.resize(instance_.vehicles.size());
  for (size_t j = 0; j < all_vehicles_.size(); ++j) {
    all_vehicles_[j] = static_cast<int>(j);
  }
  dead_.assign(instance_.vehicles.size(), false);
  if (workload_->faults.HasNoShows()) no_show_ = &workload_->faults.no_show;
  window_start_ = instance_.now;
  recorded_arrival_.assign(n, instance_.now);
  for (const RiderArrival& a : workload_->arrivals) {
    if (a.rider >= 0 && static_cast<size_t>(a.rider) < n) {
      recorded_arrival_[static_cast<size_t>(a.rider)] = a.time;
    }
  }
}

DistanceOracle* DispatchEngine::SetupOverlay() {
  if (!workload_->faults.HasEdgeFaults() && !config_.arm_overlay) {
    return ctx_.oracle;
  }
  // Wrap the caller's oracle (and each worker clone) behind overlays
  // sharing one DisruptionState, so disrupted-edge screening is identical
  // on every thread. Precomputed structures underneath stay untouched.
  disruption_state_ = std::make_shared<DisruptionState>(*instance_.network);
  overlay_stats_ = std::make_shared<OverlayStats>();
  overlay_ = std::make_unique<DisruptionOverlay>(
      ctx_.oracle, *instance_.network, disruption_state_, overlay_stats_);
  ctx_.oracle = overlay_.get();
  if (ctx_.worker_set != nullptr && !ctx_.worker_set->oracles.empty()) {
    auto wrapped = std::make_shared<WorkerOracleSet>();
    wrapped->oracles.push_back(overlay_.get());
    bool ok = true;
    for (size_t w = 1; w < ctx_.worker_set->oracles.size(); ++w) {
      // Overlay clones wrap fresh clones of the main overlay's base — each
      // worker keeps a private scratch/query context, same as before.
      std::unique_ptr<DistanceOracle> clone = overlay_->Clone();
      if (clone == nullptr) {
        ok = false;
        break;
      }
      wrapped->oracles.push_back(clone.get());
      wrapped->owned.push_back(std::move(clone));
    }
    if (ok) {
      overlay_worker_set_ = std::move(wrapped);
      ctx_.worker_set = overlay_worker_set_;
    } else {
      // A non-cloneable base: drop the worker set, solvers run serial.
      ctx_.worker_set = nullptr;
    }
  }
  return ctx_.oracle;
}

void DispatchEngine::Push(Cost time, int rank, RiderId rider) {
  queue_.push(Pending{time, rank, next_seq_++, rider});
  if (rank != kRankBoundary) ++pending_inputs_;
}

void DispatchEngine::PushFault(const Pending& entry) {
  Pending e = entry;
  e.seq = next_seq_++;
  queue_.push(e);
  ++pending_inputs_;
}

Status DispatchEngine::Prepare() {
  if (config_.solver == WindowSolver::kGbsEg ||
      config_.solver == WindowSolver::kGbsBa) {
    config_.gbs.base = config_.solver == WindowSolver::kGbsEg
                           ? GbsBase::kEfficientGreedy
                           : GbsBase::kBilateral;
    if (config_.gbs_preprocess != nullptr) {
      gbs_pre_ptr_ = config_.gbs_preprocess;
    } else if (restored_) {
      // Restore() already ran PrepareGbs (before overwriting the Rng with
      // the snapshot's stream, matching the original run's draw order).
      gbs_pre_ptr_ = &*gbs_pre_;
    } else {
      URR_ASSIGN_OR_RETURN(GbsPreprocess pre,
                           PrepareGbs(instance_, &ctx_, config_.gbs));
      gbs_pre_ = std::move(pre);
      gbs_pre_ptr_ = &*gbs_pre_;
    }
  }
  return Status::OK();
}

Status DispatchEngine::ProcessEntry(const Pending& e) {
  switch (e.rank) {
    case kRankArrival:
      HandleArrival(e);
      break;
    case kRankCancel:
      URR_RETURN_NOT_OK(HandleCancel(e));
      break;
    case kRankFault:
      URR_RETURN_NOT_OK(HandleFault(e));
      break;
    case kRankRedispatch:
      HandleRedispatch(e);
      break;
    case kRankBoundary: {
      URR_RETURN_NOT_OK(SolveWindow(e.time));
      window_start_ = e.time;
      if (config_.validate_invariants) {
        URR_RETURN_NOT_OK(ValidateLiveState());
      }
      // Keep ticking while any input (arrival, cancel, fault, re-dispatch
      // or expiration) is still ahead — a queued rider may become
      // servable as the fleet frees up. An open live session keeps the
      // chain alive unconditionally: future injections can land at any
      // time, and a boundary with an empty queue is log-invisible, so the
      // perpetual chain stays byte-identical to the batch chain.
      if ((live_ && !closing_) || pending_inputs_ > 0) {
        Push(e.time + config_.window, kRankBoundary, -1);
      }
      // Checkpoint only after the next boundary is enqueued: the snapshot
      // serializes the event queue, and a restored engine pushes no
      // inputs of its own, so the boundary chain must live in the queue.
      if (config_.checkpoint_every > 0 &&
          ++windows_since_checkpoint_ >= config_.checkpoint_every) {
        checkpoints_.emplace_back(e.time, Checkpoint());
        windows_since_checkpoint_ = 0;
      }
      break;
    }
    default:
      HandleExpire(e);
      break;
  }
  return Status::OK();
}

Status DispatchEngine::PumpAll() {
  while (!queue_.empty()) {
    const Pending e = queue_.top();
    queue_.pop();
    if (e.rank != kRankBoundary) --pending_inputs_;
    AdvanceFleetTo(e.time);
    URR_RETURN_NOT_OK(ProcessEntry(e));
  }
  return Status::OK();
}

Status DispatchEngine::PumpThrough(Cost time, int rank, int64_t seq) {
  Pending key;
  key.time = time;
  key.rank = rank;
  key.seq = seq;
  while (!queue_.empty() && !(queue_.top() > key)) {
    const Pending e = queue_.top();
    queue_.pop();
    if (e.rank != kRankBoundary) --pending_inputs_;
    AdvanceFleetTo(e.time);
    URR_RETURN_NOT_OK(ProcessEntry(e));
  }
  return Status::OK();
}

void DispatchEngine::FinishRun() {
  if (finished_) return;
  finished_ = true;
  // Drain: run the fleet to the end of every committed schedule so the
  // final log contains each accepted rider's PickedUp/DroppedOff. An
  // infinite EndTime (a dropoff disconnected by an active closure) is
  // excluded — those stops cannot complete until a restore arrives, and by
  // construction every closure in a FaultPlan is paired with one.
  Cost horizon = instance_.now;
  for (const TransferSequence& s : solution_.schedules) {
    const Cost end = s.EndTime();
    if (std::isfinite(end)) horizon = std::max(horizon, end);
  }
  AdvanceFleetTo(horizon + 1);
  // Flush the eval-path counters (metrics only; never the event log).
  metrics_.eval_cache_hits = counters_.cache_hits.load();
  metrics_.eval_cache_misses = counters_.cache_misses.load();
  metrics_.screened_pairs = counters_.screened_pairs.load();
  metrics_.elided_queries = counters_.elided_queries.load();
  metrics_.kernel_evals = counters_.kernel_evals.load();
  // Flush the candidate-retrieval counters.
  metrics_.retrieval_riders = retrieval_stats_.riders.load();
  metrics_.retrieval_candidates = retrieval_stats_.candidates.load();
  metrics_.retrieval_seconds = retrieval_stats_.retrieval_nanos.load() * 1e-9;
  retrieval_stats_.SummarizeCandidates(&metrics_.retrieval_mean_candidates,
                                       &metrics_.retrieval_p99_candidates);
  if (overlay_stats_ != nullptr) {
    metrics_.overlay_queries = overlay_stats_->queries.load();
    metrics_.overlay_euclid_screened = overlay_stats_->euclid_screened.load();
    metrics_.overlay_fallbacks = overlay_stats_->fallbacks.load();
    metrics_.overlay_epoch = disruption_state_->epoch();
  }
}

void DispatchEngine::PushFaultPlan() {
  // Fault inputs, in a fixed kind order so seq assignment (and therefore
  // same-instant ordering) is reproducible from a replayed log.
  for (const VehicleBreakdown& b : workload_->faults.breakdowns) {
    Pending p;
    p.time = b.time;
    p.rank = kRankFault;
    p.fault = FaultKind::kBreakdown;
    p.vehicle = b.vehicle;
    PushFault(p);
  }
  for (const EdgeFault& f : workload_->faults.edge_faults) {
    Pending p;
    p.time = f.time;
    p.rank = kRankFault;
    p.fault = FaultKind::kEdgeDisrupt;
    p.edge_a = f.a;
    p.edge_b = f.b;
    p.value = f.factor;
    PushFault(p);
  }
  for (const EdgeRestoreFault& f : workload_->faults.edge_restores) {
    Pending p;
    p.time = f.time;
    p.rank = kRankFault;
    p.fault = FaultKind::kEdgeRestore;
    p.edge_a = f.a;
    p.edge_b = f.b;
    PushFault(p);
  }
}

Status DispatchEngine::Run() {
  if (ran_) return Status::Internal("DispatchEngine::Run called twice");
  ran_ = true;
  URR_RETURN_NOT_OK(Prepare());
  if (!restored_) {
    for (const RiderArrival& a : workload_->arrivals) {
      Push(a.time, kRankArrival, a.rider);
    }
    for (const CancelRequest& c : workload_->cancellations) {
      Push(c.time, kRankCancel, c.rider);
    }
    PushFaultPlan();
    if (config_.window > 0 && pending_inputs_ > 0) {
      Push(instance_.now + config_.window, kRankBoundary, -1);
    }
  }
  URR_RETURN_NOT_OK(PumpAll());
  FinishRun();
  return Status::OK();
}

// --- Live-session API (dispatch-as-a-service) -----------------------------

void DispatchEngine::StartBoundaryChain() {
  if (config_.window > 0) {
    Push(instance_.now + config_.window, kRankBoundary, -1);
  }
}

Status DispatchEngine::CheckLiveInjection(Cost time) const {
  if (!live_) {
    return Status::Internal("no live session open (call BeginLive first)");
  }
  if (closing_ || finished_) {
    return Status::Internal("live session is closed");
  }
  if (!std::isfinite(time)) {
    return Status::InvalidArgument("injection time must be finite");
  }
  if (time < instance_.now) {
    return Status::InvalidArgument(
        "injection time " + std::to_string(time) +
        " is before the engine clock " + std::to_string(instance_.now) +
        " (injections must be non-decreasing)");
  }
  return Status::OK();
}

Status DispatchEngine::BeginLive() {
  if (ran_) {
    return Status::Internal("BeginLive on an engine that already ran");
  }
  ran_ = true;
  live_ = true;
  URR_RETURN_NOT_OK(Prepare());
  // The workload's recorded arrivals/cancellations are NOT pushed — they
  // arrive through SubmitLive/CancelLive. Its fault plan IS scheduled (it
  // is environment, not client traffic), in the same kind order as Run()
  // so same-instant faults keep their batch seq order. On a Restore()d
  // engine the snapshot's queue already carries the un-consumed fault
  // plan and the live boundary chain — re-pushing either would
  // double-schedule them, so the restored queue is resumed as-is.
  if (!restored_) {
    PushFaultPlan();
    StartBoundaryChain();
  }
  return Status::OK();
}

Result<DispatchEngine::SubmitOutcome> DispatchEngine::SubmitLive(RiderId rider,
                                                                 Cost time) {
  URR_RETURN_NOT_OK(CheckLiveInjection(time));
  if (rider < 0 || static_cast<size_t>(rider) >= state_.size()) {
    return Status::InvalidArgument("unknown rider " + std::to_string(rider));
  }
  const size_t i = static_cast<size_t>(rider);
  if (state_[i] != RiderState::kPending) {
    return Status::AlreadyExists("rider " + std::to_string(rider) +
                                 " was already submitted");
  }
  // Re-anchor the rider's deadlines to the actual submit instant: the
  // workload drew wait/detour budgets relative to its recorded arrival
  // time (MakeStreamingWorkload), so a live submission at a different
  // instant keeps the same budgets, not the same absolute deadlines. A
  // replayed workload submits at the recorded times (offset 0), leaving
  // the deadlines untouched — that is what makes the batch differential
  // byte-exact.
  const Cost offset = time - recorded_arrival_[i];
  if (offset != 0) {
    instance_.riders[i].pickup_deadline += offset;
    instance_.riders[i].dropoff_deadline += offset;
    recorded_arrival_[i] = time;
  }
  const int64_t seq = next_seq_;
  Push(time, kRankArrival, rider);
  last_reject_ = EngineReject::kNone;
  URR_RETURN_NOT_OK(PumpThrough(time, kRankArrival, seq));
  SubmitOutcome out;
  switch (state_[i]) {
    case RiderState::kQueued:
      out.queued = true;
      break;
    case RiderState::kAssigned:
      out.assigned = true;
      out.vehicle = solution_.assignment[i];
      break;
    case RiderState::kRejected:
      out.reject = last_reject_;
      break;
    default:
      // A same-instant boundary/fault processed inside the pump may already
      // have moved the rider on (e.g. picked up is impossible at submit
      // time, but expired-at-submit is not); report the raw state via
      // QueryRider — here it just means "not queued, not rejected".
      break;
  }
  return out;
}

Result<bool> DispatchEngine::CancelLive(RiderId rider, Cost time) {
  URR_RETURN_NOT_OK(CheckLiveInjection(time));
  if (rider < 0 || static_cast<size_t>(rider) >= state_.size()) {
    return Status::InvalidArgument("unknown rider " + std::to_string(rider));
  }
  const int before = metrics_.total_cancelled;
  const int64_t seq = next_seq_;
  Push(time, kRankCancel, rider);
  URR_RETURN_NOT_OK(PumpThrough(time, kRankCancel, seq));
  return metrics_.total_cancelled > before;
}

Status DispatchEngine::InjectBreakdownLive(int vehicle, Cost time) {
  URR_RETURN_NOT_OK(CheckLiveInjection(time));
  if (vehicle < 0 || vehicle >= static_cast<int>(instance_.vehicles.size())) {
    return Status::InvalidArgument("unknown vehicle " +
                                   std::to_string(vehicle));
  }
  Pending p;
  p.time = time;
  p.rank = kRankFault;
  p.fault = FaultKind::kBreakdown;
  p.vehicle = vehicle;
  const int64_t seq = next_seq_;
  PushFault(p);
  return PumpThrough(time, kRankFault, seq);
}

Status DispatchEngine::InjectEdgeFaultLive(NodeId a, NodeId b, double factor,
                                           Cost time) {
  URR_RETURN_NOT_OK(CheckLiveInjection(time));
  if (disruption_state_ == nullptr) {
    return Status::InvalidArgument(
        "edge-fault injection needs the disruption overlay: construct the "
        "engine with config.arm_overlay");
  }
  if (factor < 1.0) {
    return Status::InvalidArgument("edge-fault factor must be >= 1");
  }
  Pending p;
  p.time = time;
  p.rank = kRankFault;
  p.fault = FaultKind::kEdgeDisrupt;
  p.edge_a = a;
  p.edge_b = b;
  p.value = factor;
  const int64_t seq = next_seq_;
  PushFault(p);
  return PumpThrough(time, kRankFault, seq);
}

Status DispatchEngine::InjectEdgeRestoreLive(NodeId a, NodeId b, Cost time) {
  URR_RETURN_NOT_OK(CheckLiveInjection(time));
  if (disruption_state_ == nullptr) {
    return Status::InvalidArgument(
        "edge-fault injection needs the disruption overlay: construct the "
        "engine with config.arm_overlay");
  }
  Pending p;
  p.time = time;
  p.rank = kRankFault;
  p.fault = FaultKind::kEdgeRestore;
  p.edge_a = a;
  p.edge_b = b;
  const int64_t seq = next_seq_;
  PushFault(p);
  return PumpThrough(time, kRankFault, seq);
}

Status DispatchEngine::AdvanceLive(Cost time) {
  URR_RETURN_NOT_OK(CheckLiveInjection(time));
  // Process everything due at or before `time` (boundaries, expirations,
  // retries, scheduled faults), then move the fleet to `time` even if no
  // entry landed exactly there. Both are refinements of the batch
  // partition — stops execute with their own timestamps either way.
  URR_RETURN_NOT_OK(
      PumpThrough(time, std::numeric_limits<int>::max(),
                  std::numeric_limits<int64_t>::max()));
  AdvanceFleetTo(time);
  return Status::OK();
}

Status DispatchEngine::FinishLive() {
  if (!live_) {
    return Status::Internal("no live session open (call BeginLive first)");
  }
  if (finished_) return Status::OK();  // idempotent
  closing_ = true;
  URR_RETURN_NOT_OK(PumpAll());
  FinishRun();
  return Status::OK();
}

namespace {

const char* RiderStateNameForStatus(int state) {
  switch (state) {
    case 0: return "pending";
    case 1: return "queued";
    case 2: return "assigned";
    case 3: return "picked_up";
    case 4: return "dropped_off";
    case 5: return "expired";
    case 6: return "cancelled";
    case 7: return "rejected";
    case 8: return "waiting_retry";
    case 9: return "abandoned";
  }
  return "unknown";
}

}  // namespace

Result<DispatchEngine::RiderStatus> DispatchEngine::QueryRider(
    RiderId rider) const {
  if (rider < 0 || static_cast<size_t>(rider) >= state_.size()) {
    return Status::InvalidArgument("unknown rider " + std::to_string(rider));
  }
  const size_t i = static_cast<size_t>(rider);
  RiderStatus s;
  s.state = RiderStateNameForStatus(static_cast<int>(state_[i]));
  s.vehicle = solution_.assignment[i];
  s.booked_utility = booked_[i];
  s.arrival_time = arrival_time_[i];
  return s;
}

void DispatchEngine::AdvanceFleetTo(Cost t) {
  struct Done {
    Cost time;
    int vehicle;
    int order;
    Stop stop;
    bool no_show;
  };
  std::vector<Done> done;
  for (size_t j = 0; j < solution_.schedules.size(); ++j) {
    const Cost before = solution_.schedules[j].now();
    std::vector<ExecutedStop> executed =
        solution_.schedules[j].AdvanceTo(t, no_show_);
    for (size_t k = 0; k < executed.size(); ++k) {
      done.push_back({executed[k].time, static_cast<int>(j),
                      static_cast<int>(k), executed[k].stop,
                      executed[k].no_show});
    }
    if (!executed.empty()) {
      // A vehicle with committed stops drives continuously, so the cost
      // covered since the last advance is exactly the clock progression to
      // the last stop it completed.
      const Cost driven = executed.back().time - before;
      window_driven_ += driven;
      metrics_.driven_cost += driven;
    }
    RefreshAnchor(static_cast<int>(j));
  }
  // Merge completions across vehicles into one chronological order; the
  // (time, vehicle, order) key is unique, so the order is deterministic.
  std::sort(done.begin(), done.end(), [](const Done& a, const Done& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.vehicle != b.vehicle) return a.vehicle < b.vehicle;
    return a.order < b.order;
  });
  for (const Done& d : done) {
    const RiderId r = d.stop.rider;
    if (d.stop.type == StopType::kPickup) {
      if (d.no_show) {
        // The vehicle arrived; the rider never appeared. Their dropoff was
        // already excised from the schedule; un-book and close them out.
        Unbook(r);
        state_[static_cast<size_t>(r)] = RiderState::kCancelled;
        log_.push_back({d.time, EventType::kRiderNoShow, r, d.vehicle});
        ++metrics_.total_no_shows;
        continue;
      }
      state_[static_cast<size_t>(r)] = RiderState::kPickedUp;
      log_.push_back({d.time, EventType::kPickedUp, r, d.vehicle});
      metrics_.pickup_waits.push_back(d.time -
                                      arrival_time_[static_cast<size_t>(r)]);
      ++metrics_.total_picked_up;
    } else {
      state_[static_cast<size_t>(r)] = RiderState::kDroppedOff;
      log_.push_back({d.time, EventType::kDroppedOff, r, d.vehicle});
      ++metrics_.total_dropped_off;
    }
  }
  instance_.now = t;
}

void DispatchEngine::RefreshAnchor(int vehicle) {
  const TransferSequence& seq =
      solution_.schedules[static_cast<size_t>(vehicle)];
  // Mid-leg vehicles are prefiltered from the stop they are committed to
  // reach (admissible: any later insertion departs at or after that stop's
  // arrival >= now); parked and idle vehicles from their anchor node.
  const NodeId anchor = (seq.commit_floor() > 0 && seq.num_stops() > 0)
                            ? seq.stop(0).location
                            : seq.start_location();
  if (instance_.vehicles[static_cast<size_t>(vehicle)].location != anchor) {
    instance_.vehicles[static_cast<size_t>(vehicle)].location = anchor;
    vehicle_index_.Update(vehicle, anchor);
  }
}

void DispatchEngine::HandleArrival(const Pending& e) {
  const RiderId r = e.rider;
  arrival_time_[static_cast<size_t>(r)] = e.time;
  log_.push_back({e.time, EventType::kArrival, r, -1});
  ++metrics_.total_arrivals;
  ++window_arrivals_;
  if (config_.window <= 0) {
    // Per-arrival degenerate mode: exactly OnlineDispatcher's decision rule
    // (shared helper), committed immediately.
    Stopwatch watch;
    const DispatchDecision d = EvaluateArrival(instance_, &ctx_, solution_, r,
                                               config_.online_objective);
    if (d.accepted) {
      TransferSequence& seq =
          solution_.schedules[static_cast<size_t>(d.vehicle)];
      if (ApplyInsertion(&seq, instance_.Trip(r), d.plan).ok()) {
        solution_.assignment[static_cast<size_t>(r)] = d.vehicle;
        CommitRider(e.time, r, d.vehicle);
        metrics_.solve_latencies.push_back(watch.ElapsedSeconds());
        return;
      }
    }
    metrics_.solve_latencies.push_back(watch.ElapsedSeconds());
    state_[static_cast<size_t>(r)] = RiderState::kRejected;
    log_.push_back({e.time, EventType::kRejected, r, -1});
    ++metrics_.total_rejected;
    // Per-reason accounting: EvaluateArrival's verdict, or kDeadline when
    // an accepted plan failed to apply (the insertion no longer fits).
    switch (d.reason) {
      case RejectReason::kNoReachableVehicle:
        last_reject_ = EngineReject::kNoReachableVehicle;
        break;
      case RejectReason::kCapacity:
        last_reject_ = EngineReject::kCapacity;
        break;
      case RejectReason::kDeadline:
      case RejectReason::kNone:
        last_reject_ = EngineReject::kDeadline;
        break;
    }
    metrics_.rejects.Bump(last_reject_);
    return;
  }
  if (config_.max_queue > 0 &&
      static_cast<int>(queued_.size()) >= config_.max_queue) {
    // Admission control: the queue is full, shed the request now instead of
    // letting it expire silently.
    state_[static_cast<size_t>(r)] = RiderState::kRejected;
    log_.push_back({e.time, EventType::kRejected, r, -1});
    ++metrics_.total_rejected;
    last_reject_ = EngineReject::kQueueFull;
    metrics_.rejects.Bump(last_reject_);
    return;
  }
  state_[static_cast<size_t>(r)] = RiderState::kQueued;
  queued_.push_back(r);
  log_.push_back({e.time, EventType::kQueued, r, -1});
  Push(instance_.riders[static_cast<size_t>(r)].pickup_deadline, kRankExpire,
       r);
}

Status DispatchEngine::HandleCancel(const Pending& e) {
  const RiderId r = e.rider;
  // The request itself is always logged — replay needs the full input
  // stream, including requests that end up ignored.
  log_.push_back({e.time, EventType::kCancelRequested, r, -1});
  if (state_[static_cast<size_t>(r)] == RiderState::kQueued) {
    queued_.erase(std::remove(queued_.begin(), queued_.end(), r),
                  queued_.end());
    state_[static_cast<size_t>(r)] = RiderState::kCancelled;
    log_.push_back({e.time, EventType::kCancelled, r, -1});
    ++metrics_.total_cancelled;
    ++window_cancelled_;
    return Status::OK();
  }
  if (state_[static_cast<size_t>(r)] == RiderState::kAssigned) {
    const int j = solution_.assignment[static_cast<size_t>(r)];
    TransferSequence& seq = solution_.schedules[static_cast<size_t>(j)];
    // Schedule repair: excise the rider's stops (completing the in-flight
    // leg as a deadhead when necessary) and revalidate.
    URR_RETURN_NOT_OK(seq.ExciseRider(r));
    RefreshAnchor(j);
    solution_.assignment[static_cast<size_t>(r)] = -1;
    metrics_.booked_utility -= booked_[static_cast<size_t>(r)];
    booked_[static_cast<size_t>(r)] = 0;
    state_[static_cast<size_t>(r)] = RiderState::kCancelled;
    log_.push_back({e.time, EventType::kCancelled, r, j});
    ++metrics_.total_cancelled;
    ++window_cancelled_;
    return Status::OK();
  }
  if (state_[static_cast<size_t>(r)] == RiderState::kWaitingRetry) {
    // Displaced by a fault and backing off: the rider gives up before the
    // retry fires. The retry entry becomes stale and is dropped on arrival.
    state_[static_cast<size_t>(r)] = RiderState::kCancelled;
    log_.push_back({e.time, EventType::kCancelled, r, -1});
    ++metrics_.total_cancelled;
    ++window_cancelled_;
    return Status::OK();
  }
  // Picked up, served, expired, rejected or unknown: nothing to cancel.
  return Status::OK();
}

void DispatchEngine::HandleExpire(const Pending& e) {
  const RiderId r = e.rider;
  if (state_[static_cast<size_t>(r)] != RiderState::kQueued) return;  // stale
  // A breakdown rescue may have moved the rider's pickup deadline later; a
  // fresher expire entry is then pending and this one is stale.
  if (instance_.riders[static_cast<size_t>(r)].pickup_deadline > e.time) {
    return;
  }
  queued_.erase(std::remove(queued_.begin(), queued_.end(), r), queued_.end());
  state_[static_cast<size_t>(r)] = RiderState::kExpired;
  log_.push_back({e.time, EventType::kExpired, r, -1});
  ++metrics_.total_expired;
  ++window_expired_;
}

Status DispatchEngine::HandleFault(const Pending& e) {
  switch (e.fault) {
    case FaultKind::kBreakdown:
      return HandleBreakdown(e);
    case FaultKind::kEdgeDisrupt:
    case FaultKind::kEdgeRestore:
      return HandleEdgeFault(e);
    case FaultKind::kNone:
      break;
  }
  return Status::Internal("fault entry without a fault kind");
}

Status DispatchEngine::HandleBreakdown(const Pending& e) {
  const int j = e.vehicle;
  if (j < 0 || j >= static_cast<int>(instance_.vehicles.size())) {
    return Status::InvalidArgument("breakdown of unknown vehicle " +
                                   std::to_string(j));
  }
  if (dead_[static_cast<size_t>(j)]) return Status::OK();  // already down
  log_.push_back({e.time, EventType::kVehicleBreakdown, -1, j});
  ++metrics_.total_breakdowns;
  TransferSequence& seq = solution_.schedules[static_cast<size_t>(j)];
  // Not-yet-picked-up riders: excise (the first excision may complete an
  // in-flight leg as a deadhead) and send into re-dispatch backoff.
  for (RiderId r : seq.Riders()) {
    URR_RETURN_NOT_OK(seq.ExciseRider(r));
    Unbook(r);
    Redispatch(r, e.time);
  }
  // Onboard riders are stranded where the vehicle died (its current anchor
  // after the excisions). They re-enter the queue from that node with a
  // pickup deadline tightened so any new commitment still meets their
  // original dropoff deadline; when no slack remains they are abandoned.
  const std::vector<RiderId> onboard = seq.initial_onboard();
  const NodeId stranded_at = seq.start_location();
  const Cost t_down = std::max(e.time, seq.now());
  for (RiderId r : onboard) {
    Unbook(r);
    Rider& rider = instance_.riders[static_cast<size_t>(r)];
    const Cost dist = ctx_.oracle->Distance(stranded_at, rider.destination);
    const Cost latest_pickup = rider.dropoff_deadline - dist;
    if (!std::isfinite(dist) || latest_pickup <= t_down) {
      Abandon(r, t_down);
      continue;
    }
    rider.source = stranded_at;
    rider.pickup_deadline = latest_pickup;
    Redispatch(r, t_down);
  }
  // The dead vehicle: empty schedule anchored at the breakdown point and
  // capacity 0, so every solver's Lemma-3.1 capacity condition rejects any
  // future insertion — no solver or eval-path changes needed.
  solution_.schedules[static_cast<size_t>(j)] =
      TransferSequence(stranded_at, t_down, 0, seq.oracle());
  instance_.vehicles[static_cast<size_t>(j)].capacity = 0;
  instance_.vehicles[static_cast<size_t>(j)].location = stranded_at;
  vehicle_index_.Update(j, stranded_at);
  dead_[static_cast<size_t>(j)] = true;
  if (config_.validate_invariants) return ValidateLiveState();
  return Status::OK();
}

Status DispatchEngine::HandleEdgeFault(const Pending& e) {
  if (disruption_state_ == nullptr) {
    return Status::Internal("edge fault without a disruption overlay");
  }
  if (e.fault == FaultKind::kEdgeDisrupt) {
    log_.push_back(
        {e.time, EventType::kEdgeDisruption, -1, -1, e.edge_a, e.edge_b,
         e.value});
    disruption_state_->Disrupt(e.edge_a, e.edge_b, e.value);
    ++metrics_.total_edge_disruptions;
  } else {
    log_.push_back(
        {e.time, EventType::kEdgeRestore, -1, -1, e.edge_a, e.edge_b, 0});
    disruption_state_->Restore(e.edge_a, e.edge_b);
    ++metrics_.total_edge_restores;
  }
  // New routing epoch: cached candidate evaluations keyed to the old epoch
  // can never be served again.
  ctx_.eval_epoch = disruption_state_->epoch();
  return RepairAfterNetworkChange(e.time);
}

Status DispatchEngine::RepairAfterNetworkChange(Cost t) {
  for (size_t j = 0; j < solution_.schedules.size(); ++j) {
    TransferSequence& seq = solution_.schedules[j];
    if (seq.empty() && seq.initial_onboard().empty()) continue;
    // Recompute every leg against the perturbed (or restored) distances.
    seq.Refresh();
    // Repair any deadline the new distances break. Scanning arrivals vs
    // deadlines suffices: a negative flex always implies some downstream
    // arrival exceeds its deadline.
    bool changed = true;
    while (changed) {
      changed = false;
      for (int u = 0; u < seq.num_stops(); ++u) {
        const Stop& s = seq.stop(u);
        if (seq.EarliestArrival(u) <= s.deadline + 1e-7) continue;
        const bool onboard =
            s.type == StopType::kDropoff &&
            std::find(seq.initial_onboard().begin(),
                      seq.initial_onboard().end(),
                      s.rider) != seq.initial_onboard().end();
        if (onboard) {
          // The rider is in the vehicle and cannot leave: forgive the
          // deadline to the new earliest arrival instead of violating the
          // onboard-dropoff invariant.
          seq.RelaxStopDeadline(u, seq.EarliestArrival(u));
          ++metrics_.total_deadline_relaxed;
        } else {
          const RiderId r = s.rider;
          URR_RETURN_NOT_OK(seq.ExciseRider(r));
          Unbook(r);
          Redispatch(r, t);
        }
        changed = true;
        break;  // indices shifted; rescan from the top
      }
    }
    RefreshAnchor(static_cast<int>(j));
    URR_RETURN_NOT_OK(seq.Validate());
  }
  if (config_.validate_invariants) return ValidateLiveState();
  return Status::OK();
}

void DispatchEngine::Redispatch(RiderId rider, Cost t) {
  const size_t i = static_cast<size_t>(rider);
  ++retries_[i];
  const Cost slack = instance_.riders[i].pickup_deadline - t;
  if (retries_[i] > config_.max_redispatch || slack <= 0) {
    Abandon(rider, t);
    return;
  }
  // Exponential backoff, capped so the retry always lands before the
  // rider's pickup deadline.
  Cost backoff = config_.redispatch_backoff;
  for (int k = 1; k < retries_[i]; ++k) backoff *= 2;
  backoff = std::min(backoff, slack);
  state_[i] = RiderState::kWaitingRetry;
  Push(t + backoff, kRankRedispatch, rider);
}

void DispatchEngine::Abandon(RiderId rider, Cost t) {
  state_[static_cast<size_t>(rider)] = RiderState::kAbandoned;
  log_.push_back({t, EventType::kAbandoned, rider, -1});
  ++metrics_.total_abandoned;
}

void DispatchEngine::Unbook(RiderId rider) {
  const size_t i = static_cast<size_t>(rider);
  solution_.assignment[i] = -1;
  metrics_.booked_utility -= booked_[i];
  booked_[i] = 0;
}

void DispatchEngine::HandleRedispatch(const Pending& e) {
  const RiderId r = e.rider;
  if (state_[static_cast<size_t>(r)] != RiderState::kWaitingRetry) {
    return;  // stale: cancelled or abandoned while backing off
  }
  log_.push_back({e.time, EventType::kRedispatched, r, -1});
  ++metrics_.total_redispatched;
  if (config_.window <= 0) {
    // Per-arrival mode: one immediate attempt, abandoned on failure so the
    // rider still terminates in exactly one terminal state.
    const DispatchDecision d = EvaluateArrival(instance_, &ctx_, solution_, r,
                                               config_.online_objective);
    if (d.accepted) {
      TransferSequence& seq =
          solution_.schedules[static_cast<size_t>(d.vehicle)];
      if (ApplyInsertion(&seq, instance_.Trip(r), d.plan).ok()) {
        solution_.assignment[static_cast<size_t>(r)] = d.vehicle;
        CommitRider(e.time, r, d.vehicle);
        return;
      }
    }
    Abandon(r, e.time);
    return;
  }
  state_[static_cast<size_t>(r)] = RiderState::kQueued;
  queued_.push_back(r);
  Push(instance_.riders[static_cast<size_t>(r)].pickup_deadline, kRankExpire,
       r);
}

Status DispatchEngine::ValidateLiveState() const {
  for (size_t j = 0; j < solution_.schedules.size(); ++j) {
    const TransferSequence& seq = solution_.schedules[j];
    URR_RETURN_NOT_OK(seq.Validate());
    // Every scheduled stop must belong to a live rider assigned here.
    for (int u = 0; u < seq.num_stops(); ++u) {
      const RiderId r = seq.stop(u).rider;
      if (solution_.assignment[static_cast<size_t>(r)] !=
          static_cast<int>(j)) {
        return Status::Internal(
            "vehicle " + std::to_string(j) + " schedules rider " +
            std::to_string(r) + " not assigned to it");
      }
    }
  }
  for (size_t i = 0; i < state_.size(); ++i) {
    const int j = solution_.assignment[i];
    const RiderState s = state_[i];
    if (s == RiderState::kAssigned) {
      if (j < 0) {
        return Status::Internal("assigned rider " + std::to_string(i) +
                                " has no vehicle");
      }
      const auto [p, q] =
          solution_.schedules[static_cast<size_t>(j)].RiderStops(
              static_cast<RiderId>(i));
      if (p < 0 || q < 0) {
        return Status::Internal("assigned rider " + std::to_string(i) +
                                " missing stops in vehicle " +
                                std::to_string(j));
      }
    } else if (s == RiderState::kPickedUp) {
      if (j < 0) {
        return Status::Internal("onboard rider " + std::to_string(i) +
                                " has no vehicle");
      }
      const TransferSequence& seq =
          solution_.schedules[static_cast<size_t>(j)];
      const auto [p, q] = seq.RiderStops(static_cast<RiderId>(i));
      const bool onboard =
          std::find(seq.initial_onboard().begin(),
                    seq.initial_onboard().end(),
                    static_cast<RiderId>(i)) != seq.initial_onboard().end();
      if (!onboard || p >= 0 || q < 0) {
        return Status::Internal("onboard rider " + std::to_string(i) +
                                " inconsistent with vehicle " +
                                std::to_string(j));
      }
    } else if (j >= 0 && s != RiderState::kDroppedOff) {
      return Status::Internal("rider " + std::to_string(i) + " in state " +
                              std::to_string(static_cast<int>(s)) +
                              " still assigned to vehicle " +
                              std::to_string(j));
    }
  }
  return Status::OK();
}

Status DispatchEngine::SolveWindow(Cost t) {
  WindowMetrics wm;
  wm.window_start = window_start_;
  wm.window_end = t;
  wm.arrivals = window_arrivals_;
  wm.expired = window_expired_;
  wm.cancelled = window_cancelled_;
  wm.driven_cost = window_driven_;
  window_arrivals_ = 0;
  window_expired_ = 0;
  window_cancelled_ = 0;
  window_driven_ = 0;
  wm.queue_depth = static_cast<int>(queued_.size());
  if (!queued_.empty()) {
    Stopwatch watch;
    const int64_t retrieval_nanos_before =
        retrieval_stats_.retrieval_nanos.load();
    const int64_t retrieval_candidates_before =
        retrieval_stats_.candidates.load();
    const std::vector<RiderId> riders = queued_;  // FIFO arrival order
    // Only this window's riders may be bumped by BA-style replacement;
    // commitments from earlier windows are promises.
    std::vector<bool> removable(instance_.riders.size(), false);
    for (RiderId r : riders) removable[static_cast<size_t>(r)] = true;
    switch (config_.solver) {
      case WindowSolver::kCostFirst:
        GreedyArrange(instance_, &ctx_, riders, all_vehicles_,
                      GreedyObjective::kCostFirst, &solution_);
        break;
      case WindowSolver::kEfficientGreedy:
        GreedyArrange(instance_, &ctx_, riders, all_vehicles_,
                      GreedyObjective::kUtilityEfficiency, &solution_);
        break;
      case WindowSolver::kBilateral:
        BilateralArrange(instance_, &ctx_, riders, all_vehicles_, &solution_,
                         /*group_filter=*/nullptr, &removable);
        break;
      case WindowSolver::kGbsEg:
      case WindowSolver::kGbsBa:
        URR_RETURN_NOT_OK(GbsArrange(instance_, &ctx_, config_.gbs,
                                     *gbs_pre_ptr_, riders, &solution_,
                                     /*stats=*/nullptr, &removable));
        break;
    }
    wm.solve_seconds = watch.ElapsedSeconds();
    wm.retrieval_seconds =
        (retrieval_stats_.retrieval_nanos.load() - retrieval_nanos_before) *
        1e-9;
    wm.retrieval_candidates = static_cast<int>(
        retrieval_stats_.candidates.load() - retrieval_candidates_before);
    metrics_.solve_latencies.push_back(wm.solve_seconds);
    metrics_.retrieval_latencies.push_back(wm.retrieval_seconds);
    std::vector<RiderId> still_queued;
    for (RiderId r : riders) {
      const int j = solution_.assignment[static_cast<size_t>(r)];
      if (j >= 0) {
        CommitRider(t, r, j);
        wm.booked_utility += booked_[static_cast<size_t>(r)];
        ++wm.accepted;
      } else {
        still_queued.push_back(r);  // retried next window until expiry
      }
    }
    queued_ = std::move(still_queued);
  }
  wm.fleet_utilization = FleetUtilization();
  metrics_.windows.push_back(wm);
  return Status::OK();
}

void DispatchEngine::CommitRider(Cost t, RiderId rider, int vehicle) {
  state_[static_cast<size_t>(rider)] = RiderState::kAssigned;
  log_.push_back({t, EventType::kAssigned, rider, vehicle});
  // Booked utility: the rider's μ in the schedule as committed. Later
  // insertions into the same vehicle may change the realized value; the
  // booked number is what the solve promised and is what cancellation
  // un-books.
  const double mu = ctx_.model->RiderUtility(
      rider, vehicle, solution_.schedules[static_cast<size_t>(vehicle)]);
  booked_[static_cast<size_t>(rider)] = mu;
  metrics_.booked_utility += mu;
  ++metrics_.total_accepted;
}

double DispatchEngine::FleetUtilization() const {
  if (solution_.schedules.empty()) return 0;
  int busy = 0;
  for (const TransferSequence& s : solution_.schedules) {
    if (!s.empty() || !s.initial_onboard().empty()) ++busy;
  }
  return static_cast<double>(busy) /
         static_cast<double>(solution_.schedules.size());
}

std::string DispatchEngine::SolutionFingerprint() const {
  std::string out;
  char buf[48];
  const auto num = [&](double v) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
  };
  for (size_t j = 0; j < solution_.schedules.size(); ++j) {
    const TransferSequence& s = solution_.schedules[j];
    out += "v";
    out += std::to_string(j);
    out += "@";
    out += std::to_string(s.start_location());
    out += " t=";
    num(s.now());
    for (int u = 0; u < s.num_stops(); ++u) {
      const Stop& st = s.stop(u);
      out += (st.type == StopType::kPickup) ? " +" : " -";
      out += std::to_string(st.rider);
      out += "@";
      out += std::to_string(st.location);
    }
    out += " onboard";
    for (RiderId r : s.initial_onboard()) {
      out += " ";
      out += std::to_string(r);
    }
    out += "\n";
  }
  out += "assignment";
  for (int a : solution_.assignment) {
    out += " ";
    out += std::to_string(a);
  }
  out += "\nbooked ";
  num(metrics_.booked_utility);
  out += "\n";
  return out;
}

Result<StreamingWorkload> WorkloadFromLog(const StreamingWorkload& original,
                                          const std::vector<Event>& log) {
  StreamingWorkload w;
  w.instance = original.instance;
  const RiderId n = static_cast<RiderId>(w.instance.riders.size());
  for (const Event& e : log) {
    switch (e.type) {
      case EventType::kArrival:
      case EventType::kCancelRequested:
      case EventType::kRiderNoShow:
        if (e.rider < 0 || e.rider >= n) {
          return Status::InvalidArgument("log rider " +
                                         std::to_string(e.rider) +
                                         " outside the instance");
        }
        break;
      default:
        break;
    }
    switch (e.type) {
      case EventType::kArrival:
        w.arrivals.push_back({e.rider, e.time});
        break;
      case EventType::kCancelRequested:
        w.cancellations.push_back({e.rider, e.time});
        break;
      // Fault inputs. The log records them in chronological (time, seq)
      // order, which is exactly the order MakeFaultPlan's sorted vectors
      // are pushed in, so the reconstructed plan replays identically.
      case EventType::kVehicleBreakdown:
        w.faults.breakdowns.push_back({e.vehicle, e.time});
        break;
      case EventType::kEdgeDisruption:
        w.faults.edge_faults.push_back({e.edge_a, e.edge_b, e.time, e.value});
        break;
      case EventType::kEdgeRestore:
        w.faults.edge_restores.push_back({e.edge_a, e.edge_b, e.time});
        break;
      // No-show flags are observational: a flag only matters at the instant
      // an assigned pickup executes, and the log records exactly those
      // instants. Flags of riders whose pickup never executed cannot affect
      // the replay (by induction, the replayed run executes the same
      // pickups), so reconstructing only the observed flags is equivalence-
      // preserving.
      case EventType::kRiderNoShow: {
        if (w.faults.no_show.empty()) {
          w.faults.no_show.assign(static_cast<size_t>(n), false);
        }
        w.faults.no_show[static_cast<size_t>(e.rider)] = true;
        break;
      }
      default:
        break;
    }
  }
  return w;
}

}  // namespace urr
