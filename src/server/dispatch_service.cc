#include "server/dispatch_service.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/json_writer.h"

namespace urr {

namespace {

/// Starts the standard response envelope; the caller adds op fields and
/// closes the object.
JsonWriter Envelope(int64_t id, bool ok, int code) {
  JsonWriter w;
  w.BeginObject().Field("id", id).Field("ok", ok).Field("code", code);
  return w;
}

std::string JournalPath(const std::string& dir) {
  return dir + "/journal.wal";
}

Status EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) {
    return Status::OK();
  }
  return Status::IOError("cannot create journal dir " + dir + ": " +
                         std::string(std::strerror(errno)));
}

}  // namespace

DispatchService::DispatchService(const StreamingWorkload* workload,
                                 SolverContext* ctx,
                                 const EngineConfig& engine_config,
                                 const ServiceConfig& config,
                                 AdmissionController* admission)
    : workload_(workload),
      config_(config),
      admission_(admission),
      engine_(workload, ctx, engine_config),
      steady_(config.timescale),
      dedup_(config.dedup_window) {}

Status DispatchService::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (config_.journal_dir.empty()) {
    URR_RETURN_NOT_OK(engine_.BeginLive());
  } else {
    URR_RETURN_NOT_OK(EnsureDir(config_.journal_dir));
    if (config_.recover) {
      URR_RETURN_NOT_OK(RecoverLocked());
    } else {
      URR_RETURN_NOT_OK(StartFreshJournalLocked());
    }
    URR_ASSIGN_OR_RETURN(
        RequestJournal journal,
        RequestJournal::Open(JournalPath(config_.journal_dir),
                             config_.journal_fsync));
    journal_.emplace(std::move(journal));
  }
  epoch_ = engine_.now();
  steady_.Start();
  return Status::OK();
}

Status DispatchService::StartFreshJournalLocked() {
  // Refuse to append to leftover state: silently continuing a previous
  // run's journal would interleave two incompatible histories.
  URR_ASSIGN_OR_RETURN(JournalScan scan,
                       ScanJournal(JournalPath(config_.journal_dir)));
  if (scan.file_bytes > 0) {
    return Status::InvalidArgument(
        "journal dir " + config_.journal_dir + " already holds " +
        std::to_string(scan.payloads.size()) +
        " record(s); recover from it (--recover) or point at a fresh "
        "directory");
  }
  return engine_.BeginLive();
}

Status DispatchService::RecoverLocked() {
  // 1. Newest checkpoint that validates (file-level checksum + envelope).
  //    Corrupt ones — e.g. a crash raced the atomic rename — are skipped
  //    with a note; with none left the journal replays from the start.
  URR_ASSIGN_OR_RETURN(auto checkpoints,
                       ListServiceCheckpoints(config_.journal_dir));
  ServiceCheckpoint ckpt;
  bool have_checkpoint = false;
  for (const auto& [seq, path] : checkpoints) {
    Result<ServiceCheckpoint> loaded = ReadServiceCheckpoint(path);
    if (loaded.ok()) {
      ckpt = std::move(*loaded);
      have_checkpoint = true;
      break;
    }
    if (!recovery_note_.empty()) recovery_note_ += "; ";
    recovery_note_ += loaded.status().message();
  }
  if (have_checkpoint) {
    URR_RETURN_NOT_OK(engine_.Restore(ckpt.engine_checkpoint));
    for (auto& [req_id, response] : ckpt.dedup) {
      dedup_.Insert(req_id, std::move(response));
    }
    journal_seq_ = ckpt.seq;
    last_checkpoint_seq_ = ckpt.seq;
    recovered_checkpoint_seq_ = ckpt.seq;
  }
  URR_RETURN_NOT_OK(engine_.BeginLive());
  // 2. Scan the journal; a torn/corrupt tail is truncated to the valid
  //    prefix — its precise Status is kept, not fatal.
  const std::string path = JournalPath(config_.journal_dir);
  URR_ASSIGN_OR_RETURN(JournalScan scan, ScanJournal(path));
  if (!scan.tail.ok()) {
    URR_RETURN_NOT_OK(TruncateJournal(path, scan.valid_bytes));
    if (!recovery_note_.empty()) recovery_note_ += "; ";
    recovery_note_ += "truncated torn tail (" + scan.tail.message() + ")";
  }
  if (static_cast<int64_t>(scan.payloads.size()) < journal_seq_) {
    return Status::IOError(
        "journal holds " + std::to_string(scan.payloads.size()) +
        " valid record(s) but the checkpoint was taken at seq " +
        std::to_string(journal_seq_) +
        " — the journal and checkpoints are from different runs");
  }
  // 3. Replay the suffix through the same dispatch path the live requests
  //    take. Dispatch is deterministic in (request, stamped time) order,
  //    so this reproduces the pre-crash engine state and event log and
  //    rebuilds the dedup window with the original responses.
  for (size_t i = static_cast<size_t>(journal_seq_); i < scan.payloads.size();
       ++i) {
    Result<Request> req = ParseRequest(scan.payloads[i]);
    if (!req.ok()) {
      return Status::IOError("journal record " + std::to_string(i) +
                             " does not parse: " + req.status().message());
    }
    if (!req->has_time) {
      return Status::IOError("journal record " + std::to_string(i) +
                             " carries no time stamp");
    }
    std::string response = DispatchMutating(*req, req->time);
    if (req->req_id >= 0) dedup_.Insert(req->req_id, std::move(response));
    ++journal_seq_;
    ++recovered_replayed_;
  }
  recovered_ = true;
  return Status::OK();
}

Status DispatchService::Finish() {
  std::lock_guard<std::mutex> lock(mu_);
  if (engine_.finished()) return Status::OK();
  return engine_.FinishLive();
}

std::string DispatchService::SerializedLog() {
  std::lock_guard<std::mutex> lock(mu_);
  return engine_.SerializedLog();
}

std::string DispatchService::MetricsJson() {
  std::lock_guard<std::mutex> lock(mu_);
  return EngineMetricsJson(engine_.metrics(), /*include_windows=*/false);
}

int DispatchService::CodeFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return 200;
    case StatusCode::kNotFound: return 404;
    case StatusCode::kAlreadyExists: return 409;
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange: return 400;
    default: return 500;
  }
}

std::string DispatchService::Handle(std::string_view payload) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  Result<Request> parsed = ParseRequest(payload);
  if (!parsed.ok()) {
    return ErrorResponse(-1, 400, parsed.status().message());
  }
  return HandleParsed(*parsed);
}

std::string DispatchService::HandleParsed(const Request& req) {
  std::lock_guard<std::mutex> lock(mu_);
  // Reject mutations once a shutdown was served; reads stay available so
  // draining clients can still observe final state.
  const bool mutating = req.op == RequestOp::kSubmitRider ||
                        req.op == RequestOp::kCancelRider ||
                        req.op == RequestOp::kInjectFault ||
                        req.op == RequestOp::kTick;
  if (mutating && shutdown_.load(std::memory_order_acquire)) {
    rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(req.id, 503, "service is shutting down");
  }
  // Stamp the injection time. Virtual clock: the request's own `time` is
  // the time (required for mutations). Steady clock: elapsed scaled wall
  // time since Start(), clamped monotone against the engine clock.
  Cost t = engine_.now();
  if (mutating) {
    if (config_.virtual_clock) {
      if (!req.has_time) {
        return ErrorResponse(
            req.id, 400,
            "this server runs a virtual clock: the request must carry "
            "\"time\"");
      }
      t = req.time;
    } else {
      t = std::max(engine_.now(), epoch_ + steady_.Now());
      if (req.op == RequestOp::kTick && req.has_time) t = req.time;
    }
  }
  if (mutating) return HandleMutating(req, t);
  switch (req.op) {
    case RequestOp::kQueryStatus: return HandleQuery(req);
    case RequestOp::kMetrics: return HandleMetrics(req);
    case RequestOp::kWorkload: return HandleWorkload(req);
    case RequestOp::kShutdown: return HandleShutdown(req);
    default: break;
  }
  return ErrorResponse(req.id, 500, "unhandled op");
}

std::string DispatchService::HandleMutating(const Request& req, Cost t) {
  // Idempotency first: a retry of an executed req_id gets the cached
  // response of the first execution — it must not re-journal, re-mutate,
  // or trip the engine's monotone-time check.
  if (req.req_id >= 0) {
    if (const std::string* cached = dedup_.Lookup(req.req_id)) {
      dedup_hits_.fetch_add(1, std::memory_order_relaxed);
      return *cached;
    }
  }
  // An inject_fault naming an unknown vehicle or node cannot mutate
  // anything, so it is answered before it reaches the journal.
  if (req.op == RequestOp::kInjectFault) {
    if (const Status ids = CheckInjectIds(req); !ids.ok()) {
      return ErrorResponse(req.id, CodeFor(ids), ids.message());
    }
  }
  if (journal_.has_value()) {
    if (!journal_fault_.ok()) {
      // A previous append failed: the journal no longer covers the engine
      // state, so accepting further mutations would make recovery lie.
      return ErrorResponse(req.id, 503,
                           "journal unavailable: " + journal_fault_.message());
    }
    // Write-ahead: the record (with its stamped time) is durable before
    // the engine sees the request. A crash between append and apply is
    // safe — recovery replays the record; the client saw no response and
    // retries into the rebuilt dedup window.
    const Status st = journal_->Append(SerializeRequest(req, t));
    if (!st.ok()) {
      journal_fault_ = st;
      return ErrorResponse(req.id, 503,
                           "journal unavailable: " + st.message());
    }
    ++journal_seq_;
  }
  std::string response = DispatchMutating(req, t);
  if (req.req_id >= 0) dedup_.Insert(req.req_id, response);
  MaybeCheckpointLocked();
  return response;
}

std::string DispatchService::DispatchMutating(const Request& req, Cost t) {
  switch (req.op) {
    case RequestOp::kSubmitRider: return HandleSubmit(req, t);
    case RequestOp::kCancelRider: return HandleCancel(req, t);
    case RequestOp::kInjectFault: return HandleInject(req, t);
    case RequestOp::kTick: return HandleTick(req, t);
    default: break;
  }
  return ErrorResponse(req.id, 500, "unhandled mutating op");
}

void DispatchService::MaybeCheckpointLocked() {
  if (!journal_.has_value() || config_.checkpoint_every <= 0) return;
  if (journal_seq_ - last_checkpoint_seq_ < config_.checkpoint_every) return;
  ServiceCheckpoint ckpt;
  ckpt.seq = journal_seq_;
  ckpt.dedup = dedup_.Entries();
  ckpt.engine_checkpoint = engine_.Checkpoint();
  const Status st = WriteServiceCheckpoint(config_.journal_dir, ckpt);
  if (st.ok()) {
    last_checkpoint_seq_ = journal_seq_;
    checkpoint_fault_ = Status::OK();
  } else {
    // Non-fatal: the journal still covers everything, recovery just
    // replays a longer suffix. Kept for the metrics report.
    checkpoint_fault_ = st;
  }
}

std::string DispatchService::HandleSubmit(const Request& req, Cost t) {
  const auto n = static_cast<RiderId>(engine_.instance().riders.size());
  if (req.rider < 0 || req.rider >= n) {
    return ErrorResponse(req.id, 404,
                         "unknown rider " + std::to_string(req.rider));
  }
  Result<DispatchEngine::SubmitOutcome> out = engine_.SubmitLive(req.rider, t);
  if (!out.ok()) {
    return ErrorResponse(req.id, CodeFor(out.status()),
                         out.status().message());
  }
  if (out->reject == RejectReason::kQueueFull) {
    // Admission control shed the request: the 429 of this protocol.
    if (admission_ != nullptr) admission_->CountShed(RejectReason::kQueueFull);
    JsonWriter w = Envelope(req.id, false, 429);
    w.Field("result", "rejected")
        .Field("reason", RejectReasonName(out->reject))
        .Field("queue_depth", engine_.queue_depth())
        .EndObject();
    return w.str();
  }
  JsonWriter w = Envelope(req.id, true, 200);
  if (out->assigned) {
    w.Field("result", "assigned").Field("vehicle", out->vehicle);
  } else if (out->queued) {
    w.Field("result", "queued").Field("queue_depth", engine_.queue_depth());
  } else if (out->reject != RejectReason::kNone) {
    // Dispatch-infeasible (W = 0 path): the request was served, the answer
    // is no — a 200 with the reason, not an error.
    w.Field("result", "rejected").Field("reason",
                                        RejectReasonName(out->reject));
  } else {
    w.Field("result", "done");  // e.g. expired at submit instant
  }
  w.Field("time", t).EndObject();
  return w.str();
}

std::string DispatchService::HandleCancel(const Request& req, Cost t) {
  const auto n = static_cast<RiderId>(engine_.instance().riders.size());
  if (req.rider < 0 || req.rider >= n) {
    return ErrorResponse(req.id, 404,
                         "unknown rider " + std::to_string(req.rider));
  }
  Result<bool> out = engine_.CancelLive(req.rider, t);
  if (!out.ok()) {
    return ErrorResponse(req.id, CodeFor(out.status()),
                         out.status().message());
  }
  JsonWriter w = Envelope(req.id, true, 200);
  w.Field("result", *out ? "cancelled" : "ignored")
      .Field("time", t)
      .EndObject();
  return w.str();
}

std::string DispatchService::HandleQuery(const Request& req) {
  Result<DispatchEngine::RiderStatus> st = engine_.QueryRider(req.rider);
  if (!st.ok()) {
    return ErrorResponse(req.id, 404, st.status().message());
  }
  JsonWriter w = Envelope(req.id, true, 200);
  w.Field("state", st->state)
      .Field("vehicle", st->vehicle)
      .Field("booked_utility", st->booked_utility)
      .Field("arrival_time", st->arrival_time)
      .EndObject();
  return w.str();
}

std::string DispatchService::HandleMetrics(const Request& req) {
  JsonWriter w = Envelope(req.id, true, 200);
  w.Field("now", engine_.now())
      .Field("queue_depth", engine_.queue_depth())
      .Field("finished", engine_.finished())
      .Field("requests", requests_.load(std::memory_order_relaxed))
      .Field("rejected_shutdown",
             rejected_shutdown_.load(std::memory_order_relaxed));
  if (admission_ != nullptr) {
    const RejectCounts shed = admission_->shed();
    w.Key("sessions")
        .BeginObject()
        .Field("active", admission_->active_sessions())
        .Field("peak", admission_->peak_sessions())
        .Field("total", admission_->total_sessions())
        .EndObject();
    w.Field("shed_queue_full", shed.queue_full);
  }
  if (journal_.has_value()) {
    w.Key("journal")
        .BeginObject()
        .Field("records", journal_seq_)
        .Field("last_checkpoint_seq", last_checkpoint_seq_)
        .Field("dedup_hits", dedup_hits_.load(std::memory_order_relaxed))
        .Field("dedup_size", dedup_.size())
        .Field("append_fault", journal_fault_.ok() ? std::string()
                                                   : journal_fault_.message())
        .Field("checkpoint_fault",
               checkpoint_fault_.ok() ? std::string()
                                      : checkpoint_fault_.message())
        .Field("recovered", recovered_)
        .Field("recovered_checkpoint_seq", recovered_checkpoint_seq_)
        .Field("recovered_replayed", recovered_replayed_)
        .Field("recovery_note", recovery_note_)
        .EndObject();
  }
  // Splice the canonical engine metrics object in as-is.
  w.EndObject();
  std::string out = w.str();
  out.pop_back();  // the envelope's closing '}'
  out += ",\"metrics\":";
  out += EngineMetricsJson(engine_.metrics(), /*include_windows=*/false);
  out += '}';
  return out;
}

std::string DispatchService::HandleWorkload(const Request& req) {
  // The recorded request schedule, for replay drivers: they fetch it here
  // instead of rebuilding the world, then submit each entry at its
  // recorded time over the socket. offset/limit window each list
  // independently so a workload too large for one frame (the 1 MiB cap)
  // can be fetched in pages; the *_total fields tell the client when it
  // has everything.
  const auto window = [&](size_t total) -> std::pair<size_t, size_t> {
    const size_t begin = std::min(static_cast<size_t>(req.offset), total);
    const size_t end = req.limit == 0
                           ? total
                           : std::min(begin + static_cast<size_t>(req.limit),
                                      total);
    return {begin, end};
  };
  JsonWriter w = Envelope(req.id, true, 200);
  const auto [a_begin, a_end] = window(workload_->arrivals.size());
  w.Key("arrivals").BeginArray();
  for (size_t i = a_begin; i < a_end; ++i) {
    const RiderArrival& a = workload_->arrivals[i];
    w.BeginArray().Value(a.rider).Value(a.time).EndArray();
  }
  w.EndArray();
  const auto [c_begin, c_end] = window(workload_->cancellations.size());
  w.Key("cancellations").BeginArray();
  for (size_t i = c_begin; i < c_end; ++i) {
    const CancelRequest& c = workload_->cancellations[i];
    w.BeginArray().Value(c.rider).Value(c.time).EndArray();
  }
  w.EndArray();
  w.Field("arrivals_total",
          static_cast<int64_t>(workload_->arrivals.size()))
      .Field("cancellations_total",
             static_cast<int64_t>(workload_->cancellations.size()))
      .Field("riders", static_cast<int>(engine_.instance().riders.size()))
      .Field("vehicles", static_cast<int>(engine_.instance().vehicles.size()))
      .Field("now", engine_.now())
      .EndObject();
  return w.str();
}

Status DispatchService::CheckInjectIds(const Request& req) const {
  if (req.fault_kind == "breakdown") {
    if (req.vehicle < 0 ||
        req.vehicle >= static_cast<int>(engine_.instance().vehicles.size())) {
      return Status::NotFound("unknown vehicle " +
                              std::to_string(req.vehicle));
    }
    return Status::OK();
  }
  for (const NodeId v : {req.edge_a, req.edge_b}) {
    if (v < 0 || v >= engine_.instance().network->num_nodes()) {
      return Status::NotFound("unknown node " + std::to_string(v));
    }
  }
  return Status::OK();
}

std::string DispatchService::HandleInject(const Request& req, Cost t) {
  // Checked again on the dispatch path: recovery replays journal records
  // through it, and a journal written by an older service may hold an
  // unknown-id inject, which must still answer 404.
  Status st = CheckInjectIds(req);
  if (!st.ok()) return ErrorResponse(req.id, CodeFor(st), st.message());
  if (req.fault_kind == "breakdown") {
    st = engine_.InjectBreakdownLive(req.vehicle, t);
  } else if (req.fault_kind == "edge_disrupt") {
    st = engine_.InjectEdgeFaultLive(req.edge_a, req.edge_b, req.factor, t);
  } else {
    st = engine_.InjectEdgeRestoreLive(req.edge_a, req.edge_b, t);
  }
  if (!st.ok()) {
    return ErrorResponse(req.id, CodeFor(st), st.message());
  }
  JsonWriter w = Envelope(req.id, true, 200);
  w.Field("result", "injected").Field("time", t).EndObject();
  return w.str();
}

std::string DispatchService::HandleTick(const Request& req, Cost t) {
  const Status st = engine_.AdvanceLive(t);
  if (!st.ok()) {
    return ErrorResponse(req.id, CodeFor(st), st.message());
  }
  JsonWriter w = Envelope(req.id, true, 200);
  w.Field("result", "ticked").Field("now", engine_.now()).EndObject();
  return w.str();
}

std::string DispatchService::HandleShutdown(const Request& req) {
  shutdown_.store(true, std::memory_order_release);
  JsonWriter w = Envelope(req.id, true, 200);
  w.Field("result", "shutting_down").EndObject();
  return w.str();
}

}  // namespace urr
