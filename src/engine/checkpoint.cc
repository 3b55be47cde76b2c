// Checkpoint/restore for the streaming dispatch engine (DESIGN.md §10): a
// self-contained text snapshot of the full live state — clock, RNG stream,
// rider lifecycle, fleet schedules, pending event queue, active disruptions
// and the event-log prefix. Restoring a snapshot into a fresh engine (same
// workload + context + config) and calling Run() replays a byte-identical
// log suffix and reaches the identical final SolutionFingerprint: every
// engine decision is a pure function of the state captured here.
//
// All times and utilities are printed %.17g so they round-trip exactly;
// derived schedule fields (Eqs 6–8) are NOT stored — FromParts recomputes
// them through the (deterministic) oracle, with active disruptions restored
// first so the rebuilt legs see the same perturbed distances.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"

namespace urr {

namespace {

constexpr char kMagic[] = "urrckpt";
// Version history:
//   1 — original format.
//   2 — adds the "index" provenance line (snapshot checksum + path) right
//       after the header. Only version 2 restores.
constexpr int kVersion = 2;

void AppendNum(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *out += buf;
}

void AppendInt(std::string* out, int64_t v) { *out += std::to_string(v); }

Status ExpectTag(std::istringstream& in, const char* want) {
  std::string tag;
  in >> tag;
  if (!in || tag != want) {
    return Status::InvalidArgument("checkpoint: expected section '" +
                                   std::string(want) + "', got '" + tag + "'");
  }
  return Status::OK();
}

Status CheckStream(const std::istringstream& in, const char* where) {
  if (!in) {
    return Status::InvalidArgument(std::string("checkpoint: truncated in ") +
                                   where);
  }
  return Status::OK();
}

/// Reads one %.17g-formatted number. istream's num_get rejects "inf" (how
/// closures and relaxed-to-unreachable deadlines serialize), so this goes
/// through strtod, which accepts the full C locale grammar.
Status ReadNum(std::istringstream& in, double* out) {
  std::string tok;
  in >> tok;
  if (!in || tok.empty()) {
    return Status::InvalidArgument("checkpoint: missing number");
  }
  char* end = nullptr;
  *out = std::strtod(tok.c_str(), &end);
  if (end != tok.c_str() + tok.size()) {
    return Status::InvalidArgument("checkpoint: bad number '" + tok + "'");
  }
  return Status::OK();
}

}  // namespace

std::string DispatchEngine::Checkpoint() const {
  std::string out = kMagic;
  out += " ";
  AppendInt(&out, kVersion);
  // Index-snapshot provenance: checksum then path ("-" when the routing
  // stack was built fresh). The path is the remainder of the line.
  out += "\nindex ";
  out += std::to_string(config_.index_snapshot_checksum);
  out += " ";
  out += config_.index_snapshot_path.empty() ? "-"
                                             : config_.index_snapshot_path;
  out += "\nclock ";
  AppendNum(&out, instance_.now);
  out += " ";
  AppendNum(&out, window_start_);
  out += "\nseq ";
  AppendInt(&out, next_seq_);
  out += " ";
  AppendInt(&out, pending_inputs_);
  out += " ";
  AppendInt(&out, windows_since_checkpoint_);
  out += "\nwindow ";
  AppendInt(&out, window_arrivals_);
  out += " ";
  AppendInt(&out, window_expired_);
  out += " ";
  AppendInt(&out, window_cancelled_);
  out += " ";
  AppendNum(&out, window_driven_);
  out += "\nrng ";
  {
    std::ostringstream rng;
    rng << const_cast<Rng&>(rng_).engine();
    out += rng.str();
  }
  out += "\nriders ";
  AppendInt(&out, static_cast<int64_t>(instance_.riders.size()));
  out += "\n";
  for (size_t i = 0; i < instance_.riders.size(); ++i) {
    const Rider& r = instance_.riders[i];
    AppendInt(&out, r.source);
    out += " ";
    AppendInt(&out, r.destination);
    out += " ";
    AppendNum(&out, r.pickup_deadline);
    out += " ";
    AppendNum(&out, r.dropoff_deadline);
    out += " ";
    AppendInt(&out, static_cast<int>(state_[i]));
    out += " ";
    AppendNum(&out, arrival_time_[i]);
    out += " ";
    AppendNum(&out, booked_[i]);
    out += " ";
    AppendInt(&out, retries_[i]);
    out += "\n";
  }
  out += "vehicles ";
  AppendInt(&out, static_cast<int64_t>(instance_.vehicles.size()));
  out += "\n";
  for (size_t j = 0; j < instance_.vehicles.size(); ++j) {
    AppendInt(&out, instance_.vehicles[j].location);
    out += " ";
    AppendInt(&out, instance_.vehicles[j].capacity);
    out += " ";
    AppendInt(&out, dead_[j] ? 1 : 0);
    out += "\n";
  }
  out += "queued ";
  AppendInt(&out, static_cast<int64_t>(queued_.size()));
  for (RiderId r : queued_) {
    out += " ";
    AppendInt(&out, r);
  }
  out += "\ndisruptions ";
  if (disruption_state_ != nullptr) {
    AppendInt(&out, static_cast<int64_t>(disruption_state_->edges().size()));
    out += " ";
    AppendInt(&out, static_cast<int64_t>(disruption_state_->epoch()));
    out += "\n";
    for (const DisruptedEdge& e : disruption_state_->edges()) {
      AppendInt(&out, e.a);
      out += " ";
      AppendInt(&out, e.b);
      out += " ";
      AppendNum(&out, e.factor);
      out += "\n";
    }
  } else {
    out += "0 0\n";
  }
  // Pending event queue, drained from a copy in heap (chronological) order.
  {
    auto q = queue_;
    out += "queue ";
    AppendInt(&out, static_cast<int64_t>(q.size()));
    out += "\n";
    while (!q.empty()) {
      const Pending& e = q.top();
      AppendNum(&out, e.time);
      out += " ";
      AppendInt(&out, e.rank);
      out += " ";
      AppendInt(&out, e.seq);
      out += " ";
      AppendInt(&out, e.rider);
      out += " ";
      AppendInt(&out, static_cast<int>(e.fault));
      out += " ";
      AppendInt(&out, e.vehicle);
      out += " ";
      AppendInt(&out, e.edge_a);
      out += " ";
      AppendInt(&out, e.edge_b);
      out += " ";
      AppendNum(&out, e.value);
      out += "\n";
      q.pop();
    }
  }
  out += "schedules ";
  AppendInt(&out, static_cast<int64_t>(solution_.schedules.size()));
  out += "\n";
  for (const TransferSequence& s : solution_.schedules) {
    AppendInt(&out, s.start_location());
    out += " ";
    AppendNum(&out, s.now());
    out += " ";
    AppendInt(&out, s.capacity());
    out += " ";
    AppendInt(&out, s.commit_floor());
    out += " ";
    AppendInt(&out, static_cast<int64_t>(s.initial_onboard().size()));
    out += " ";
    AppendInt(&out, s.num_stops());
    for (RiderId r : s.initial_onboard()) {
      out += " ";
      AppendInt(&out, r);
    }
    out += "\n";
    for (int u = 0; u < s.num_stops(); ++u) {
      const Stop& st = s.stop(u);
      AppendInt(&out, st.location);
      out += " ";
      AppendInt(&out, st.rider);
      out += " ";
      AppendInt(&out, static_cast<int>(st.type));
      out += " ";
      AppendNum(&out, st.deadline);
      out += "\n";
    }
  }
  out += "assignment";
  for (int a : solution_.assignment) {
    out += " ";
    AppendInt(&out, a);
  }
  out += "\nmetrics ";
  AppendInt(&out, metrics_.total_arrivals);
  out += " ";
  AppendInt(&out, metrics_.total_accepted);
  out += " ";
  AppendInt(&out, metrics_.total_rejected);
  out += " ";
  AppendInt(&out, metrics_.total_expired);
  out += " ";
  AppendInt(&out, metrics_.total_cancelled);
  out += " ";
  AppendInt(&out, metrics_.total_picked_up);
  out += " ";
  AppendInt(&out, metrics_.total_dropped_off);
  out += " ";
  AppendNum(&out, metrics_.booked_utility);
  out += " ";
  AppendNum(&out, metrics_.driven_cost);
  out += " ";
  AppendInt(&out, metrics_.total_breakdowns);
  out += " ";
  AppendInt(&out, metrics_.total_no_shows);
  out += " ";
  AppendInt(&out, metrics_.total_edge_disruptions);
  out += " ";
  AppendInt(&out, metrics_.total_edge_restores);
  out += " ";
  AppendInt(&out, metrics_.total_redispatched);
  out += " ";
  AppendInt(&out, metrics_.total_abandoned);
  out += " ";
  AppendInt(&out, metrics_.total_deadline_relaxed);
  out += "\nlog ";
  AppendInt(&out, static_cast<int64_t>(log_.size()));
  out += "\n";
  out += SerializeEventLog(log_);
  out += "end\n";
  return out;
}

Status DispatchEngine::Restore(const std::string& checkpoint) {
  if (ran_) {
    return Status::Internal("Restore must precede Run on a fresh engine");
  }
  if (restored_) return Status::Internal("Restore called twice");
  // GBS preprocessing consumes the engine Rng before any event fires; run
  // it now, against the pristine constructor state (identical to what the
  // original run saw), *before* the Rng is overwritten with the snapshot's
  // mid-run stream.
  if ((config_.solver == WindowSolver::kGbsEg ||
       config_.solver == WindowSolver::kGbsBa) &&
      config_.gbs_preprocess == nullptr) {
    config_.gbs.base = config_.solver == WindowSolver::kGbsEg
                           ? GbsBase::kEfficientGreedy
                           : GbsBase::kBilateral;
    URR_ASSIGN_OR_RETURN(GbsPreprocess pre,
                         PrepareGbs(instance_, &ctx_, config_.gbs));
    gbs_pre_ = std::move(pre);
  }

  std::istringstream in(checkpoint);
  std::string tag;
  int version = 0;
  in >> tag >> version;
  if (!in || tag != kMagic) {
    return Status::InvalidArgument("not a checkpoint (missing '" +
                                   std::string(kMagic) + "' header)");
  }
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported checkpoint version " +
                                   std::to_string(version));
  }
  URR_RETURN_NOT_OK(ExpectTag(in, "index"));
  uint64_t checksum = 0;
  std::string path;
  in >> checksum;
  std::getline(in, path);
  URR_RETURN_NOT_OK(CheckStream(in, "index"));
  if (!path.empty() && path.front() == ' ') path.erase(0, 1);
  if (path == "-") path.clear();
  if (path != config_.index_snapshot_path ||
      checksum != config_.index_snapshot_checksum) {
    return Status::InvalidArgument(
        "checkpoint was taken against index snapshot '" + path +
        "' (checksum " + std::to_string(checksum) +
        ") but this engine uses '" + config_.index_snapshot_path +
        "' (checksum " + std::to_string(config_.index_snapshot_checksum) +
        "); replaying across different preprocessing is unsafe");
  }
  // Every id is range-checked against the network and the instance before
  // anything is sized or indexed with it.
  const NodeId num_nodes = instance_.network->num_nodes();
  const auto num_riders_i = static_cast<int64_t>(instance_.riders.size());
  const auto num_vehicles_i = static_cast<int64_t>(instance_.vehicles.size());
  auto bad_node = [num_nodes](int64_t v) { return v < 0 || v >= num_nodes; };
  auto bad_rider = [num_riders_i](int64_t r) {
    return r < 0 || r >= num_riders_i;
  };
  auto bad_vehicle = [num_vehicles_i](int64_t j) {
    return j < 0 || j >= num_vehicles_i;
  };
  auto bad_id = [](const char* what, int64_t id) {
    return Status::InvalidArgument("checkpoint: " + std::string(what) +
                                   " id " + std::to_string(id) +
                                   " out of range");
  };

  URR_RETURN_NOT_OK(ExpectTag(in, "clock"));
  URR_RETURN_NOT_OK(ReadNum(in, &instance_.now));
  URR_RETURN_NOT_OK(ReadNum(in, &window_start_));
  URR_RETURN_NOT_OK(ExpectTag(in, "seq"));
  in >> next_seq_ >> pending_inputs_ >> windows_since_checkpoint_;
  URR_RETURN_NOT_OK(ExpectTag(in, "window"));
  in >> window_arrivals_ >> window_expired_ >> window_cancelled_;
  URR_RETURN_NOT_OK(ReadNum(in, &window_driven_));
  URR_RETURN_NOT_OK(ExpectTag(in, "rng"));
  in >> rng_.engine();
  URR_RETURN_NOT_OK(CheckStream(in, "header"));

  URR_RETURN_NOT_OK(ExpectTag(in, "riders"));
  size_t num_riders = 0;
  in >> num_riders;
  if (!in || num_riders != instance_.riders.size()) {
    return Status::InvalidArgument(
        "checkpoint rider count does not match the workload");
  }
  for (size_t i = 0; i < num_riders; ++i) {
    Rider& r = instance_.riders[i];
    int state = 0;
    in >> r.source >> r.destination;
    URR_RETURN_NOT_OK(ReadNum(in, &r.pickup_deadline));
    URR_RETURN_NOT_OK(ReadNum(in, &r.dropoff_deadline));
    in >> state;
    URR_RETURN_NOT_OK(ReadNum(in, &arrival_time_[i]));
    URR_RETURN_NOT_OK(ReadNum(in, &booked_[i]));
    in >> retries_[i];
    if (!in) break;  // reported by the CheckStream below
    if (bad_node(r.source) || bad_node(r.destination)) {
      return bad_id("rider endpoint node", bad_node(r.source) ? r.source
                                                               : r.destination);
    }
    if (state < 0 || state > static_cast<int>(RiderState::kAbandoned)) {
      return Status::InvalidArgument("checkpoint: bad rider state " +
                                     std::to_string(state));
    }
    state_[i] = static_cast<RiderState>(state);
  }
  URR_RETURN_NOT_OK(CheckStream(in, "riders"));

  URR_RETURN_NOT_OK(ExpectTag(in, "vehicles"));
  size_t num_vehicles = 0;
  in >> num_vehicles;
  if (!in || num_vehicles != instance_.vehicles.size()) {
    return Status::InvalidArgument(
        "checkpoint vehicle count does not match the workload");
  }
  for (size_t j = 0; j < num_vehicles; ++j) {
    int dead = 0;
    in >> instance_.vehicles[j].location >> instance_.vehicles[j].capacity >>
        dead;
    URR_RETURN_NOT_OK(CheckStream(in, "vehicles"));
    if (bad_node(instance_.vehicles[j].location)) {
      return bad_id("vehicle location node", instance_.vehicles[j].location);
    }
    dead_[j] = dead != 0;
    vehicle_index_.Update(static_cast<int>(j), instance_.vehicles[j].location);
  }
  URR_RETURN_NOT_OK(CheckStream(in, "vehicles"));

  URR_RETURN_NOT_OK(ExpectTag(in, "queued"));
  size_t num_queued = 0;
  in >> num_queued;
  if (!in || num_queued > num_riders) {
    return Status::InvalidArgument("checkpoint: bad queued count");
  }
  queued_.assign(num_queued, -1);
  for (size_t i = 0; i < num_queued; ++i) in >> queued_[i];
  URR_RETURN_NOT_OK(CheckStream(in, "queued"));
  for (const RiderId r : queued_) {
    if (bad_rider(r)) return bad_id("queued rider", r);
  }

  // Disruptions must be re-applied before schedules are rebuilt: the
  // rebuilt leg costs have to see the same perturbed distances the
  // checkpointed run computed them with.
  URR_RETURN_NOT_OK(ExpectTag(in, "disruptions"));
  size_t num_disrupted = 0;
  uint64_t epoch = 0;
  in >> num_disrupted >> epoch;
  URR_RETURN_NOT_OK(CheckStream(in, "disruptions"));
  if (num_disrupted > 0 && disruption_state_ == nullptr) {
    return Status::InvalidArgument(
        "checkpoint has active disruptions but the workload carries no edge "
        "faults (overlay not installed)");
  }
  for (size_t k = 0; k < num_disrupted; ++k) {
    NodeId a = kInvalidNode;
    NodeId b = kInvalidNode;
    double factor = 0;
    in >> a >> b;
    URR_RETURN_NOT_OK(ReadNum(in, &factor));
    if (!in) return Status::InvalidArgument("checkpoint: truncated edge");
    if (bad_node(a) || bad_node(b)) {
      return bad_id("disrupted edge node", bad_node(a) ? a : b);
    }
    disruption_state_->Disrupt(a, b, factor);
  }
  if (disruption_state_ != nullptr) {
    disruption_state_->RestoreEpoch(epoch);
    ctx_.eval_epoch = epoch;
  }

  URR_RETURN_NOT_OK(ExpectTag(in, "queue"));
  size_t queue_size = 0;
  in >> queue_size;
  if (!in || queue_size > (1u << 26)) {
    return Status::InvalidArgument("checkpoint: bad queue size");
  }
  while (!queue_.empty()) queue_.pop();
  int64_t queued_inputs = 0;
  for (size_t k = 0; k < queue_size; ++k) {
    Pending e;
    int fault = 0;
    URR_RETURN_NOT_OK(ReadNum(in, &e.time));
    in >> e.rank >> e.seq >> e.rider >> fault >> e.vehicle >> e.edge_a >>
        e.edge_b;
    URR_RETURN_NOT_OK(ReadNum(in, &e.value));
    if (!in) return Status::InvalidArgument("checkpoint: truncated queue");
    if (fault < 0 || fault > static_cast<int>(FaultKind::kEdgeRestore)) {
      return Status::InvalidArgument("checkpoint: bad fault kind " +
                                     std::to_string(fault));
    }
    e.fault = static_cast<FaultKind>(fault);
    if (e.rank < kRankArrival || e.rank > kRankExpire) {
      return Status::InvalidArgument("checkpoint: bad queue entry rank " +
                                     std::to_string(e.rank));
    }
    // Rider-driven entries name a rider; the others carry -1 (and faults
    // their vehicle or edge payload).
    const bool rider_entry = e.rank != kRankFault && e.rank != kRankBoundary;
    if (rider_entry ? bad_rider(e.rider) : e.rider != -1) {
      return bad_id("queue entry rider", e.rider);
    }
    if (e.vehicle != -1 && bad_vehicle(e.vehicle)) {
      return bad_id("queue entry vehicle", e.vehicle);
    }
    for (const NodeId x : {e.edge_a, e.edge_b}) {
      if (x != kInvalidNode && bad_node(x)) return bad_id("queue edge node", x);
    }
    if (e.rank != kRankBoundary) ++queued_inputs;
    queue_.push(e);
  }
  if (queued_inputs != pending_inputs_) {
    return Status::InvalidArgument(
        "checkpoint: pending input count " + std::to_string(pending_inputs_) +
        " does not match the " + std::to_string(queued_inputs) +
        " non-boundary queue entries");
  }

  URR_RETURN_NOT_OK(ExpectTag(in, "schedules"));
  size_t num_schedules = 0;
  in >> num_schedules;
  if (!in || num_schedules != solution_.schedules.size()) {
    return Status::InvalidArgument(
        "checkpoint schedule count does not match the fleet");
  }
  for (size_t j = 0; j < num_schedules; ++j) {
    NodeId start = kInvalidNode;
    Cost now = 0;
    int capacity = 0;
    int commit_floor = 0;
    size_t num_onboard = 0;
    int num_stops = 0;
    in >> start;
    URR_RETURN_NOT_OK(ReadNum(in, &now));
    in >> capacity >> commit_floor >> num_onboard >> num_stops;
    if (!in || num_onboard > num_riders || num_stops < 0 ||
        static_cast<size_t>(num_stops) > 2 * num_riders) {
      return Status::InvalidArgument("checkpoint: bad schedule header");
    }
    if (bad_node(start)) return bad_id("schedule start node", start);
    std::vector<RiderId> onboard(num_onboard, -1);
    for (size_t k = 0; k < num_onboard; ++k) in >> onboard[k];
    std::vector<Stop> stops(static_cast<size_t>(num_stops));
    for (Stop& st : stops) {
      int type = 0;
      in >> st.location >> st.rider >> type;
      URR_RETURN_NOT_OK(ReadNum(in, &st.deadline));
      if (!in) break;  // reported below
      if (bad_node(st.location)) return bad_id("stop node", st.location);
      if (bad_rider(st.rider)) return bad_id("stop rider", st.rider);
      if (type != static_cast<int>(StopType::kPickup) &&
          type != static_cast<int>(StopType::kDropoff)) {
        return Status::InvalidArgument("checkpoint: bad stop type " +
                                       std::to_string(type));
      }
      st.type = static_cast<StopType>(type);
    }
    if (!in) return Status::InvalidArgument("checkpoint: truncated schedule");
    for (const RiderId r : onboard) {
      if (bad_rider(r)) return bad_id("onboard rider", r);
    }
    solution_.schedules[j] = TransferSequence::FromParts(
        start, now, capacity, solution_.schedules[j].oracle(), commit_floor,
        std::move(onboard), std::move(stops));
  }

  URR_RETURN_NOT_OK(ExpectTag(in, "assignment"));
  for (size_t i = 0; i < num_riders; ++i) in >> solution_.assignment[i];
  URR_RETURN_NOT_OK(CheckStream(in, "assignment"));
  for (const int a : solution_.assignment) {
    if (a != -1 && bad_vehicle(a)) return bad_id("assigned vehicle", a);
  }

  URR_RETURN_NOT_OK(ExpectTag(in, "metrics"));
  in >> metrics_.total_arrivals >> metrics_.total_accepted >>
      metrics_.total_rejected >> metrics_.total_expired >>
      metrics_.total_cancelled >> metrics_.total_picked_up >>
      metrics_.total_dropped_off;
  URR_RETURN_NOT_OK(ReadNum(in, &metrics_.booked_utility));
  URR_RETURN_NOT_OK(ReadNum(in, &metrics_.driven_cost));
  in >> metrics_.total_breakdowns >> metrics_.total_no_shows >>
      metrics_.total_edge_disruptions >> metrics_.total_edge_restores >>
      metrics_.total_redispatched >> metrics_.total_abandoned >>
      metrics_.total_deadline_relaxed;
  URR_RETURN_NOT_OK(CheckStream(in, "metrics"));

  URR_RETURN_NOT_OK(ExpectTag(in, "log"));
  size_t log_size = 0;
  in >> log_size;
  if (!in || log_size > (1u << 26)) {
    return Status::InvalidArgument("checkpoint: bad log size");
  }
  std::string line;
  std::getline(in, line);  // consume the rest of the "log" line
  log_.clear();
  log_.reserve(log_size);
  for (size_t k = 0; k < log_size; ++k) {
    if (!std::getline(in, line)) {
      return Status::InvalidArgument("checkpoint: truncated log");
    }
    URR_ASSIGN_OR_RETURN(Event event, ParseEvent(line));
    log_.push_back(event);
  }
  if (!std::getline(in, line) || line != "end") {
    return Status::InvalidArgument("checkpoint: missing 'end' trailer");
  }
  if (in.peek() != std::char_traits<char>::eof()) {
    return Status::InvalidArgument("checkpoint: bytes after the 'end' trailer");
  }
  restored_ = true;
  return Status::OK();
}

}  // namespace urr
