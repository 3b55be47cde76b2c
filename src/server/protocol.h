// Wire protocol of the dispatch service (DESIGN.md §12).
//
// Framing: every message — request and response — is one frame:
//
//   +----------------+---------------------+
//   | u32 length (BE) | UTF-8 JSON payload |
//   +----------------+---------------------+
//
// The 4-byte big-endian length counts the payload only. Frames larger than
// kMaxFrameBytes are a protocol violation: the receiver answers with a 400
// response and closes (it cannot resync past a length it refuses to read).
// Length-prefixed framing over newline-delimited JSON because payloads may
// legitimately contain newlines (error strings, future blobs) and a binary
// prefix makes truncation detection exact.
//
// Requests are JSON objects: {"op": "...", "id": n, ...op fields}. The `id`
// is an optional client correlation number echoed verbatim in the response.
// Mutating requests may also carry "req_id", an idempotency key: the
// service remembers the response of each executed req_id (bounded window)
// and answers a retry with the cached response instead of mutating twice.
// Operations:
//
//   submit_rider  {rider, time?}          → {result: queued|assigned|
//                                            rejected, vehicle?, reason?}
//   cancel_rider  {rider, time?}          → {result: cancelled|ignored}
//   query_status  {rider}                 → {state, vehicle, booked_utility,
//                                            arrival_time}
//   metrics       {}                      → {metrics: {...EngineMetricsJson},
//                                            queue_depth, now, sessions}
//   workload      {offset?, limit?}       → {arrivals: [[rider,time]...],
//                                            cancellations: [[rider,time]...],
//                                            arrivals_total,
//                                            cancellations_total}
//                                           offset/limit (limit 0 = all)
//                                           window each list independently,
//                                           so a workload too large for one
//                                           frame is fetched in pages
//   inject_fault  {kind, time?, vehicle | a, b, factor}
//   tick          {time?}                 → advances the engine clock
//   shutdown      {}                      → {result: shutting_down}; the
//                                           server drains and exits
//
// `time` is required under a virtual clock and ignored under a steady
// clock (the server stamps its own). Responses carry {"id", "ok", "code"}
// plus op fields; codes follow the HTTP idiom: 200 ok, 400 malformed
// request (ids — rider, vehicle, a, b — must be integers within int32),
// 404 unknown rider/vehicle/node, 409 duplicate submission, 429
// admission-control rejection (queue full), 500 internal error, 503
// shutting down. A dispatch-infeasible rejection (no vehicle fits) is NOT
// an error: it is a 200 with result:"rejected" and a reason — the request
// was served, the answer was no.
#ifndef URR_SERVER_PROTOCOL_H_
#define URR_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/json_parser.h"
#include "graph/road_network.h"
#include "sched/transfer_sequence.h"

namespace urr {

/// Hard ceiling on one frame's payload (1 MiB). Far above any legitimate
/// request; a length beyond it is treated as a protocol violation.
constexpr uint32_t kMaxFrameBytes = 1u << 20;

/// Prepends the 4-byte big-endian length to `payload`.
std::string EncodeFrame(std::string_view payload);

/// Incremental frame decoder for one connection: feed raw bytes as they
/// arrive, poll complete payloads out. Tolerates frames split across any
/// read boundary (including inside the length prefix).
class FrameReader {
 public:
  enum class Next : uint8_t {
    kFrame,     // *out filled with one complete payload
    kNeedMore,  // no complete frame buffered yet
    kOversized, // declared length exceeds kMaxFrameBytes; connection is dead
  };

  void Feed(const char* data, size_t n) { buf_.append(data, n); }
  Next Poll(std::string* out);

  /// Bytes buffered but not yet returned (nonzero at EOF = truncated frame).
  size_t pending_bytes() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// Request operations (see the file comment for payloads).
enum class RequestOp : uint8_t {
  kSubmitRider,
  kCancelRider,
  kQueryStatus,
  kMetrics,
  kWorkload,
  kInjectFault,
  kTick,
  kShutdown,
};

/// One parsed request.
struct Request {
  RequestOp op = RequestOp::kMetrics;
  int64_t id = -1;          // client correlation id; -1 = absent
  /// Idempotency key; -1 = absent. A mutating request carrying a
  /// non-negative req_id is deduplicated by the service: a retry after an
  /// ambiguous failure (timeout, dropped connection) returns the cached
  /// response of the first execution instead of mutating twice.
  int64_t req_id = -1;
  RiderId rider = -1;
  bool has_time = false;
  double time = 0;
  // inject_fault payload.
  std::string fault_kind;   // "breakdown" | "edge_disrupt" | "edge_restore"
  int vehicle = -1;
  NodeId edge_a = -1;
  NodeId edge_b = -1;
  double factor = 1;
  // workload paging: the [offset, offset+limit) window of each recorded
  // list; limit 0 = everything (only safe for small workloads).
  int64_t offset = 0;
  int64_t limit = 0;
};

/// Parses one request payload. InvalidArgument on malformed JSON, a missing
/// or unknown "op", or op-specific fields of the wrong type.
Result<Request> ParseRequest(std::string_view payload);

/// Canonical serialization of a mutating request for the write-ahead
/// journal: the request's own fields plus the service-stamped injection
/// time `time` (so a steady-clock run replays deterministically).
/// ParseRequest(SerializeRequest(req, t)) round-trips every field the
/// dispatch path reads.
std::string SerializeRequest(const Request& req, double time);

/// Canonical error response: {"id", "ok": false, "code", "error"}.
std::string ErrorResponse(int64_t id, int code, std::string_view error);

}  // namespace urr

#endif  // URR_SERVER_PROTOCOL_H_
