#include "server/protocol.h"

#include <cstdint>
#include <cstring>
#include <limits>

#include "common/json_writer.h"

namespace urr {

std::string EncodeFrame(std::string_view payload) {
  const uint32_t n = static_cast<uint32_t>(payload.size());
  std::string out;
  out.reserve(4 + payload.size());
  out += static_cast<char>((n >> 24) & 0xFF);
  out += static_cast<char>((n >> 16) & 0xFF);
  out += static_cast<char>((n >> 8) & 0xFF);
  out += static_cast<char>(n & 0xFF);
  out.append(payload);
  return out;
}

FrameReader::Next FrameReader::Poll(std::string* out) {
  if (buf_.size() < 4) return Next::kNeedMore;
  const auto* p = reinterpret_cast<const unsigned char*>(buf_.data());
  const uint32_t n = (static_cast<uint32_t>(p[0]) << 24) |
                     (static_cast<uint32_t>(p[1]) << 16) |
                     (static_cast<uint32_t>(p[2]) << 8) |
                     static_cast<uint32_t>(p[3]);
  if (n > kMaxFrameBytes) return Next::kOversized;
  if (buf_.size() < 4 + static_cast<size_t>(n)) return Next::kNeedMore;
  out->assign(buf_, 4, n);
  buf_.erase(0, 4 + static_cast<size_t>(n));
  return Next::kFrame;
}

namespace {

bool ParseOp(std::string_view name, RequestOp* op) {
  if (name == "submit_rider") *op = RequestOp::kSubmitRider;
  else if (name == "cancel_rider") *op = RequestOp::kCancelRider;
  else if (name == "query_status") *op = RequestOp::kQueryStatus;
  else if (name == "metrics") *op = RequestOp::kMetrics;
  else if (name == "workload") *op = RequestOp::kWorkload;
  else if (name == "inject_fault") *op = RequestOp::kInjectFault;
  else if (name == "tick") *op = RequestOp::kTick;
  else if (name == "shutdown") *op = RequestOp::kShutdown;
  else return false;
  return true;
}

/// Reads an id field (rider, vehicle, node): a JSON number that is finite,
/// integral and within int32. 3.7 or 1e300 would otherwise be truncated or
/// cast out of range.
bool ParseId(const JsonValue* v, int32_t* out) {
  int64_t x = 0;
  if (v == nullptr || !v->AsInt64(&x) ||
      x < std::numeric_limits<int32_t>::min() ||
      x > std::numeric_limits<int32_t>::max()) {
    return false;
  }
  *out = static_cast<int32_t>(x);
  return true;
}

/// Reads an optional integer field (id, req_id, offset, limit): absent
/// leaves `*out` at its default; present, it must pass JsonValue::AsInt64.
bool ParseOptionalInt(const JsonValue& doc, std::string_view key,
                      int64_t* out) {
  const JsonValue* v = doc.Find(key);
  return v == nullptr || v->AsInt64(out);
}

}  // namespace

Result<Request> ParseRequest(std::string_view payload) {
  URR_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(payload));
  if (!doc.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  Request req;
  const JsonValue* op = doc.Find("op");
  if (op == nullptr || !op->is_string()) {
    return Status::InvalidArgument("request is missing a string \"op\"");
  }
  if (!ParseOp(op->as_string(), &req.op)) {
    return Status::InvalidArgument("unknown op \"" + op->as_string() + "\"");
  }
  if (!ParseOptionalInt(doc, "id", &req.id) ||
      !ParseOptionalInt(doc, "req_id", &req.req_id)) {
    return Status::InvalidArgument("\"id\" and \"req_id\" must be integers");
  }
  if (const JsonValue* t = doc.Find("time"); t != nullptr) {
    if (!t->is_number()) {
      return Status::InvalidArgument("\"time\" must be a number");
    }
    req.has_time = true;
    req.time = t->as_number();
  }
  switch (req.op) {
    case RequestOp::kSubmitRider:
    case RequestOp::kCancelRider:
    case RequestOp::kQueryStatus: {
      if (!ParseId(doc.Find("rider"), &req.rider)) {
        return Status::InvalidArgument("\"" + op->as_string() +
                                       "\" needs an integer \"rider\"");
      }
      break;
    }
    case RequestOp::kInjectFault: {
      req.fault_kind = doc.GetString("kind", "");
      if (req.fault_kind == "breakdown") {
        if (!ParseId(doc.Find("vehicle"), &req.vehicle)) {
          return Status::InvalidArgument(
              "breakdown injection needs an integer \"vehicle\"");
        }
      } else if (req.fault_kind == "edge_disrupt" ||
                 req.fault_kind == "edge_restore") {
        if (!ParseId(doc.Find("a"), &req.edge_a) ||
            !ParseId(doc.Find("b"), &req.edge_b)) {
          return Status::InvalidArgument(
              "edge-fault injection needs integer \"a\" and \"b\"");
        }
        req.factor = doc.GetNumber("factor", 1);
      } else {
        return Status::InvalidArgument(
            "inject_fault \"kind\" must be breakdown, edge_disrupt or "
            "edge_restore");
      }
      break;
    }
    case RequestOp::kWorkload: {
      if (!ParseOptionalInt(doc, "offset", &req.offset) ||
          !ParseOptionalInt(doc, "limit", &req.limit)) {
        return Status::InvalidArgument(
            "workload \"offset\" and \"limit\" must be integers");
      }
      if (req.offset < 0 || req.limit < 0) {
        return Status::InvalidArgument(
            "workload \"offset\" and \"limit\" must be non-negative");
      }
      break;
    }
    default:
      break;
  }
  return req;
}

std::string SerializeRequest(const Request& req, double time) {
  JsonWriter w;
  w.BeginObject();
  const char* op = "metrics";
  switch (req.op) {
    case RequestOp::kSubmitRider: op = "submit_rider"; break;
    case RequestOp::kCancelRider: op = "cancel_rider"; break;
    case RequestOp::kQueryStatus: op = "query_status"; break;
    case RequestOp::kMetrics: op = "metrics"; break;
    case RequestOp::kWorkload: op = "workload"; break;
    case RequestOp::kInjectFault: op = "inject_fault"; break;
    case RequestOp::kTick: op = "tick"; break;
    case RequestOp::kShutdown: op = "shutdown"; break;
  }
  w.Field("op", op).Field("id", req.id).Field("req_id", req.req_id);
  switch (req.op) {
    case RequestOp::kSubmitRider:
    case RequestOp::kCancelRider:
    case RequestOp::kQueryStatus:
      w.Field("rider", req.rider);
      break;
    case RequestOp::kInjectFault:
      w.Field("kind", req.fault_kind);
      if (req.fault_kind == "breakdown") {
        w.Field("vehicle", req.vehicle);
      } else {
        w.Field("a", req.edge_a).Field("b", req.edge_b);
        if (req.fault_kind == "edge_disrupt") w.Field("factor", req.factor);
      }
      break;
    default:
      break;
  }
  w.Field("time", time).EndObject();
  return w.str();
}

std::string ErrorResponse(int64_t id, int code, std::string_view error) {
  JsonWriter w;
  w.BeginObject()
      .Field("id", static_cast<int64_t>(id))
      .Field("ok", false)
      .Field("code", code)
      .Field("error", error)
      .EndObject();
  return w.str();
}

}  // namespace urr
