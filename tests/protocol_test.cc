#include "server/protocol.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "common/json_parser.h"

namespace urr {
namespace {

TEST(FrameTest, EncodePrefixesBigEndianLength) {
  const std::string f = EncodeFrame("abc");
  ASSERT_EQ(f.size(), 7u);
  EXPECT_EQ(static_cast<unsigned char>(f[0]), 0);
  EXPECT_EQ(static_cast<unsigned char>(f[1]), 0);
  EXPECT_EQ(static_cast<unsigned char>(f[2]), 0);
  EXPECT_EQ(static_cast<unsigned char>(f[3]), 3);
  EXPECT_EQ(f.substr(4), "abc");
}

TEST(FrameTest, ReaderReassemblesByteAtATime) {
  // Any split point must work, including inside the 4-byte length prefix.
  const std::string frame = EncodeFrame("{\"op\":\"metrics\"}");
  FrameReader reader;
  std::string out;
  for (size_t i = 0; i + 1 < frame.size(); ++i) {
    reader.Feed(&frame[i], 1);
    EXPECT_EQ(reader.Poll(&out), FrameReader::Next::kNeedMore) << i;
  }
  reader.Feed(&frame[frame.size() - 1], 1);
  ASSERT_EQ(reader.Poll(&out), FrameReader::Next::kFrame);
  EXPECT_EQ(out, "{\"op\":\"metrics\"}");
  EXPECT_EQ(reader.pending_bytes(), 0u);
}

TEST(FrameTest, ReaderYieldsMultipleFramesFromOneFeed) {
  const std::string bytes = EncodeFrame("one") + EncodeFrame("two") +
                            EncodeFrame("");
  FrameReader reader;
  reader.Feed(bytes.data(), bytes.size());
  std::string out;
  ASSERT_EQ(reader.Poll(&out), FrameReader::Next::kFrame);
  EXPECT_EQ(out, "one");
  ASSERT_EQ(reader.Poll(&out), FrameReader::Next::kFrame);
  EXPECT_EQ(out, "two");
  ASSERT_EQ(reader.Poll(&out), FrameReader::Next::kFrame);
  EXPECT_EQ(out, "");
  EXPECT_EQ(reader.Poll(&out), FrameReader::Next::kNeedMore);
}

TEST(FrameTest, TruncatedFrameStaysPending) {
  const std::string frame = EncodeFrame("payload");
  FrameReader reader;
  reader.Feed(frame.data(), frame.size() - 2);  // cut mid-payload
  std::string out;
  EXPECT_EQ(reader.Poll(&out), FrameReader::Next::kNeedMore);
  // Nonzero pending at EOF is how the server detects a truncated frame.
  EXPECT_GT(reader.pending_bytes(), 0u);
}

TEST(FrameTest, OversizedLengthIsRejectedBeforeBuffering) {
  // A length just past the cap must be refused even though no payload
  // bytes follow (the attack is the length itself).
  const uint32_t n = kMaxFrameBytes + 1;
  std::string bytes;
  bytes.push_back(static_cast<char>((n >> 24) & 0xff));
  bytes.push_back(static_cast<char>((n >> 16) & 0xff));
  bytes.push_back(static_cast<char>((n >> 8) & 0xff));
  bytes.push_back(static_cast<char>(n & 0xff));
  FrameReader reader;
  reader.Feed(bytes.data(), bytes.size());
  std::string out;
  EXPECT_EQ(reader.Poll(&out), FrameReader::Next::kOversized);
  // A frame exactly at the cap is fine.
  FrameReader ok_reader;
  const std::string big(kMaxFrameBytes, 'x');
  const std::string ok = EncodeFrame(big);
  ok_reader.Feed(ok.data(), ok.size());
  ASSERT_EQ(ok_reader.Poll(&out), FrameReader::Next::kFrame);
  EXPECT_EQ(out.size(), big.size());
}

TEST(ParseRequestTest, ParsesEveryOp) {
  auto submit = ParseRequest(R"({"op":"submit_rider","rider":7,"time":12.5,"id":3})");
  ASSERT_TRUE(submit.ok()) << submit.status();
  EXPECT_EQ(submit->op, RequestOp::kSubmitRider);
  EXPECT_EQ(submit->rider, 7);
  EXPECT_EQ(submit->id, 3);
  EXPECT_TRUE(submit->has_time);
  EXPECT_DOUBLE_EQ(submit->time, 12.5);

  EXPECT_EQ(ParseRequest(R"({"op":"cancel_rider","rider":1})")->op,
            RequestOp::kCancelRider);
  EXPECT_EQ(ParseRequest(R"({"op":"query_status","rider":1})")->op,
            RequestOp::kQueryStatus);
  EXPECT_EQ(ParseRequest(R"({"op":"metrics"})")->op, RequestOp::kMetrics);
  EXPECT_EQ(ParseRequest(R"({"op":"workload"})")->op, RequestOp::kWorkload);
  EXPECT_EQ(ParseRequest(R"({"op":"tick","time":5})")->op, RequestOp::kTick);
  EXPECT_EQ(ParseRequest(R"({"op":"shutdown"})")->op, RequestOp::kShutdown);

  auto fault = ParseRequest(
      R"({"op":"inject_fault","kind":"edge_disrupt","a":3,"b":4,"factor":2})");
  ASSERT_TRUE(fault.ok()) << fault.status();
  EXPECT_EQ(fault->op, RequestOp::kInjectFault);
  EXPECT_EQ(fault->fault_kind, "edge_disrupt");
  EXPECT_EQ(fault->edge_a, 3);
  EXPECT_EQ(fault->edge_b, 4);
  EXPECT_DOUBLE_EQ(fault->factor, 2);
}

TEST(ParseRequestTest, RejectsMalformedRequests) {
  EXPECT_FALSE(ParseRequest("not json").ok());
  EXPECT_FALSE(ParseRequest("[1,2]").ok());          // not an object
  EXPECT_FALSE(ParseRequest("{}").ok());             // missing op
  EXPECT_FALSE(ParseRequest(R"({"op":"fly"})").ok());  // unknown op
  EXPECT_FALSE(ParseRequest(R"({"op":5})").ok());    // op wrong type
  // submit/cancel/query need a numeric rider.
  EXPECT_FALSE(ParseRequest(R"({"op":"submit_rider"})").ok());
  EXPECT_FALSE(ParseRequest(R"({"op":"submit_rider","rider":"x"})").ok());
  EXPECT_FALSE(ParseRequest(R"({"op":"cancel_rider"})").ok());
  EXPECT_FALSE(ParseRequest(R"({"op":"query_status"})").ok());
  // time must be a number when present.
  EXPECT_FALSE(
      ParseRequest(R"({"op":"submit_rider","rider":1,"time":"soon"})").ok());
  // inject_fault kind-specific validation.
  EXPECT_FALSE(ParseRequest(R"({"op":"inject_fault"})").ok());
  EXPECT_FALSE(
      ParseRequest(R"({"op":"inject_fault","kind":"meteor"})").ok());
  EXPECT_FALSE(
      ParseRequest(R"({"op":"inject_fault","kind":"breakdown"})").ok());
  EXPECT_FALSE(
      ParseRequest(R"({"op":"inject_fault","kind":"edge_disrupt","a":1})")
          .ok());
}

TEST(ParseRequestTest, RejectsIdsThatAreNotInt32Integers) {
  // Ids index riders, vehicles and nodes: a fractional or out-of-range
  // number must not be truncated or cast into one.
  for (const std::string bad : {"3.7", "1e300", "-1e300", "2147483648",
                                "-2147483649", "NaN", "1e999"}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(
        ParseRequest(R"({"op":"submit_rider","rider":)" + bad + "}").ok());
    EXPECT_FALSE(
        ParseRequest(R"({"op":"cancel_rider","rider":)" + bad + "}").ok());
    EXPECT_FALSE(ParseRequest(
                     R"({"op":"inject_fault","kind":"breakdown","vehicle":)" +
                     bad + "}")
                     .ok());
    EXPECT_FALSE(ParseRequest(
                     R"({"op":"inject_fault","kind":"edge_disrupt","a":)" +
                     bad + R"(,"b":1})")
                     .ok());
    EXPECT_FALSE(ParseRequest(
                     R"({"op":"inject_fault","kind":"edge_restore","a":1,"b":)" +
                     bad + "}")
                     .ok());
  }
  // The int32 extremes and integral values written with a fraction or an
  // exponent are ids; whether they exist is the service's 404.
  auto low = ParseRequest(R"({"op":"submit_rider","rider":-2147483648})");
  ASSERT_TRUE(low.ok()) << low.status();
  EXPECT_EQ(low->rider, std::numeric_limits<int32_t>::min());
  auto edge = ParseRequest(
      R"({"op":"inject_fault","kind":"edge_restore","a":2147483647,"b":4.0})");
  ASSERT_TRUE(edge.ok()) << edge.status();
  EXPECT_EQ(edge->edge_a, std::numeric_limits<int32_t>::max());
  EXPECT_EQ(edge->edge_b, 4);
  auto vehicle = ParseRequest(
      R"({"op":"inject_fault","kind":"breakdown","vehicle":2e1})");
  ASSERT_TRUE(vehicle.ok()) << vehicle.status();
  EXPECT_EQ(vehicle->vehicle, 20);
}

TEST(ParseRequestTest, RejectsIntegerFieldsThatAreNotInt64Integers) {
  // id, req_id, offset and limit are optional, but when present they must
  // be integral numbers within int64: no truncation, no out-of-range cast.
  for (const std::string bad :
       {"3.7", "1e300", "-1e300", "1e999", "9223372036854775808", "\"7\""}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(ParseRequest(R"({"op":"metrics","id":)" + bad + "}").ok());
    EXPECT_FALSE(
        ParseRequest(R"({"op":"tick","time":1,"req_id":)" + bad + "}").ok());
    EXPECT_FALSE(
        ParseRequest(R"({"op":"workload","offset":)" + bad + "}").ok());
    EXPECT_FALSE(ParseRequest(R"({"op":"workload","limit":)" + bad + "}").ok());
  }
  auto absent = ParseRequest(R"({"op":"workload"})");
  ASSERT_TRUE(absent.ok()) << absent.status();
  EXPECT_EQ(absent->id, -1);
  EXPECT_EQ(absent->req_id, -1);
  EXPECT_EQ(absent->offset, 0);
  EXPECT_EQ(absent->limit, 0);
  auto ok = ParseRequest(
      R"({"op":"workload","id":2e1,"req_id":-9223372036854775808,)"
      R"("offset":4.0,"limit":9007199254740992})");
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->id, 20);
  EXPECT_EQ(ok->req_id, std::numeric_limits<int64_t>::min());
  EXPECT_EQ(ok->offset, 4);
  EXPECT_EQ(ok->limit, int64_t{1} << 53);
}

TEST(ErrorResponseTest, CarriesIdCodeAndMessage) {
  auto v = ParseJson(ErrorResponse(9, 400, "bad \"frame\""));
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(v->GetInt("id", -2), 9);
  EXPECT_FALSE(v->GetBool("ok", true));
  EXPECT_EQ(v->GetInt("code", 0), 400);
  EXPECT_EQ(v->GetString("error", ""), "bad \"frame\"");
}

}  // namespace
}  // namespace urr
