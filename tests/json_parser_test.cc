#include "common/json_parser.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

namespace urr {
namespace {

TEST(JsonParserTest, ParsesScalars) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_TRUE(ParseJson("true")->as_bool());
  EXPECT_FALSE(ParseJson("false")->as_bool());
  EXPECT_DOUBLE_EQ(ParseJson("3.25")->as_number(), 3.25);
  EXPECT_DOUBLE_EQ(ParseJson("-17")->as_number(), -17);
  EXPECT_DOUBLE_EQ(ParseJson("1e3")->as_number(), 1000);
  EXPECT_EQ(ParseJson("\"hi\"")->as_string(), "hi");
}

TEST(JsonParserTest, ParsesNestedStructures) {
  auto v = ParseJson(R"({"a": [1, 2, {"b": "c"}], "d": {"e": null}})");
  ASSERT_TRUE(v.ok()) << v.status();
  const JsonValue* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_DOUBLE_EQ(a->items()[1].as_number(), 2);
  EXPECT_EQ(a->items()[2].GetString("b", ""), "c");
  const JsonValue* d = v->Find("d");
  ASSERT_NE(d, nullptr);
  ASSERT_NE(d->Find("e"), nullptr);
  EXPECT_TRUE(d->Find("e")->is_null());
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(JsonParserTest, AccessorsFallBackOnTypeMismatch) {
  auto v = ParseJson(R"({"n": 5, "s": "x", "b": true})");
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->GetNumber("n", -1), 5);
  EXPECT_EQ(v->GetInt("n", -1), 5);
  EXPECT_DOUBLE_EQ(v->GetNumber("s", -1), -1);  // wrong type -> fallback
  EXPECT_EQ(v->GetString("n", "fb"), "fb");
  EXPECT_TRUE(v->GetBool("b", false));
  EXPECT_FALSE(v->GetBool("n", false));
  EXPECT_EQ(v->GetInt("absent", 42), 42);
}

TEST(JsonParserTest, GetIntFallsBackOnNumbersOutsideInt64) {
  auto v = ParseJson(
      R"({"huge": 1e300, "low": -1e300, "frac": 3.7, "edge": 9223372036854775808,)"
      R"( "min": -9223372036854775808, "exp": 2e1})");
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(v->GetInt("huge", -7), -7);
  EXPECT_EQ(v->GetInt("low", -7), -7);
  EXPECT_EQ(v->GetInt("frac", -7), -7);
  EXPECT_EQ(v->GetInt("edge", -7), -7);  // 2^63 is one past int64
  EXPECT_EQ(v->GetInt("min", -7), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(v->GetInt("exp", -7), 20);
  int64_t out = 5;
  EXPECT_FALSE(v->Find("huge")->AsInt64(&out));
  EXPECT_EQ(out, 5);  // untouched on failure
}

TEST(JsonParserTest, DecodesStringEscapes) {
  auto v = ParseJson(R"("a\"b\\c\/d\n\t\r\b\f")");
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(v->as_string(), "a\"b\\c/d\n\t\r\b\f");
  // \u escapes decode to UTF-8 (2-byte and 3-byte sequences).
  auto u = ParseJson(R"("\u00e9\u20ac")");
  ASSERT_TRUE(u.ok()) << u.status();
  EXPECT_EQ(u->as_string(), "\xc3\xa9\xe2\x82\xac");
}

TEST(JsonParserTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());
  EXPECT_FALSE(ParseJson("nul").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("\"bad\\escape\"").ok());
  EXPECT_FALSE(ParseJson("\"\\u12g4\"").ok());
  EXPECT_FALSE(ParseJson("01").ok());
  EXPECT_FALSE(ParseJson("1e999").ok());  // non-finite
}

TEST(JsonParserTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(ParseJson("{} extra").ok());
  EXPECT_FALSE(ParseJson("1 2").ok());
  // Trailing whitespace alone is fine.
  EXPECT_TRUE(ParseJson("  {\"a\": 1}  \n").ok());
}

TEST(JsonParserTest, EnforcesDepthLimit) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += '[';
  for (int i = 0; i < 200; ++i) deep += ']';
  EXPECT_FALSE(ParseJson(deep).ok());
  std::string ok_depth;
  for (int i = 0; i < 30; ++i) ok_depth += '[';
  for (int i = 0; i < 30; ++i) ok_depth += ']';
  EXPECT_TRUE(ParseJson(ok_depth).ok());
}

TEST(JsonParserTest, ErrorsReportOffsets) {
  auto v = ParseJson("{\"a\": [1, }]}");
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.status().message().find("offset"), std::string::npos)
      << v.status();
}

}  // namespace
}  // namespace urr
