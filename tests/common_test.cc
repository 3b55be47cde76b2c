// Tests for the small common utilities: env-var config, logging, stopwatch,
// whole-file reads and the CLI flag parser.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/env.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/stopwatch.h"

namespace urr {
namespace {

TEST(EnvTest, DoubleParsing) {
  ::setenv("URR_TEST_D", "2.5", 1);
  EXPECT_DOUBLE_EQ(GetEnvDouble("URR_TEST_D", 1.0), 2.5);
  ::setenv("URR_TEST_D", "garbage", 1);
  EXPECT_DOUBLE_EQ(GetEnvDouble("URR_TEST_D", 1.0), 1.0);
  ::unsetenv("URR_TEST_D");
  EXPECT_DOUBLE_EQ(GetEnvDouble("URR_TEST_D", 7.0), 7.0);
}

TEST(EnvTest, IntParsing) {
  ::setenv("URR_TEST_I", "42", 1);
  EXPECT_EQ(GetEnvInt("URR_TEST_I", 0), 42);
  ::setenv("URR_TEST_I", "-3", 1);
  EXPECT_EQ(GetEnvInt("URR_TEST_I", 0), -3);
  ::setenv("URR_TEST_I", "zzz", 1);
  EXPECT_EQ(GetEnvInt("URR_TEST_I", 9), 9);
  ::unsetenv("URR_TEST_I");
  EXPECT_EQ(GetEnvInt("URR_TEST_I", 5), 5);
}

TEST(EnvTest, StringFallback) {
  ::unsetenv("URR_TEST_S");
  EXPECT_EQ(GetEnvString("URR_TEST_S", "dflt"), "dflt");
  ::setenv("URR_TEST_S", "hello", 1);
  EXPECT_EQ(GetEnvString("URR_TEST_S", "dflt"), "hello");
  ::unsetenv("URR_TEST_S");
}

TEST(EnvTest, BenchKnobs) {
  ::unsetenv("URR_BENCH_SCALE");
  EXPECT_DOUBLE_EQ(BenchScale(), 0.2);
  ::setenv("URR_BENCH_SCALE", "1.0", 1);
  EXPECT_DOUBLE_EQ(BenchScale(), 1.0);
  ::unsetenv("URR_BENCH_SCALE");
  ::unsetenv("URR_SEED");
  EXPECT_EQ(BenchSeed(), 42u);
  ::setenv("URR_SEED", "7", 1);
  EXPECT_EQ(BenchSeed(), 7u);
  ::unsetenv("URR_SEED");
}

TEST(LoggingTest, LevelGate) {
  const LogLevel old = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Emitting below the gate must be a no-op (no crash; output suppressed).
  URR_LOG(kDebug) << "suppressed debug " << 42;
  URR_LOG(kInfo) << "suppressed info";
  SetLogLevel(LogLevel::kDebug);
  URR_LOG(kDebug) << "emitted (to stderr)";
  SetLogLevel(old);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch w;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i * 0.5;
  const double t1 = w.ElapsedSeconds();
  EXPECT_GT(t1, 0);
  EXPECT_GE(w.ElapsedMillis(), t1 * 1000 * 0.5);
  w.Reset();
  EXPECT_LT(w.ElapsedSeconds(), t1 + 1.0);
}

TEST(ReadFileTest, RoundTripsWriteFile) {
  const std::string path = ::testing::TempDir() + "urr_common_test_read";
  const std::string bytes("a\0b\nc", 5);
  ASSERT_TRUE(WriteFile(path, bytes).ok());
  const Result<std::string> read = ReadFile(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, bytes);
  std::remove(path.c_str());
}

TEST(ReadFileTest, MissingFileIsNotFound) {
  const auto read = ReadFile(::testing::TempDir() + "urr_no_such_file");
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST(ReadFileTest, DirectoryIsAnIOErrorNotAnEmptyFile) {
  EXPECT_EQ(ReadFile(::testing::TempDir()).status().code(),
            StatusCode::kIOError);
}

struct Values {
  std::string name = "x";
  int count = 1;
  uint64_t seed = 2;
  double rate = 0.5;
  bool on = false;
  FlagSet flags{"tool - test"};

  Values() {
    flags.Section("group:");
    flags.Flag("--name", "S", &name, "a name");
    flags.Flag("--count", "N", &count, "a count\nsecond help line");
    flags.Flag("--seed", "S", &seed, "a seed");
    flags.Flag("--rate", "R", &rate, "a rate");
    flags.Flag("--on", &on, "a switch");
  }
  Result<std::vector<std::string>> Parse(std::vector<std::string> args) {
    args.insert(args.begin(), "tool");
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    return flags.Parse(static_cast<int>(argv.size()), argv.data());
  }
};

TEST(FlagSetTest, ParsesEveryKindAndPositionals) {
  Values v;
  v.flags.AllowPositional(1);
  const auto args = v.Parse({"--name", "city", "--count", "-3", "build",
                             "--seed", "18446744073709551615", "--rate",
                             "2.5e-1", "--on"});
  ASSERT_TRUE(args.ok()) << args.status();
  EXPECT_EQ(*args, std::vector<std::string>{"build"});
  EXPECT_EQ(v.name, "city");
  EXPECT_EQ(v.count, -3);
  EXPECT_EQ(v.seed, 18446744073709551615ull);
  EXPECT_EQ(v.rate, 0.25);
  EXPECT_TRUE(v.on);
  EXPECT_FALSE(v.Parse({"build", "extra"}).ok());
}

TEST(FlagSetTest, RejectsMalformedValuesNamingTheFlag) {
  for (const std::vector<std::string>& bad :
       std::vector<std::vector<std::string>>{
           {"--count", "3x0"}, {"--count", ""}, {"--count", "99999999999"},
           {"--seed", "banana"}, {"--seed", "-1"}, {"--rate", "abc"},
           {"--rate", "nan"}, {"--rate", "inf"}, {"--count"},
           {"--nonsense"}, {"stray"}}) {
    const auto args = Values().Parse(bad);
    ASSERT_FALSE(args.ok()) << bad[0];
    EXPECT_EQ(args.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(args.status().message().find(bad[0]), std::string::npos)
        << args.status();
  }
}

TEST(FlagSetTest, HelpStopsParsingAndUsageListsEveryFlag) {
  Values v;
  ASSERT_TRUE(v.Parse({"-h", "--nonsense"}).ok());
  const std::string usage = v.flags.Usage();
  EXPECT_EQ(usage.rfind("tool - test\n\ngroup:\n", 0), 0u) << usage;
  for (const char* line : {"  --name S                a name\n",
                           "  --count N               a count\n"
                           "                          second help line\n",
                           "  --on                    a switch\n"}) {
    EXPECT_NE(usage.find(line), std::string::npos) << line << usage;
  }
}

}  // namespace
}  // namespace urr
