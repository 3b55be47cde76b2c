#include "common/env.h"

#include <cstdlib>

namespace urr {

namespace {
const char* RawEnv(const std::string& name) { return std::getenv(name.c_str()); }
}  // namespace

double GetEnvDouble(const std::string& name, double fallback) {
  const char* raw = RawEnv(name);
  if (raw == nullptr) return fallback;
  char* end = nullptr;
  double value = std::strtod(raw, &end);
  if (end == raw) return fallback;
  return value;
}

int64_t GetEnvInt(const std::string& name, int64_t fallback) {
  const char* raw = RawEnv(name);
  if (raw == nullptr) return fallback;
  char* end = nullptr;
  long long value = std::strtoll(raw, &end, 10);
  if (end == raw) return fallback;
  return static_cast<int64_t>(value);
}

std::string GetEnvString(const std::string& name, const std::string& fallback) {
  const char* raw = RawEnv(name);
  return raw == nullptr ? fallback : std::string(raw);
}

double BenchScale() { return GetEnvDouble("URR_BENCH_SCALE", 0.2); }

uint64_t BenchSeed() {
  return static_cast<uint64_t>(GetEnvInt("URR_SEED", 42));
}

int NumThreads() {
  const int64_t raw = GetEnvInt("URR_THREADS", 1);
  if (raw < 1) return 1;
  if (raw > 256) return 256;
  return static_cast<int>(raw);
}

}  // namespace urr
