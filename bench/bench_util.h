// Shared plumbing for the figure/table reproduction binaries: the Table-3
// default configuration, URR_BENCH_SCALE / URR_SEED handling, and the header
// every bench prints.
#ifndef URR_BENCH_BENCH_UTIL_H_
#define URR_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>

#include "common/env.h"
#include "exp/harness.h"
#include "exp/sweep.h"

namespace urr {
namespace bench {

/// Table 3 defaults (bold values), scaled by URR_BENCH_SCALE (default 0.2).
/// The paper's testbed runs m=5K riders / n=200 vehicles on the 264k-node
/// DIMACS NYC extract in Python; we default to a 10k-node synthetic city and
/// scale rider/vehicle counts so the full suite finishes on a laptop. Set
/// URR_BENCH_SCALE=1 for paper-scale counts.
inline ExperimentConfig DefaultConfig(CityKind city = CityKind::kNycLike) {
  const double scale = BenchScale();
  ExperimentConfig cfg;
  cfg.city = city;
  cfg.city_nodes = static_cast<NodeId>(
      GetEnvInt("URR_BENCH_CITY_NODES", city == CityKind::kNycLike ? 10000 : 6000));
  // Gowalla density: ~196k users over the 264k-node NYC extract (~0.74
  // users per road node); keep the same ratio so nearest-check-in rider
  // identities rarely collide.
  cfg.num_social_users =
      std::max<int>(500, static_cast<int>(cfg.city_nodes * 0.74));
  cfg.num_riders = std::max(50, static_cast<int>(5000 * scale));
  cfg.num_vehicles = std::max(10, static_cast<int>(200 * scale * 5));
  cfg.num_trip_records = std::max(2000, cfg.num_riders * 3);
  cfg.rt_min_minutes = 10;
  cfg.rt_max_minutes = 30;
  cfg.capacity = 3;
  cfg.alpha = 0.33;
  cfg.beta = 0.33;
  cfg.epsilon = 1.5;
  cfg.seed = BenchSeed();
  cfg.gbs.k = static_cast<int>(GetEnvInt("URR_BENCH_GBS_K", 8));
  cfg.gbs.d_max = GetEnvDouble("URR_BENCH_GBS_DMAX", 300);
  return cfg;
}

/// Prints the standard bench banner.
inline void Banner(const std::string& title, const ExperimentConfig& cfg) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf(
      "city=%s nodes~%d  m=%d riders  n=%d vehicles  deadlines=[%g,%g]min  "
      "capacity=%d  (alpha,beta)=(%g,%g)  epsilon=%g  seed=%llu  scale=%g\n\n",
      cfg.city == CityKind::kNycLike ? "NYC-like" : "Chicago-like",
      cfg.city_nodes, cfg.num_riders, cfg.num_vehicles, cfg.rt_min_minutes,
      cfg.rt_max_minutes, cfg.capacity, cfg.alpha, cfg.beta, cfg.epsilon,
      static_cast<unsigned long long>(cfg.seed), BenchScale());
}

/// The machine and build a BENCH_*.json row came from, as JSON object
/// members without braces: commit, nproc, build type, evaluation threads
/// (URR_THREADS) and URR_BENCH_SCALE.
inline std::string ProvenanceFields() {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"commit\":\"%s\",\"nproc\":%u,\"build_type\":\"%s\","
                "\"threads\":%d,\"scale\":%g",
                URR_GIT_COMMIT, std::thread::hardware_concurrency(),
                URR_BUILD_TYPE, NumThreads(), BenchScale());
  return buf;
}

/// Runs a sweep, prints the paper-style tables and optionally dumps CSV to
/// $URR_BENCH_CSV_DIR/<name>.csv. Returns 0/1 as a process exit code.
inline int RunAndReport(const std::string& name,
                        const std::string& parameter_name,
                        const std::vector<SweepPoint>& points) {
  auto sweep = RunSweep(parameter_name, points, AllApproaches());
  if (!sweep.ok()) {
    std::fprintf(stderr, "sweep failed: %s\n",
                 sweep.status().ToString().c_str());
    return 1;
  }
  PrintSweep(*sweep);
  const std::string dir = GetEnvString("URR_BENCH_CSV_DIR", "");
  if (!dir.empty()) {
    const Status st = WriteSweepCsv(*sweep, dir + "/" + name + ".csv");
    if (!st.ok()) {
      std::fprintf(stderr, "csv dump failed: %s\n", st.ToString().c_str());
    }
  }
  return 0;
}

}  // namespace bench
}  // namespace urr

#endif  // URR_BENCH_BENCH_UTIL_H_
