// bench_eval: candidate-evaluation path micro-benchmark — the zero-copy
// kernel without and with Euclidean bound screening, then with the
// cross-window eval cache, on the same rider x vehicle candidate matrix the
// solvers and the streaming engine evaluate. Two scenarios:
//   steady  - the schedules never change between passes (an engine window
//             where no queued rider was placed): the cache answers
//             everything after the first pass,
//   churn   - a slice of the fleet mutates between passes (riders removed
//             and re-inserted), so version bumps invalidate exactly those
//             vehicles' entries.
// Every configuration produces bit-identical evaluations (checked here via
// a Δcost checksum); only the throughput differs. Results append to
// BENCH_eval.json, one JSON object per line.
#include <chrono>
#include <cmath>

#include "bench_util.h"
#include "common/table.h"
#include "urr/eval_cache.h"
#include "urr/urr.h"

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main() {
  using namespace urr;
  using namespace urr::bench;
  ExperimentConfig cfg = DefaultConfig(CityKind::kNycLike);
  Banner("Candidate evaluation - kernel vs screen vs cache", cfg);

  auto world = BuildWorld(cfg);
  if (!world.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 world.status().ToString().c_str());
    return 1;
  }

  // A solved fleet gives realistic (non-empty) schedules to evaluate into.
  SolverContext solve_ctx = (*world)->Context();
  UrrSolution sol = SolveEfficientGreedy((*world)->instance, &solve_ctx);

  // The candidate matrix: every rider against its valid vehicles.
  std::vector<RiderVehiclePair> pairs;
  for (RiderId i = 0; i < (*world)->instance.num_riders(); ++i) {
    for (int j : ValidVehiclesForRider((*world)->instance,
                                       (*world)->vehicle_index.get(), i,
                                       nullptr)) {
      pairs.push_back({i, j});
    }
  }
  if (pairs.empty()) {
    std::fprintf(stderr, "no candidate pairs - world too tight\n");
    return 1;
  }

  const int passes =
      static_cast<int>(GetEnvInt("URR_BENCH_EVAL_PASSES", 5));
  const std::string provenance = ProvenanceFields();
  const std::string out_path =
      GetEnvString("URR_BENCH_EVAL_JSON", "BENCH_eval.json");
  std::FILE* out = std::fopen(out_path.c_str(), "a");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }

  // The baseline is the kernel alone: unscreened (euclid_speed = 0) and
  // uncached.
  struct Config {
    const char* name;
    bool screen;
    bool cache;
  };
  const Config configs[] = {
      {"zero_copy", false, false},
      {"zero_copy+screen", true, false},
      {"zero_copy+screen+cache", true, true},
  };
  // Re-insert one rider on every 10th vehicle between churn passes: content
  // work per pass stays comparable, but the version bumps invalidate those
  // vehicles' cache entries like a real engine window does.
  auto churn_fleet = [&](UrrSolution* s) {
    for (size_t j = 0; j < s->schedules.size(); j += 10) {
      TransferSequence& seq = s->schedules[j];
      const std::vector<RiderId> riders = seq.Riders();
      if (riders.empty()) continue;
      const RiderId r = riders.front();
      if (!seq.RemoveRider(r).ok()) continue;
      const RiderTrip trip = (*world)->instance.Trip(r);
      auto plan = FindBestInsertion(seq, trip);
      if (plan.ok()) (void)ApplyInsertion(&seq, trip, *plan);
    }
  };

  TablePrinter table({"scenario", "config", "pairs/s", "speedup", "hits",
                      "misses", "screened", "elided", "kernel evals",
                      "seq copies"});
  // Untimed warm-up: touches the labels and per-worker scratch so the first
  // timed configuration isn't charged for cold memory.
  {
    SolverContext warm = (*world)->Context();
    (void)EvaluateCandidates((*world)->instance, &warm, sol, pairs, true);
  }
  int rc = 0;
  for (const bool churn : {false, true}) {
    const char* scenario = churn ? "churn" : "steady";
    double baseline_rate = 0;
    double baseline_checksum = NAN;
    for (const Config& c : configs) {
      // Fresh fleet per configuration so churn mutations line up exactly.
      UrrSolution fleet = sol;
      EvalCache cache;
      EvalCounters counters;
      SolverContext ctx = (*world)->Context();
      if (!c.screen) ctx.euclid_speed = 0;
      ctx.eval_cache = c.cache ? &cache : nullptr;
      ctx.counters = &counters;

      double checksum = 0;
      const uint64_t copies0 = TransferSequence::CopyCount();
      const double t0 = Now();
      for (int p = 0; p < passes; ++p) {
        if (churn && p > 0) churn_fleet(&fleet);
        const auto evals = EvaluateCandidates((*world)->instance, &ctx, fleet,
                                              pairs, /*need_utility=*/true);
        for (const CandidateEval& e : evals) {
          if (e.feasible) checksum += e.delta_cost;
        }
      }
      const double seconds = Now() - t0;
      const uint64_t copies = TransferSequence::CopyCount() - copies0;
      const double rate =
          static_cast<double>(pairs.size()) * passes / seconds;
      if (baseline_rate == 0) baseline_rate = rate;
      // All configurations are pure optimizations: identical evaluations.
      if (std::isnan(baseline_checksum)) {
        baseline_checksum = checksum;
      } else if (checksum != baseline_checksum) {
        std::fprintf(stderr, "%s/%s diverged: checksum %.17g != %.17g\n",
                     scenario, c.name, checksum, baseline_checksum);
        rc = 1;
      }
      table.AddRow({scenario, c.name, TablePrinter::Num(rate, 0),
                    TablePrinter::Num(rate / baseline_rate, 2),
                    std::to_string(counters.cache_hits.load()),
                    std::to_string(counters.cache_misses.load()),
                    std::to_string(counters.screened_pairs.load()),
                    std::to_string(counters.elided_queries.load()),
                    std::to_string(counters.kernel_evals.load()),
                    std::to_string(copies)});
      std::fprintf(
          out,
          "{\"bench\":\"eval\",%s,\"scenario\":\"%s\",\"config\":\"%s\","
          "\"pairs\":%zu,\"passes\":%d,\"seconds\":%.17g,"
          "\"pairs_per_sec\":%.17g,\"speedup_vs_baseline\":%.17g,"
          "\"cache_hits\":%llu,\"cache_misses\":%llu,"
          "\"screened_pairs\":%llu,\"elided_queries\":%llu,"
          "\"kernel_evals\":%llu,\"seq_copies\":%llu,\"seed\":%llu}\n",
          provenance.c_str(), scenario, c.name, pairs.size(), passes,
          seconds, rate,
          rate / baseline_rate,
          static_cast<unsigned long long>(counters.cache_hits.load()),
          static_cast<unsigned long long>(counters.cache_misses.load()),
          static_cast<unsigned long long>(counters.screened_pairs.load()),
          static_cast<unsigned long long>(counters.elided_queries.load()),
          static_cast<unsigned long long>(counters.kernel_evals.load()),
          static_cast<unsigned long long>(copies),
          static_cast<unsigned long long>(cfg.seed));
    }
  }
  std::fclose(out);
  table.Print();
  std::printf("\nper-run JSON appended to %s\n", out_path.c_str());
  return rc;
}
