// Ablation: the distance oracle behind the solvers. Hub labels are the
// production oracle; this bench runs the same EG workload over plain
// Dijkstra, ALT, CH and hub labels (no cache in front of any of them) and
// reports preprocessing time, solve time and oracle call counts — what the
// label extraction buys on top of the CH it is built from, and what the
// cheap-preprocessing ALT alternative costs.
#include "common/stopwatch.h"
#include "common/table.h"
#include "routing/alt.h"
#include "routing/hub_labels.h"
#include "urr/greedy.h"

#include "bench_util.h"

int main() {
  using namespace urr;
  using namespace urr::bench;
  ExperimentConfig cfg = DefaultConfig();
  Banner("Ablation - distance oracle behind the solvers (EG workload)", cfg);

  auto world = BuildWorld(cfg);
  if (!world.ok()) {
    std::fprintf(stderr, "world failed: %s\n",
                 world.status().ToString().c_str());
    return 1;
  }
  ExperimentWorld& w = **world;

  // Build the contenders (preprocessing timed separately).
  Stopwatch alt_prep;
  Rng alt_rng(cfg.seed);
  auto alt = AltOracle::Create(w.network, /*num_landmarks=*/8, &alt_rng);
  if (!alt.ok()) {
    std::fprintf(stderr, "alt failed: %s\n", alt.status().ToString().c_str());
    return 1;
  }
  const double alt_prep_s = alt_prep.ElapsedSeconds();
  DijkstraOracle dijkstra(w.network);
  // One contraction serves both the CH oracle and the label extraction.
  Stopwatch ch_prep;
  auto ch = ContractionHierarchy::Build(w.network);
  if (!ch.ok()) {
    std::fprintf(stderr, "ch failed: %s\n", ch.status().ToString().c_str());
    return 1;
  }
  const double ch_prep_s = ch_prep.ElapsedSeconds();
  Stopwatch hl_prep;
  auto hl = HubLabelOracle::FromHierarchy(*ch);
  if (!hl.ok()) {
    std::fprintf(stderr, "hl failed: %s\n", hl.status().ToString().c_str());
    return 1;
  }
  const double hl_prep_s = ch_prep_s + hl_prep.ElapsedSeconds();
  std::unique_ptr<ChOracle> ch_oracle =
      ChOracle::FromHierarchy(*std::move(ch));

  struct Contender {
    const char* name;
    DistanceOracle* oracle;
    double prep_seconds;
  };
  Contender contenders[] = {
      {"Dijkstra (no prep)", &dijkstra, 0.0},
      {"ALT (8 landmarks)", alt->get(), alt_prep_s},
      {"Contraction Hierarchies", ch_oracle.get(), ch_prep_s},
      {"Hub labels (CH + extraction)", hl->get(), hl_prep_s},
  };

  TablePrinter table({"oracle", "prep (s)", "EG solve (s)", "oracle calls",
                      "utility"});
  for (Contender& c : contenders) {
    SolverContext ctx = w.Context();
    ctx.oracle = c.oracle;
    AttachThreadPool(&ctx, w.pool.get());
    const int64_t calls_before = c.oracle->num_calls();
    Stopwatch t;
    UrrSolution sol = SolveEfficientGreedy(w.instance, &ctx);
    const double seconds = t.ElapsedSeconds();
    const Status valid = sol.Validate(w.instance);
    if (!valid.ok()) {
      std::fprintf(stderr, "%s produced invalid solution: %s\n", c.name,
                   valid.ToString().c_str());
      return 1;
    }
    table.AddRow({c.name,
                  TablePrinter::Num(c.prep_seconds, 2),
                  TablePrinter::Num(seconds, 3),
                  std::to_string(c.oracle->num_calls() - calls_before),
                  TablePrinter::Num(sol.TotalUtility(w.model), 3)});
  }
  table.Print();
  std::printf(
      "\nall four oracles are exact; sub-1e-9 floating-point differences in "
      "shortcut sums can flip equal-cost insertion ties, so utilities may "
      "wobble in the last decimals. Oracle calls count pairs, batched or "
      "not; only the CH and hub labels amortize a batch.\n");
  return 0;
}
