// Quickstart: the paper's running example (Example 1 / Figure 1).
//
// Four riders and two capacity-2 vehicles on an 8-node road network. We
// state each rider's request, attach the Table-1 vehicle-related utilities
// and the Figure-2 social connections, then compare a hand-built schedule
// against the solvers' output. Build & run:
//
//   cmake -B build -G Ninja && cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "common/rng.h"
#include "graph/generators.h"
#include "routing/distance_oracle.h"
#include "spatial/vehicle_index.h"
#include "urr/bilateral.h"
#include "urr/cost_first.h"
#include "urr/greedy.h"
#include "urr/optimal.h"

using namespace urr;

int main() {
  // --- The road network of Figure 1 (nodes 0..7 = A..H). -------------------
  auto network = PaperFigure1Network();
  if (!network.ok()) {
    std::fprintf(stderr, "network: %s\n", network.status().ToString().c_str());
    return 1;
  }
  DijkstraOracle oracle(*network);

  // --- Riders r1..r4 (ids 0..3): (source, dest, rt-, rt+). -----------------
  // Deadlines follow the Example-1 pattern: r1 wants pickup at A before 4
  // and dropoff before 10, etc.
  UrrInstance instance;
  instance.network = &*network;
  instance.riders = {
      {0 /*A*/, 7 /*H*/, 4, 10, 0},   // r1
      {1 /*B*/, 6 /*G*/, 5, 12, 1},   // r2
      {4 /*E*/, 6 /*G*/, 13, 18, 2},  // r3 (deadlines widened so the
                                      // Example-1 plan is feasible on our
                                      // reconstruction of Figure 1)
      {5 /*F*/, 3 /*D*/, 6, 14, 3},   // r4
  };
  // --- Vehicles c1 at B, c2 at F, both capacity 2. --------------------------
  instance.vehicles = {{1, 2}, {5, 2}};

  // --- Table 1: the vehicle-related utility matrix. -------------------------
  const Status published = instance.SetVehicleUtility({
      0.2f, 0.4f,   // r1 -> c1, c2
      0.6f, 0.3f,   // r2
      0.2f, 0.8f,   // r3
      0.2f, 1.0f,   // r4
  });
  if (!published.ok()) {
    std::fprintf(stderr, "mu_v: %s\n", published.ToString().c_str());
    return 1;
  }

  // --- Figure 2: social connections between the riders. --------------------
  // r1-r2, r2-r3, r3-r4 are friends (a chain), so e.g. s(r1, r3) counts
  // their common friend r2.
  auto social = SocialGraph::Build(4, {{0, 1}, {1, 2}, {2, 3}});
  instance.social = &*social;

  UtilityModel model(&instance, UtilityParams{1.0 / 3.0, 1.0 / 3.0});

  // --- A hand-built schedule, checked and scored. ---------------------------
  // Vehicle c1 takes r1 then r2 (pick r1 at A, pick r2 at B, drop r1 at H,
  // drop r2 at G) -- the optimal plan Example 1 describes.
  UrrSolution manual = MakeEmptySolution(instance, &oracle);
  TransferSequence& c1 = manual.schedules[0];
  c1.InsertStop(0, {0, 0, StopType::kPickup, 4});
  c1.InsertStop(1, {1, 1, StopType::kPickup, 5});
  c1.InsertStop(2, {7, 0, StopType::kDropoff, 10});
  c1.InsertStop(3, {6, 1, StopType::kDropoff, 12});
  manual.assignment[0] = 0;
  manual.assignment[1] = 0;
  TransferSequence& c2 = manual.schedules[1];
  c2.InsertStop(0, {5, 3, StopType::kPickup, 6});
  c2.InsertStop(1, {3, 3, StopType::kDropoff, 14});
  c2.InsertStop(2, {4, 2, StopType::kPickup, 13});
  c2.InsertStop(3, {6, 2, StopType::kDropoff, 18});
  manual.assignment[2] = 1;
  manual.assignment[3] = 1;

  const Status valid = manual.Validate(instance);
  std::printf("hand-built schedule valid: %s\n", valid.ToString().c_str());
  if (valid.ok()) {
    for (RiderId i = 0; i < 4; ++i) {
      const int j = manual.assignment[static_cast<size_t>(i)];
      std::printf("  rider r%d on vehicle c%d: utility %.4f (mu_v=%.2f)\n",
                  i + 1, j + 1,
                  model.RiderUtility(i, j, manual.schedules[static_cast<size_t>(j)]),
                  instance.VehicleUtility(i, j));
    }
    std::printf("  overall utility: %.4f, total travel cost: %.1f\n\n",
                manual.TotalUtility(model), manual.TotalCost());
  }

  // --- Let the solvers arrange the riders. ----------------------------------
  Rng rng(7);
  VehicleIndex index(*network, {1, 5});
  SolverContext ctx;
  ctx.oracle = &oracle;
  ctx.model = &model;
  ctx.vehicle_index = &index;
  ctx.rng = &rng;

  auto report = [&](const char* name, const UrrSolution& sol) {
    std::printf("%-4s utility=%.4f cost=%.1f assigned=%d  schedules:", name,
                sol.TotalUtility(model), sol.TotalCost(), sol.NumAssigned());
    for (size_t j = 0; j < sol.schedules.size(); ++j) {
      std::printf("  c%zu:[", j + 1);
      for (int u = 0; u < sol.schedules[j].num_stops(); ++u) {
        const Stop& s = sol.schedules[j].stop(u);
        std::printf("%s r%d%c", u ? "," : "", s.rider + 1,
                    s.type == StopType::kPickup ? '+' : '-');
      }
      std::printf(" ]");
    }
    std::printf("\n");
  };

  report("CF", SolveCostFirst(instance, &ctx));
  report("EG", SolveEfficientGreedy(instance, &ctx));
  report("BA", SolveBilateral(instance, &ctx));
  auto opt = SolveOptimal(instance, &ctx);
  if (opt.ok()) report("OPT", *opt);
  return 0;
}
