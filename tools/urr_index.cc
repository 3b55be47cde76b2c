// urr_index: build, inspect and verify .urrx routing-index snapshots (CSR
// road network + hub labels with per-section checksums; the contraction
// hierarchy the labels come from is built and dropped). A snapshot built
// once lets every later run (urr_engine --index,
// ExperimentConfig::index_snapshot) cold-start in milliseconds instead of
// re-contracting the network; the loaded index answers bitwise the same
// distances as a fresh build.
//
// Examples:
//   urr_index build --city nyc --nodes 4000 --seed 42 --threads 8
//             --out nyc4k.urrx
//   urr_index build --city grid --width 12 --height 10 --seed 7
//             --quantize 0.25 --out golden.urrx
//   urr_index info nyc4k.urrx
//   urr_index verify nyc4k.urrx --probe 500
//   urr_index bench --city nyc --nodes 4000 --threads 1,2,8
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "graph/generators.h"
#include "routing/distance_oracle.h"
#include "routing/index_snapshot.h"

namespace urr {
namespace {

struct Options {
  std::string mode;   // build | info | verify | bench
  std::string path;   // snapshot file (positional, for info/verify)
  std::string out;    // --out for build/bench
  std::string city = "grid";  // nyc | chicago | grid
  int nodes = 2000;           // nyc/chicago target size
  int width = 16;             // grid dimensions
  int height = 16;
  uint64_t seed = 42;
  double quantize = 0;        // snap edge costs to multiples of this; 0 = off
  std::string threads = "1";  // build: one count; bench: comma list
  int probe = 0;              // verify: HL-vs-Dijkstra probe pairs

  void Register(FlagSet* flags) {
    FlagSet& f = *flags;
    f.AllowPositional(2);
    f.Text(R"(
usage: urr_index build|info|verify|bench [FILE] [flags]

modes:
  build   generate a network, run CH contraction + hub-label extraction
          (parallel with --threads; bit-identical at any count) and save
  info    load a snapshot and print its version, checksum, load time,
          graph size and hub-label statistics
  verify  full load-path validation (header, geometry, checksums, structural
          invariants); --probe N additionally checks N random hub-label
          distances against Dijkstra on the snapshot's network
  bench   build at each thread count in --threads, require byte-identical
          snapshots, and report build / save / load times)");
    f.Section("world (build, bench):");
    f.Flag("--city", "nyc|chicago|grid", &city, "network preset");
    f.Flag("--nodes", "N", &nodes, "size of the nyc/chicago presets");
    f.Flag("--width", "W", &width, "grid preset width");
    f.Flag("--height", "H", &height, "grid preset height");
    f.Flag("--seed", "S", &seed, "generator seed (verify: probe seed)");
    f.Flag("--quantize", "Q", &quantize,
           "snap edge costs to multiples of Q (exact doubles)");
    f.Section("build, bench, verify:");
    f.Flag("--threads", "T[,T...]", &threads,
           "build: one thread count; bench: a comma list");
    f.Flag("--out", "FILE", &out, "the snapshot to write");
    f.Flag("--probe", "N", &probe, "verify: hub-label-vs-Dijkstra probe pairs");
  }
};

/// Generates the configured network, optionally snapping edge costs to
/// multiples of --quantize (the rounded values are exact doubles, so sums
/// over them are exact and query results are bitwise comparable).
Result<RoadNetwork> MakeNetwork(const Options& opt) {
  Rng rng(opt.seed);
  RoadNetwork net;
  if (opt.city == "nyc") {
    URR_ASSIGN_OR_RETURN(net, GenerateNycLike(opt.nodes, &rng));
  } else if (opt.city == "chicago") {
    URR_ASSIGN_OR_RETURN(net, GenerateChicagoLike(opt.nodes, &rng));
  } else if (opt.city == "grid") {
    GridCityOptions g;
    g.width = opt.width;
    g.height = opt.height;
    URR_ASSIGN_OR_RETURN(net, GenerateGridCity(g, &rng));
  } else {
    return Status::InvalidArgument("unknown --city " + opt.city +
                                   " (expected nyc|chicago|grid)");
  }
  if (opt.quantize > 0) {
    std::vector<Edge> edges = net.EdgeList();
    for (Edge& e : edges) {
      e.cost = std::round(e.cost / opt.quantize) * opt.quantize;
    }
    return RoadNetwork::Build(net.num_nodes(), std::move(edges),
                              net.coords());
  }
  return net;
}

Result<std::vector<int>> ParseThreadList(const std::string& spec) {
  std::vector<int> counts;
  size_t pos = 0;
  while (pos <= spec.size()) {
    const size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string tok = spec.substr(pos, comma - pos);
    URR_ASSIGN_OR_RETURN(const int t, ParseIntToken(tok, "--threads"));
    if (t < 1) {
      return Status::InvalidArgument("bad thread count '" + tok + "'");
    }
    counts.push_back(t);
    pos = comma + 1;
  }
  if (counts.empty()) {
    return Status::InvalidArgument("--threads list is empty");
  }
  return counts;
}

Result<IndexSnapshot> BuildWithThreads(const RoadNetwork& net, int threads,
                                       IndexBuildStats* stats) {
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  ChOptions options;
  options.pool = pool.get();
  return BuildIndexSnapshot(net, options, stats);
}

Status RunBuild(const Options& opt) {
  if (opt.out.empty()) {
    return Status::InvalidArgument("build needs --out FILE");
  }
  URR_ASSIGN_OR_RETURN(std::vector<int> counts, ParseThreadList(opt.threads));
  URR_ASSIGN_OR_RETURN(RoadNetwork net, MakeNetwork(opt));
  std::printf("network: %d nodes, %lld edges\n", net.num_nodes(),
              static_cast<long long>(net.num_edges()));
  IndexBuildStats stats;
  Stopwatch total;
  URR_ASSIGN_OR_RETURN(IndexSnapshot snapshot,
                       BuildWithThreads(net, counts.front(), &stats));
  const double build_seconds = total.ElapsedSeconds();
  URR_RETURN_NOT_OK(SaveIndexSnapshot(snapshot, opt.out));
  URR_ASSIGN_OR_RETURN(uint64_t checksum, IndexSnapshotFileChecksum(opt.out));
  std::printf(
      "built with %d thread(s) in %.3fs (contract %.3fs, labels %.3fs)\n",
      counts.front(), build_seconds, stats.ch_contract_seconds,
      stats.hl_label_seconds);
  std::printf("ch: %lld upward edges; hl: %lld entries (avg %.2f per label)\n",
              static_cast<long long>(snapshot.ch.num_upward_edges()),
              static_cast<long long>(snapshot.hub_labels.num_entries()),
              snapshot.hub_labels.average_label_size());
  std::printf("wrote %s (checksum %llu)\n", opt.out.c_str(),
              static_cast<unsigned long long>(checksum));
  return Status::OK();
}

Status RunInfo(const Options& opt) {
  if (opt.path.empty()) return Status::InvalidArgument("info needs a FILE");
  Stopwatch watch;
  URR_ASSIGN_OR_RETURN(IndexSnapshot snapshot, LoadIndexSnapshot(opt.path));
  const double load_seconds = watch.ElapsedSeconds();
  URR_ASSIGN_OR_RETURN(uint64_t checksum,
                       IndexSnapshotFileChecksum(opt.path));
  std::printf("%s: .urrx version %u, checksum %llu, loaded in %.3fs\n",
              opt.path.c_str(), kIndexSnapshotVersion,
              static_cast<unsigned long long>(checksum), load_seconds);
  std::printf("  graph: %d nodes, %lld edges (coords: %s)\n",
              snapshot.network.num_nodes(),
              static_cast<long long>(snapshot.network.num_edges()),
              snapshot.network.has_coords() ? "yes" : "no");
  std::printf("  hl:    %lld entries, avg label size %.2f\n",
              static_cast<long long>(snapshot.hub_labels.num_entries()),
              snapshot.hub_labels.average_label_size());
  return Status::OK();
}

/// Largest relative gap `verify --probe` accepts between a finite hub-label
/// cost and Dijkstra's. Both sum the same edge costs in different orders, so
/// on non-quantized networks they can differ in the last ulps; quantized
/// networks agree bitwise.
constexpr double kProbeRelativeTolerance = 1e-9;

Status RunVerify(const Options& opt) {
  if (opt.path.empty()) return Status::InvalidArgument("verify needs a FILE");
  URR_ASSIGN_OR_RETURN(IndexSnapshot snapshot, LoadIndexSnapshot(opt.path));
  std::printf("%s: header, section checksums and structural invariants OK\n",
              opt.path.c_str());
  if (opt.probe > 0) {
    const NodeId n = snapshot.network.num_nodes();
    if (n == 0) return Status::InvalidArgument("empty snapshot");
    DijkstraOracle reference(snapshot.network);
    Rng rng(opt.seed);
    Cost max_gap = 0;
    bool bitwise = true;
    for (int k = 0; k < opt.probe; ++k) {
      const NodeId u = static_cast<NodeId>(rng.UniformInt(0, n - 1));
      const NodeId v = static_cast<NodeId>(rng.UniformInt(0, n - 1));
      const Cost want = reference.Distance(u, v);
      const Cost got = snapshot.hub_labels.Distance(u, v);
      bitwise = bitwise && std::memcmp(&want, &got, sizeof(Cost)) == 0;
      const bool reachable = want < kInfiniteCost;
      const Cost gap = reachable ? std::abs(got - want) : 0;
      if (reachable != (got < kInfiniteCost) ||
          gap > kProbeRelativeTolerance * want) {
        return Status::Internal(
            "probe " + std::to_string(k) +
            ": hub labels and Dijkstra disagree on (" + std::to_string(u) +
            ", " + std::to_string(v) + "): " + std::to_string(got) + " vs " +
            std::to_string(want));
      }
      max_gap = std::max(max_gap, gap);
    }
    std::printf(
        "%d hub-label-vs-Dijkstra probes agree (max |HL - Dijkstra| %.3g, "
        "%s)\n",
        opt.probe, max_gap, bitwise ? "all bitwise equal" : "not all bitwise");
  }
  return Status::OK();
}

Status RunBench(const Options& opt) {
  URR_ASSIGN_OR_RETURN(std::vector<int> counts, ParseThreadList(opt.threads));
  URR_ASSIGN_OR_RETURN(RoadNetwork net, MakeNetwork(opt));
  std::printf("network: %d nodes, %lld edges\n", net.num_nodes(),
              static_cast<long long>(net.num_edges()));
  std::string reference_bytes;
  double serial_build_seconds = 0;
  for (const int t : counts) {
    IndexBuildStats stats;
    Stopwatch watch;
    URR_ASSIGN_OR_RETURN(IndexSnapshot snapshot,
                         BuildWithThreads(net, t, &stats));
    const double build_seconds = watch.ElapsedSeconds();
    if (t == counts.front()) serial_build_seconds = build_seconds;
    const std::string bytes = SerializeIndexSnapshot(snapshot);
    if (reference_bytes.empty()) {
      reference_bytes = bytes;
    } else if (bytes != reference_bytes) {
      return Status::Internal(
          "snapshot built with " + std::to_string(t) +
          " thread(s) is not byte-identical to the first build");
    }
    std::printf(
        "threads=%d: build %.3fs (contract %.3fs, labels %.3fs)%s\n", t,
        build_seconds, stats.ch_contract_seconds, stats.hl_label_seconds,
        t == counts.front() ? "" : "  [bytes identical]");
  }
  const std::string out =
      opt.out.empty() ? std::string("/tmp/urr_index_bench.urrx") : opt.out;
  {
    URR_ASSIGN_OR_RETURN(IndexSnapshot snapshot,
                         ParseIndexSnapshot(reference_bytes));
    Stopwatch watch;
    URR_RETURN_NOT_OK(SaveIndexSnapshot(snapshot, out));
    const double save_seconds = watch.ElapsedSeconds();
    watch.Reset();
    URR_ASSIGN_OR_RETURN(IndexSnapshot loaded, LoadIndexSnapshot(out));
    const double load_seconds = watch.ElapsedSeconds();
    (void)loaded;
    std::printf(
        "snapshot: %zu bytes, save %.3fs, load %.3fs (cold start %.1fx "
        "faster than rebuild)\n",
        reference_bytes.size(), save_seconds, load_seconds,
        load_seconds > 0 ? serial_build_seconds / load_seconds : 0.0);
  }
  return Status::OK();
}

Status Run(Options opt, const std::vector<std::string>& args) {
  if (args.empty()) {
    return Status::InvalidArgument("missing mode (build|info|verify|bench)");
  }
  opt.mode = args[0];
  if (args.size() > 1) opt.path = args[1];
  if (opt.mode == "build") return RunBuild(opt);
  if (opt.mode == "info") return RunInfo(opt);
  if (opt.mode == "verify") return RunVerify(opt);
  if (opt.mode == "bench") return RunBench(opt);
  return Status::InvalidArgument("unknown mode '" + opt.mode +
                                 "' (expected build|info|verify|bench)");
}

}  // namespace
}  // namespace urr

int main(int argc, char** argv) {
  urr::Options options;
  urr::FlagSet flags("urr_index - .urrx routing-index snapshot tool");
  options.Register(&flags);
  return flags.Main(argc, argv, [&](const std::vector<std::string>& args) {
    return urr::Run(options, args);
  });
}
