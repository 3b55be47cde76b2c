#include "graph/dimacs.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/binary_io.h"

namespace urr {

Result<RoadNetwork> ParseDimacs(const std::string& gr_text,
                                const std::string& co_text) {
  std::istringstream in(gr_text);
  std::string line;
  NodeId num_nodes = -1;
  int64_t declared_edges = -1;
  std::vector<Edge> edges;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    char tag;
    ls >> tag;
    if (tag == 'c') continue;
    if (tag == 'p') {
      if (num_nodes >= 0) {
        return Status::InvalidArgument("duplicate DIMACS problem line: " +
                                       line);
      }
      std::string kind;
      int64_t n = 0, m = 0;
      ls >> kind >> n >> m;
      if (!ls || kind != "sp") {
        return Status::InvalidArgument("bad DIMACS problem line: " + line);
      }
      // Validate the declared sizes before they size anything: a corrupt
      // header must not drive a multi-gigabyte reserve.
      constexpr int64_t kMaxDeclared = int64_t{1} << 30;
      if (n < 0 || m < 0 || n > kMaxDeclared || m > kMaxDeclared) {
        return Status::InvalidArgument("DIMACS sizes out of range: " + line);
      }
      num_nodes = static_cast<NodeId>(n);
      declared_edges = m;
      edges.reserve(static_cast<size_t>(std::min(m, int64_t{1} << 22)));
    } else if (tag == 'a') {
      int64_t u = 0, v = 0;
      double w = 0;
      ls >> u >> v >> w;
      if (!ls) return Status::InvalidArgument("bad DIMACS arc line: " + line);
      if (num_nodes < 0) {
        return Status::InvalidArgument("arc line before problem line");
      }
      if (u < 1 || u > num_nodes || v < 1 || v > num_nodes) {
        return Status::InvalidArgument("DIMACS node id out of range: " + line);
      }
      if (!std::isfinite(w) || w < 0) {
        return Status::InvalidArgument("DIMACS arc cost must be finite and "
                                       "non-negative: " + line);
      }
      if (static_cast<int64_t>(edges.size()) == declared_edges) {
        return Status::InvalidArgument(
            "more arcs than the " + std::to_string(declared_edges) +
            " declared");
      }
      edges.push_back({static_cast<NodeId>(u - 1), static_cast<NodeId>(v - 1), w});
    } else {
      return Status::InvalidArgument("unknown DIMACS line tag: " + line);
    }
  }
  if (num_nodes < 0) return Status::InvalidArgument("missing problem line");
  if (declared_edges >= 0 &&
      declared_edges != static_cast<int64_t>(edges.size())) {
    return Status::InvalidArgument(
        "declared " + std::to_string(declared_edges) + " arcs, found " +
        std::to_string(edges.size()));
  }

  std::vector<Coord> coords;
  if (!co_text.empty()) {
    coords.assign(static_cast<size_t>(num_nodes), Coord{});
    std::istringstream cin_(co_text);
    while (std::getline(cin_, line)) {
      if (line.empty()) continue;
      std::istringstream ls(line);
      char tag;
      ls >> tag;
      if (tag == 'c' || tag == 'p') continue;
      if (tag == 'v') {
        int64_t id = 0;
        double x = 0, y = 0;
        ls >> id >> x >> y;
        if (!ls || id < 1 || id > num_nodes || !std::isfinite(x) ||
            !std::isfinite(y)) {
          return Status::InvalidArgument("bad DIMACS coord line: " + line);
        }
        coords[static_cast<size_t>(id - 1)] = {x, y};
      } else {
        return Status::InvalidArgument("unknown DIMACS coord tag: " + line);
      }
    }
  }
  return RoadNetwork::Build(num_nodes, std::move(edges), std::move(coords));
}

Result<RoadNetwork> LoadDimacsFiles(const std::string& gr_path,
                                    const std::string& co_path) {
  URR_ASSIGN_OR_RETURN(std::string gr, ReadFile(gr_path));
  std::string co;
  if (!co_path.empty()) {
    URR_ASSIGN_OR_RETURN(co, ReadFile(co_path));
  }
  return ParseDimacs(gr, co);
}

}  // namespace urr
