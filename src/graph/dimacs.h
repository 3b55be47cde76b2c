// Loader for the 9th DIMACS Implementation Challenge road-network format
// (the dataset the paper uses for NYC and Chicago). Lets real data drop in
// for users who have it; our benches default to synthetic city networks.
#ifndef URR_GRAPH_DIMACS_H_
#define URR_GRAPH_DIMACS_H_

#include <string>

#include "common/result.h"
#include "graph/road_network.h"

namespace urr {

/// Parses DIMACS `.gr` text ("p sp <n> <m>" header, "a <u> <v> <w>" arcs;
/// 1-based node ids). Optionally merges `.co` text ("v <id> <x> <y>") for
/// coordinates; pass an empty string when unavailable.
Result<RoadNetwork> ParseDimacs(const std::string& gr_text,
                                const std::string& co_text = "");

/// Reads a `.gr` file (and optional `.co` file) from disk. NotFound when a
/// path does not exist, IOError when it cannot be opened or read.
Result<RoadNetwork> LoadDimacsFiles(const std::string& gr_path,
                                    const std::string& co_path = "");

}  // namespace urr

#endif  // URR_GRAPH_DIMACS_H_
