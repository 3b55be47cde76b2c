// Versioned binary index snapshots (.urrx): one mmap-able file bundling the
// CSR road network, the contraction hierarchy (node order + shortcuts) and
// the hub labels, so an engine cold-start loads preprocessing in
// milliseconds instead of re-contracting the network.
//
// File layout (all integers little-endian, fixed width):
//
//   [0..4)    magic "URRX"
//   [4..8)    u32 format version (kIndexSnapshotVersion)
//   [8..12)   u32 section count
//   [12..16)  u32 flags (must be 0 in version 1)
//   then per section: {u32 id, u32 reserved, u64 offset, u64 size,
//                      u64 fnv1a64 checksum} (32 bytes each)
//   then the section payloads, each 8-byte aligned, contiguous (gaps are
//   zero padding), ending exactly at the file size.
//
// Loading verifies the header, the table geometry, every section checksum
// and every structural invariant of the payloads (see the Deserialize docs
// of RoadNetwork / ContractionHierarchy / HubLabels). Any malformation —
// truncation, bit flips, hostile lengths — returns an error Status; it
// never crashes and never returns a partially-initialized snapshot.
#ifndef URR_ROUTING_INDEX_SNAPSHOT_H_
#define URR_ROUTING_INDEX_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "graph/road_network.h"
#include "routing/contraction_hierarchy.h"
#include "routing/hub_labels.h"

namespace urr {

/// Current .urrx format version. Bump on any layout change; loaders reject
/// other versions outright (no silent reinterpretation).
inline constexpr uint32_t kIndexSnapshotVersion = 1;

/// Section ids of version 1. All three are required.
inline constexpr uint32_t kSnapshotSectionGraph = 1;
inline constexpr uint32_t kSnapshotSectionCh = 2;
inline constexpr uint32_t kSnapshotSectionHubLabels = 3;

/// Everything the routing layer needs, fully built: the network plus both
/// preprocessing artifacts. The experiment harness routes on the hub labels;
/// the hierarchy serves `urr_index verify` and path expansion.
struct IndexSnapshot {
  RoadNetwork network;
  ContractionHierarchy ch;
  HubLabels hub_labels;
};

/// Build-time breakdown reported by BuildIndexSnapshot.
struct IndexBuildStats {
  double ch_contract_seconds = 0;
  double hl_label_seconds = 0;
};

/// Runs the full preprocessing pipeline (CH contraction, then hub-label
/// extraction) for `network`. options.pool parallelizes both stages;
/// the result is bit-identical at any thread count.
Result<IndexSnapshot> BuildIndexSnapshot(const RoadNetwork& network,
                                         const ChOptions& options = {},
                                         IndexBuildStats* stats = nullptr);

/// Encodes `snapshot` as .urrx bytes (deterministic: equal snapshots give
/// byte-identical encodings).
std::string SerializeIndexSnapshot(const IndexSnapshot& snapshot);

/// Decodes and fully validates .urrx bytes. `bytes` is only read during the
/// call (the result owns its arrays), so it may be a borrowed mmap view.
Result<IndexSnapshot> ParseIndexSnapshot(std::string_view bytes);

/// Serializes and writes atomically-ish (write to `path` + ".tmp", rename).
Status SaveIndexSnapshot(const IndexSnapshot& snapshot,
                         const std::string& path);

/// Reads (mmap when possible, buffered read otherwise) and parses `path`.
Result<IndexSnapshot> LoadIndexSnapshot(const std::string& path);

/// FNV-1a 64 over the entire file; the provenance hash engine checkpoints
/// record so a restore can detect a swapped index.
Result<uint64_t> IndexSnapshotFileChecksum(const std::string& path);

/// Full load-path validation of `path` without keeping the result. OK means
/// LoadIndexSnapshot would succeed.
Status VerifyIndexSnapshotFile(const std::string& path);

}  // namespace urr

#endif  // URR_ROUTING_INDEX_SNAPSHOT_H_
