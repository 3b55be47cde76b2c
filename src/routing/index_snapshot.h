// Versioned binary index snapshots (.urrx): one mmap-able file bundling the
// CSR road network and the hub labels, so an engine cold-start loads its
// routing index in milliseconds instead of re-contracting the network. The
// contraction hierarchy the labels come from is a build step only and is
// not stored.
//
// File layout (all integers little-endian, fixed width):
//
//   [0..4)    magic "URRX"
//   [4..8)    u32 format version (kIndexSnapshotVersion)
//   [8..12)   u32 section count (2)
//   [12..16)  u32 flags (must be 0)
//   then per section: {u32 id, u32 reserved, u64 offset, u64 size,
//                      u64 fnv1a64 checksum} (32 bytes each), exactly
//                      GRAPH (id 1) then HL (id 3)
//   then the section payloads, each 8-byte aligned, contiguous (gaps are
//   zero padding), ending exactly at the file size.
//
// Version history: 1 = GRAPH, CH (id 2) and HL; 2 = GRAPH and HL, with
// payloads byte-identical to version 1's. Only the current version loads.
//
// Loading verifies the header, the section table (count, ids, geometry),
// every section checksum and every structural invariant of the payloads
// (see the Deserialize docs of RoadNetwork / HubLabels). Any malformation —
// an old version, a missing or foreign section, truncation, bit flips,
// hostile lengths — returns an error Status naming it; it never crashes and
// never returns a partially-initialized snapshot.
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
inline constexpr uint32_t kIndexSnapshotVersion = 2;

/// Section ids of version 2, in table order. Both are required and no other
/// id is accepted (id 2 was version 1's hierarchy section).
inline constexpr uint32_t kSnapshotSectionGraph = 1;
inline constexpr uint32_t kSnapshotSectionHubLabels = 3;

/// The routing index: the network and the hub labels the experiment
/// harness routes on. `ch` is the build product the labels were extracted
/// from: BuildIndexSnapshot fills it, SaveIndexSnapshot and
/// SerializeIndexSnapshot ignore it, and a loaded snapshot leaves it empty.
/// Nothing queries it; it stays because perfbench/src/probe.cc assigns it.
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

/// Encodes `snapshot`'s network and hub labels as .urrx bytes
/// (deterministic: equal inputs give byte-identical encodings).
std::string SerializeIndexSnapshot(const IndexSnapshot& snapshot);

/// Decodes and fully validates .urrx bytes; the result's `ch` is empty.
/// `bytes` is only read during the call (the result owns its arrays), so it
/// may be a borrowed mmap view.
Result<IndexSnapshot> ParseIndexSnapshot(std::string_view bytes);

/// Serializes and writes atomically-ish (write to `path` + ".tmp", rename).
/// The header and section payloads are written in turn, never joined into
/// one buffer, so the process holds one copy of the encoding.
Status SaveIndexSnapshot(const IndexSnapshot& snapshot,
                         const std::string& path);

/// Reads (mmap when possible, buffered read otherwise) and parses `path`.
Result<IndexSnapshot> LoadIndexSnapshot(const std::string& path);

/// FNV-1a 64 over the entire file; the provenance hash engine checkpoints
/// record so a restore can detect a swapped index.
Result<uint64_t> IndexSnapshotFileChecksum(const std::string& path);

}  // namespace urr

#endif  // URR_ROUTING_INDEX_SNAPSHOT_H_
