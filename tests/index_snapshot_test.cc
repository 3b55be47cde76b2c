#include "routing/index_snapshot.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/generators.h"
#include "routing/distance_oracle.h"
#include "routing/hub_labels.h"

namespace urr {
namespace {

uint64_t BitsOf(Cost c) {
  uint64_t b = 0;
  static_assert(sizeof(b) == sizeof(c));
  std::memcpy(&b, &c, sizeof(b));
  return b;
}

RoadNetwork SmallCity(uint64_t seed, int width = 12, int height = 10) {
  Rng rng(seed);
  GridCityOptions opt;
  opt.width = width;
  opt.height = height;
  auto g = GenerateGridCity(opt, &rng);
  EXPECT_TRUE(g.ok());
  return *std::move(g);
}

/// Rounds every edge cost to a multiple of 1/4 so that all path sums are
/// exact in double arithmetic and all oracle kinds agree bitwise.
RoadNetwork Quantize(const RoadNetwork& net, double step = 0.25) {
  std::vector<Edge> edges = net.EdgeList();
  for (Edge& e : edges) e.cost = std::round(e.cost / step) * step;
  auto g = RoadNetwork::Build(net.num_nodes(), std::move(edges), net.coords());
  EXPECT_TRUE(g.ok());
  return *std::move(g);
}

IndexSnapshot BuildSnap(const RoadNetwork& net, int threads = 1) {
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  ChOptions options;
  options.pool = pool.get();
  auto snap = BuildIndexSnapshot(net, options);
  EXPECT_TRUE(snap.ok()) << snap.status();
  return *std::move(snap);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// --- raw byte accessors for targeted corruption --------------------------

uint32_t U32At(const std::string& bytes, size_t off) {
  uint32_t v = 0;
  std::memcpy(&v, bytes.data() + off, sizeof(v));
  return v;
}
uint64_t U64At(const std::string& bytes, size_t off) {
  uint64_t v = 0;
  std::memcpy(&v, bytes.data() + off, sizeof(v));
  return v;
}
void PutU32At(std::string* bytes, size_t off, uint32_t v) {
  std::memcpy(bytes->data() + off, &v, sizeof(v));
}
void PutU64At(std::string* bytes, size_t off, uint64_t v) {
  std::memcpy(bytes->data() + off, &v, sizeof(v));
}
void PutDoubleAt(std::string* bytes, size_t off, double v) {
  std::memcpy(bytes->data() + off, &v, sizeof(v));
}

constexpr size_t kHeaderSize = 16;
constexpr size_t kTableEntrySize = 32;

struct Section {
  uint32_t id = 0;
  size_t table_at = 0;  // table entry position in the file
  size_t offset = 0;
  size_t size = 0;
};

std::vector<Section> SectionTable(const std::string& bytes) {
  const uint32_t count = U32At(bytes, 8);
  std::vector<Section> sections;
  for (uint32_t i = 0; i < count; ++i) {
    Section s;
    s.table_at = kHeaderSize + kTableEntrySize * i;
    s.id = U32At(bytes, s.table_at);
    s.offset = static_cast<size_t>(U64At(bytes, s.table_at + 8));
    s.size = static_cast<size_t>(U64At(bytes, s.table_at + 16));
    sections.push_back(s);
  }
  return sections;
}

/// Recomputes and patches section i's checksum so a payload mutation is
/// exercised against the structural validators, not the checksum gate.
void FixChecksum(std::string* bytes, const Section& s) {
  const uint64_t sum = Fnv1a64(bytes->data() + s.offset, s.size);
  PutU64At(bytes, s.table_at + 24, sum);
}

// --- round trips ----------------------------------------------------------

TEST(IndexSnapshotTest, SerializeParseRoundTripByteStable) {
  const RoadNetwork net = SmallCity(11);
  const IndexSnapshot snap = BuildSnap(net);
  const std::string bytes = SerializeIndexSnapshot(snap);
  ASSERT_GT(bytes.size(), kHeaderSize + 2 * kTableEntrySize);
  EXPECT_EQ(bytes.size() % 8, 0u);

  auto parsed = ParseIndexSnapshot(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->network.num_nodes(), net.num_nodes());
  EXPECT_EQ(parsed->network.num_edges(), net.num_edges());
  EXPECT_EQ(parsed->ch.num_nodes(), 0) << "a loaded snapshot has no hierarchy";
  EXPECT_EQ(SerializeIndexSnapshot(*parsed), bytes)
      << "parse -> re-serialize must reproduce the input bytes";
}

TEST(IndexSnapshotTest, SaveLoadRoundTrip) {
  const RoadNetwork net = SmallCity(12);
  const IndexSnapshot snap = BuildSnap(net);
  const std::string bytes = SerializeIndexSnapshot(snap);
  const std::string path = testing::TempDir() + "/roundtrip.urrx";

  ASSERT_TRUE(SaveIndexSnapshot(snap, path).ok());
  EXPECT_EQ(ReadFileBytes(path), bytes) << "file bytes == in-memory encoding";

  auto checksum = IndexSnapshotFileChecksum(path);
  ASSERT_TRUE(checksum.ok());
  EXPECT_EQ(*checksum, Fnv1a64(bytes.data(), bytes.size()));

  auto loaded = LoadIndexSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(SerializeIndexSnapshot(*loaded), bytes);
}

TEST(IndexSnapshotTest, ParallelBuildsAreBitIdentical) {
  const RoadNetwork net = SmallCity(13, 14, 12);
  const std::string serial = SerializeIndexSnapshot(BuildSnap(net, 1));
  for (const int threads : {2, 8}) {
    EXPECT_EQ(SerializeIndexSnapshot(BuildSnap(net, threads)), serial)
        << threads << "-thread build must be byte-identical to serial";
  }
}

TEST(IndexSnapshotTest, BuildStatsAreReported) {
  const RoadNetwork net = SmallCity(14);
  IndexBuildStats stats;
  auto snap = BuildIndexSnapshot(net, ChOptions{}, &stats);
  ASSERT_TRUE(snap.ok());
  EXPECT_GT(stats.ch_contract_seconds, 0.0);
  EXPECT_GT(stats.hl_label_seconds, 0.0);
}

// --- golden fixture -------------------------------------------------------

std::string GoldenPath() {
  return std::string(URR_TEST_DATA_DIR) + "/golden.urrx";
}

TEST(IndexSnapshotGoldenTest, FixtureLoadsAndReserializesIdentically) {
  const std::string bytes = ReadFileBytes(GoldenPath());
  ASSERT_FALSE(bytes.empty());
  auto parsed = ParseIndexSnapshot(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->network.num_nodes(), 120);
  EXPECT_EQ(SerializeIndexSnapshot(*parsed), bytes)
      << "golden fixture must re-serialize byte-identically; if the .urrx "
         "layout changed on purpose, bump kIndexSnapshotVersion and "
         "regenerate the fixture";
}

TEST(IndexSnapshotGoldenTest, FixtureMatchesBuildRecipe) {
  // The fixture was produced by:
  //   urr_index build --city grid --width 12 --height 10 --seed 20170512
  //             --quantize 0.25 --threads 2 --out tests/data/golden.urrx
  // Rebuilding from that recipe must reproduce it byte for byte (generator,
  // contraction order, label extraction and encoding are all deterministic).
  const RoadNetwork net = Quantize(SmallCity(20170512, 12, 10), 0.25);
  const std::string rebuilt = SerializeIndexSnapshot(BuildSnap(net, 2));
  EXPECT_EQ(rebuilt, ReadFileBytes(GoldenPath()));
}

// City-scale referee for the index bytes: the golden fixture is a 120-node
// grid, so it cannot show what contraction and label extraction do on a
// generator city. The FNV-1a of this 2,000-node NYC-like city's .urrx
// encoding is pinned, at 1 and at 4 threads. A change to the hierarchy or
// the labels (a different witness search, say) must update the pin on
// purpose; a rewrite that claims byte-identical output must leave it alone.
TEST(IndexSnapshotGoldenTest, CityScaleBytesArePinned) {
  constexpr uint64_t kPinnedFnv = 0xb91699222ba0c832ULL;
  Rng rng(20170512);
  auto net = GenerateNycLike(2000, &rng);
  ASSERT_TRUE(net.ok()) << net.status();
  for (const int threads : {1, 4}) {
    const std::string bytes = SerializeIndexSnapshot(BuildSnap(*net, threads));
    EXPECT_EQ(Fnv1a64(bytes.data(), bytes.size()), kPinnedFnv)
        << "index bytes changed at " << threads << " threads";
  }
}

// More pinned .urrx encodings, one per network shape the contraction and
// label code treats differently: a Chicago-like city (long arterials), a
// grid with jittered (non-quantized) costs, and a grid whose costs are
// snapped to multiples of 16 so that nearly every witness search and label
// prune meets exact ties. Each is built at 1, 3 and 4 threads; an odd
// thread count splits work unevenly and exposes chunking bugs.
TEST(IndexSnapshotGoldenTest, MoreNetworkShapesArePinned) {
  struct Pin {
    const char* name;
    RoadNetwork net;
    uint64_t fnv;
  };
  Rng rng(20170512);
  auto chicago = GenerateChicagoLike(1500, &rng);
  ASSERT_TRUE(chicago.ok()) << chicago.status();
  const RoadNetwork grid = SmallCity(20170512, 40, 30);
  std::vector<Edge> tied_edges = grid.EdgeList();
  for (Edge& e : tied_edges) {
    e.cost = std::max(1.0, std::round(e.cost / 16.0)) * 16.0;
  }
  auto tied = RoadNetwork::Build(grid.num_nodes(), std::move(tied_edges),
                                 grid.coords());
  ASSERT_TRUE(tied.ok()) << tied.status();
  const Pin pins[] = {
      {"chicago 1500", *std::move(chicago), 0x122b0eb31b95cfa4ULL},
      {"grid 40x30", grid, 0x02b41e24a989ca52ULL},
      {"tied grid 40x30", *std::move(tied), 0x388baa4fc5b4015aULL},
  };
  for (const Pin& pin : pins) {
    for (const int threads : {1, 3, 4}) {
      const std::string bytes =
          SerializeIndexSnapshot(BuildSnap(pin.net, threads));
      EXPECT_EQ(Fnv1a64(bytes.data(), bytes.size()), pin.fnv)
          << pin.name << ": index bytes changed at " << threads
          << " threads";
    }
  }
}

TEST(IndexSnapshotGoldenTest, FixtureOraclesAgreeBitwise) {
  auto parsed = ParseIndexSnapshot(ReadFileBytes(GoldenPath()));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  // Quantized edge costs make path sums exact, so hub labels and reference
  // Dijkstra must agree bitwise, not just approximately.
  DijkstraOracle ref(parsed->network);
  HubLabelOracle hl(std::make_shared<const HubLabels>(
      std::move(parsed->hub_labels)));
  Rng rng(99);
  for (int i = 0; i < 400; ++i) {
    const NodeId u = static_cast<NodeId>(
        rng.UniformInt(0, parsed->network.num_nodes() - 1));
    const NodeId v = static_cast<NodeId>(
        rng.UniformInt(0, parsed->network.num_nodes() - 1));
    const Cost want = ref.Distance(u, v);
    EXPECT_EQ(BitsOf(hl.Distance(u, v)), BitsOf(want)) << u << "->" << v;
  }
}

// --- loaded-snapshot oracle parity ---------------------------------------

TEST(IndexSnapshotTest, LoadedHubLabelsMatchFreshBuildBitwise) {
  const RoadNetwork net = Quantize(SmallCity(15, 13, 11));
  const std::string bytes = SerializeIndexSnapshot(BuildSnap(net));

  Rng rng(7);
  std::vector<NodeId> sources, targets;
  for (int i = 0; i < 12; ++i) {
    sources.push_back(static_cast<NodeId>(
        rng.UniformInt(0, net.num_nodes() - 1)));
    targets.push_back(static_cast<NodeId>(
        rng.UniformInt(0, net.num_nodes() - 1)));
  }

  auto fresh = HubLabelOracle::Create(net);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  auto parsed = ParseIndexSnapshot(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  HubLabelOracle loaded(
      std::make_shared<const HubLabels>(std::move(parsed->hub_labels)));

  for (size_t i = 0; i < sources.size(); ++i) {
    for (size_t j = 0; j < targets.size(); ++j) {
      ASSERT_EQ(BitsOf(loaded.Distance(sources[i], targets[j])),
                BitsOf((*fresh)->Distance(sources[i], targets[j])))
          << sources[i] << "->" << targets[j];
    }
  }
}

// --- corruption battery ---------------------------------------------------

class IndexSnapshotCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const RoadNetwork net = SmallCity(16);
    bytes_ = SerializeIndexSnapshot(BuildSnap(net));
    sections_ = SectionTable(bytes_);
    ASSERT_EQ(sections_.size(), 2u);
    ASSERT_EQ(sections_[0].id, kSnapshotSectionGraph);
    ASSERT_EQ(sections_[1].id, kSnapshotSectionHubLabels);
  }

  /// The mutated bytes must parse to an error whose message contains
  /// `needle`.
  void ExpectRejectedWith(const std::string& mutated, const std::string& what,
                          const std::string& needle) {
    auto parsed = ParseIndexSnapshot(mutated);
    ASSERT_FALSE(parsed.ok()) << "corruption not detected: " << what;
    EXPECT_NE(parsed.status().message().find(needle), std::string::npos)
        << what << ": " << parsed.status();
  }

  /// A well-formed file (valid geometry, padding and checksums) whose table
  /// lists `sections` as {id, payload} in order: only the section rules can
  /// reject it.
  static std::string Assemble(
      const std::vector<std::pair<uint32_t, std::string>>& sections) {
    std::string out = "URRX";
    auto put32 = [&out](uint32_t v) {
      out.append(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    auto put64 = [&out](uint64_t v) {
      out.append(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    put32(kIndexSnapshotVersion);
    put32(static_cast<uint32_t>(sections.size()));
    put32(0);  // flags
    auto align8 = [](size_t v) { return (v + 7) & ~size_t{7}; };
    size_t offset = align8(kHeaderSize + sections.size() * kTableEntrySize);
    for (const auto& [id, payload] : sections) {
      put32(id);
      put32(0);  // reserved
      put64(offset);
      put64(payload.size());
      put64(Fnv1a64(payload.data(), payload.size()));
      offset = align8(offset + payload.size());
    }
    for (const auto& [id, payload] : sections) {
      out.resize(align8(out.size()), '\0');
      out += payload;
    }
    out.resize(align8(out.size()), '\0');
    return out;
  }

  std::string Payload(size_t i) const {
    return bytes_.substr(sections_[i].offset, sections_[i].size);
  }

  /// The mutated bytes must parse to an error Status (and, running under
  /// ASan/UBSan in CI, must not read out of bounds or crash).
  void ExpectRejected(const std::string& mutated, const std::string& what) {
    auto parsed = ParseIndexSnapshot(mutated);
    EXPECT_FALSE(parsed.ok()) << "corruption not detected: " << what;
  }

  std::string bytes_;
  std::vector<Section> sections_;
};

TEST_F(IndexSnapshotCorruptionTest, TruncationAtEveryBoundaryFailsCleanly) {
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= kHeaderSize + 2 * kTableEntrySize + 8; ++n) {
    lengths.push_back(n);  // every prefix of header + table
  }
  for (const Section& s : sections_) {
    for (const size_t at : {s.offset, s.offset + 1, s.offset + s.size - 1,
                            s.offset + s.size, s.offset + s.size + 1}) {
      if (at < bytes_.size()) lengths.push_back(at);
    }
  }
  lengths.push_back(bytes_.size() - 1);
  for (size_t n = 0; n < bytes_.size(); n += 997) lengths.push_back(n);
  for (const size_t n : lengths) {
    ExpectRejected(bytes_.substr(0, n),
                   "truncated to " + std::to_string(n) + " bytes");
  }
}

TEST_F(IndexSnapshotCorruptionTest, TrailingGarbageFails) {
  ExpectRejected(bytes_ + std::string(8, '\0'), "8 trailing bytes");
  ExpectRejected(bytes_ + "x", "1 trailing byte");
}

TEST_F(IndexSnapshotCorruptionTest, FlippedMagicFails) {
  for (size_t i = 0; i < 4; ++i) {
    std::string mutated = bytes_;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x20);
    ExpectRejected(mutated, "magic byte " + std::to_string(i));
  }
}

TEST_F(IndexSnapshotCorruptionTest, WrongVersionFails) {
  // Version 1 (the layout with a hierarchy section) is named in the error;
  // so is every other version this build does not read.
  for (const uint32_t version : {0u, 1u, 3u, 0xffffffffu}) {
    std::string mutated = bytes_;
    PutU32At(&mutated, 4, version);
    ExpectRejectedWith(mutated, "version " + std::to_string(version),
                       "version " + std::to_string(version) + " ");
  }
  // A complete version-1 layout: GRAPH, CH and HL sections.
  std::string v1 = Assemble({{1, Payload(0)}, {2, std::string(16, '\0')},
                             {3, Payload(1)}});
  PutU32At(&v1, 4, 1);
  ExpectRejectedWith(v1, "version-1 file", "unsupported format version 1 ");
}

TEST_F(IndexSnapshotCorruptionTest, NonzeroFlagsFail) {
  std::string mutated = bytes_;
  PutU32At(&mutated, 12, 1);
  ExpectRejected(mutated, "flags = 1");
}

TEST_F(IndexSnapshotCorruptionTest, BadSectionCountFails) {
  for (const uint32_t count : {0u, 1u, 3u, 4u, 100u, 0xffffffffu}) {
    std::string mutated = bytes_;
    PutU32At(&mutated, 8, count);
    const std::string what = "section count " + std::to_string(count);
    ExpectRejectedWith(mutated, what, what + ", expected 2");
  }
  // Well-formed three-section files: the version-1 GRAPH, CH, HL set under
  // the current version number, and the current pair plus an extra one.
  ExpectRejectedWith(Assemble({{1, Payload(0)}, {2, std::string(16, '\0')},
                               {3, Payload(1)}}),
                     "graph + ch + hl", "section count 3, expected 2");
  ExpectRejectedWith(
      Assemble({{1, Payload(0)}, {3, Payload(1)}, {4, std::string(8, 'x')}}),
      "extra section", "section count 3, expected 2");
  // One section: the labels are missing.
  ExpectRejectedWith(Assemble({{1, Payload(0)}}), "missing hl",
                     "section count 1, expected 2");
}

TEST_F(IndexSnapshotCorruptionTest, UnknownOrMisplacedSectionIdFails) {
  ASSERT_TRUE(ParseIndexSnapshot(Assemble({{1, Payload(0)}, {3, Payload(1)}}))
                  .ok())
      << "the assembler must reproduce a loadable file";
  // The version-1 hierarchy id, an unknown id, and the right ids swapped.
  ExpectRejectedWith(Assemble({{1, Payload(0)}, {2, Payload(1)}}),
                     "ch id in place of hl",
                     "entry 1 has id 2, expected 3 (hl)");
  ExpectRejectedWith(Assemble({{7, Payload(0)}, {3, Payload(1)}}),
                     "unknown id in place of graph",
                     "entry 0 has id 7, expected 1 (graph)");
  ExpectRejectedWith(Assemble({{3, Payload(1)}, {1, Payload(0)}}),
                     "sections swapped",
                     "entry 0 has id 3, expected 1 (graph)");
}

TEST_F(IndexSnapshotCorruptionTest, DuplicateSectionIdFails) {
  std::string mutated = bytes_;
  PutU32At(&mutated, sections_[1].table_at, sections_[0].id);
  ExpectRejected(mutated, "duplicate section id");
}

TEST_F(IndexSnapshotCorruptionTest, NonzeroReservedFieldFails) {
  std::string mutated = bytes_;
  PutU32At(&mutated, sections_[0].table_at + 4, 0xdeadbeef);
  ExpectRejected(mutated, "nonzero reserved field");
}

TEST_F(IndexSnapshotCorruptionTest, HostileTableGeometryFails) {
  // Overlap / gap: nudge the last section's offset both ways.
  for (const int64_t delta : {-8, 8}) {
    std::string mutated = bytes_;
    PutU64At(&mutated, sections_[1].table_at + 8,
             static_cast<uint64_t>(
                 static_cast<int64_t>(sections_[1].offset) + delta));
    ExpectRejected(mutated, "offset shifted by " + std::to_string(delta));
  }
  // Size overflows the file; size so large offset+size wraps around.
  for (const uint64_t size :
       {static_cast<uint64_t>(bytes_.size()),
        std::numeric_limits<uint64_t>::max() - 8}) {
    std::string mutated = bytes_;
    PutU64At(&mutated, sections_[1].table_at + 16, size);
    ExpectRejected(mutated, "hostile size " + std::to_string(size));
  }
}

TEST_F(IndexSnapshotCorruptionTest, PayloadBitFlipTripsChecksum) {
  for (const Section& s : sections_) {
    std::string mutated = bytes_;
    mutated[s.offset + s.size / 2] ^= 0x01;
    auto parsed = ParseIndexSnapshot(mutated);
    ASSERT_FALSE(parsed.ok()) << "bit flip in section " << s.id;
    EXPECT_NE(parsed.status().ToString().find("checksum"), std::string::npos)
        << parsed.status();
  }
}

TEST_F(IndexSnapshotCorruptionTest, FlippedChecksumFieldFails) {
  std::string mutated = bytes_;
  PutU64At(&mutated, sections_[0].table_at + 24,
           U64At(bytes_, sections_[0].table_at + 24) ^ 1);
  ExpectRejected(mutated, "flipped checksum field");
}

TEST_F(IndexSnapshotCorruptionTest, OverflowCountRejectedPastChecksum) {
  // A hostile element count must be caught by the bounds-capped vector
  // reader even when the section checksum has been recomputed to match.
  std::string mutated = bytes_;
  const Section& hl = sections_[1];
  // HL payload: [i32 n][u64 count of fwd_begin]... — blow up that count.
  PutU64At(&mutated, hl.offset + 4, uint64_t{1} << 60);
  FixChecksum(&mutated, hl);
  ExpectRejected(mutated, "2^60 element count");
}

TEST_F(IndexSnapshotCorruptionTest, NanCostRejectedPastChecksum) {
  std::string mutated = bytes_;
  const Section& hl = sections_[1];
  // HL payload: [i32 n][u64 n+1][i64 fwd_begin x n+1][u64 F][i32 hub x F]
  //             [u64 F][double fwd_cost x F]...
  const uint64_t n = U64At(bytes_, hl.offset + 4) - 1;
  const uint64_t f = U64At(bytes_, hl.offset + 4 + 8 + (n + 1) * 8);
  ASSERT_GT(f, 0u);
  const size_t cost0 = hl.offset + 4 + 8 + (n + 1) * 8 + 8 + f * 4 + 8;
  PutDoubleAt(&mutated, cost0, std::numeric_limits<double>::quiet_NaN());
  FixChecksum(&mutated, hl);
  ExpectRejected(mutated, "NaN label cost");

  std::string negative = bytes_;
  PutDoubleAt(&negative, cost0, -1.0);
  FixChecksum(&negative, hl);
  ExpectRejected(negative, "negative label cost");
}

TEST_F(IndexSnapshotCorruptionTest, NonMonotoneGraphOffsetsRejected) {
  std::string mutated = bytes_;
  const Section& graph = sections_[0];
  // Graph payload: [i32 n][u32 has_coords][u64 n+1][i64 out_begin x n+1]...
  const size_t begin0 = graph.offset + 4 + 4 + 8;
  PutU64At(&mutated, begin0 + 8, std::numeric_limits<uint64_t>::max());
  FixChecksum(&mutated, graph);
  ExpectRejected(mutated, "non-monotone CSR offsets");
}

TEST_F(IndexSnapshotCorruptionTest, LoadOfCorruptFileFailsWithPathContext) {
  const std::string path = testing::TempDir() + "/corrupt.urrx";
  std::string mutated = bytes_;
  mutated[mutated.size() - 1] ^= 0xff;
  WriteFileBytes(path, mutated);
  auto loaded = LoadIndexSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find(path), std::string::npos)
      << "error should name the offending file: " << loaded.status();
}

TEST_F(IndexSnapshotCorruptionTest, MissingFileFails) {
  EXPECT_FALSE(LoadIndexSnapshot("/nonexistent/no.urrx").ok());
  EXPECT_FALSE(IndexSnapshotFileChecksum("/nonexistent/no.urrx").ok());
}

// --- component-level deserializer hardening ------------------------------

TEST(HubLabelsDeserializeTest, RejectsDescendingHubs) {
  const RoadNetwork net = SmallCity(17);
  const IndexSnapshot snap = BuildSnap(net);
  BinaryWriter writer;
  snap.hub_labels.Serialize(&writer);
  std::string bytes(writer.buffer());

  // Find a node with >= 2 forward entries and swap its first two hubs so the
  // strictly-ascending invariant breaks.
  const uint64_t n = U64At(bytes, 4) - 1;
  size_t swap_at = 0;
  for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
    if (snap.hub_labels.ForwardHubs(v).size() >= 2) {
      const size_t hubs0 = 4 + 8 + (n + 1) * 8 + 8;
      auto begin = snap.hub_labels.ForwardHubs(0);
      (void)begin;
      size_t entry = 0;
      for (NodeId w = 0; w < v; ++w) {
        entry += snap.hub_labels.ForwardHubs(w).size();
      }
      swap_at = hubs0 + entry * 4;
      break;
    }
  }
  ASSERT_GT(swap_at, 0u);
  const uint32_t a = U32At(bytes, swap_at);
  const uint32_t b = U32At(bytes, swap_at + 4);
  ASSERT_LT(a, b);
  PutU32At(&bytes, swap_at, b);
  PutU32At(&bytes, swap_at + 4, a);

  BinaryReader reader(bytes);
  EXPECT_FALSE(HubLabels::Deserialize(&reader).ok());
}

TEST(HubLabelsDeserializeTest, RejectsTruncatedPayload) {
  const RoadNetwork net = SmallCity(18);
  const IndexSnapshot snap = BuildSnap(net);
  BinaryWriter writer;
  snap.hub_labels.Serialize(&writer);
  const std::string bytes(writer.buffer());
  for (size_t len = 0; len < bytes.size(); len += 13) {
    BinaryReader reader(std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(HubLabels::Deserialize(&reader).ok()) << "length " << len;
  }
}

}  // namespace
}  // namespace urr
