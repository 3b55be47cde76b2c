#include "routing/index_snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/binary_io.h"
#include "common/stopwatch.h"

namespace urr {

namespace {

constexpr char kMagic[4] = {'U', 'R', 'R', 'X'};
constexpr size_t kHeaderSize = 16;      // magic + version + count + flags
constexpr size_t kTableEntrySize = 32;  // id + reserved + offset + size + sum
constexpr uint32_t kMaxSections = 64;   // sanity cap on the table length

struct SectionEntry {
  uint32_t id = 0;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint64_t checksum = 0;
};

size_t AlignUp8(size_t v) { return (v + 7) & ~static_cast<size_t>(7); }

/// Whole-file view released on destruction; mmap-backed when the kernel
/// allows it, owned buffer otherwise. Either way `view()` is valid for the
/// object's lifetime only.
class FileBytes {
 public:
  static Result<FileBytes> Open(const std::string& path) {
    FileBytes f;
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      return Status::NotFound("cannot open '" + path +
                              "': " + std::strerror(errno));
    }
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
      ::close(fd);
      return Status::IOError("cannot stat '" + path + "'");
    }
    f.size_ = static_cast<size_t>(st.st_size);
    if (f.size_ > 0) {
      void* map = ::mmap(nullptr, f.size_, PROT_READ, MAP_PRIVATE, fd, 0);
      if (map != MAP_FAILED) {
        f.mapped_ = static_cast<const char*>(map);
      } else {
        // Fallback: buffered read (e.g. filesystems without mmap support).
        f.owned_.resize(f.size_);
        size_t done = 0;
        while (done < f.size_) {
          const ssize_t got =
              ::read(fd, f.owned_.data() + done, f.size_ - done);
          if (got <= 0) {
            ::close(fd);
            return Status::IOError("short read on '" + path + "'");
          }
          done += static_cast<size_t>(got);
        }
      }
    }
    ::close(fd);
    return f;
  }

  FileBytes() = default;
  FileBytes(FileBytes&& o) noexcept { *this = std::move(o); }
  FileBytes& operator=(FileBytes&& o) noexcept {
    Release();
    mapped_ = o.mapped_;
    size_ = o.size_;
    owned_ = std::move(o.owned_);
    o.mapped_ = nullptr;
    o.size_ = 0;
    return *this;
  }
  FileBytes(const FileBytes&) = delete;
  FileBytes& operator=(const FileBytes&) = delete;
  ~FileBytes() { Release(); }

  std::string_view view() const {
    return mapped_ != nullptr ? std::string_view(mapped_, size_)
                              : std::string_view(owned_.data(), size_);
  }

 private:
  void Release() {
    if (mapped_ != nullptr) {
      ::munmap(const_cast<char*>(mapped_), size_);
      mapped_ = nullptr;
    }
  }
  const char* mapped_ = nullptr;
  size_t size_ = 0;
  std::string owned_;
};

Result<std::vector<SectionEntry>> ParseHeader(std::string_view bytes) {
  BinaryReader reader(bytes);
  char magic[4] = {};
  if (bytes.size() < kHeaderSize) {
    return Status::InvalidArgument("snapshot: file shorter than header (" +
                                   std::to_string(bytes.size()) + " bytes)");
  }
  std::memcpy(magic, bytes.data(), 4);
  if (std::memcmp(magic, kMagic, 4) != 0) {
    return Status::InvalidArgument("snapshot: bad magic (not a .urrx file)");
  }
  BinaryReader header(bytes.substr(4));
  uint32_t version = 0, count = 0, flags = 0;
  URR_RETURN_NOT_OK(header.ReadU32(&version));
  URR_RETURN_NOT_OK(header.ReadU32(&count));
  URR_RETURN_NOT_OK(header.ReadU32(&flags));
  if (version != kIndexSnapshotVersion) {
    return Status::InvalidArgument(
        "snapshot: unsupported format version " + std::to_string(version) +
        " (this build reads version " +
        std::to_string(kIndexSnapshotVersion) + ")");
  }
  if (flags != 0) {
    return Status::InvalidArgument("snapshot: unknown flags " +
                                   std::to_string(flags));
  }
  if (count == 0 || count > kMaxSections) {
    return Status::InvalidArgument("snapshot: implausible section count " +
                                   std::to_string(count));
  }
  const size_t table_bytes = static_cast<size_t>(count) * kTableEntrySize;
  if (bytes.size() < kHeaderSize + table_bytes) {
    return Status::InvalidArgument("snapshot: truncated section table");
  }
  std::vector<SectionEntry> table(count);
  BinaryReader tr(bytes.substr(kHeaderSize, table_bytes));
  size_t expected_offset = AlignUp8(kHeaderSize + table_bytes);
  for (uint32_t i = 0; i < count; ++i) {
    SectionEntry& e = table[i];
    uint32_t reserved = 0;
    URR_RETURN_NOT_OK(tr.ReadU32(&e.id));
    URR_RETURN_NOT_OK(tr.ReadU32(&reserved));
    URR_RETURN_NOT_OK(tr.ReadU64(&e.offset));
    URR_RETURN_NOT_OK(tr.ReadU64(&e.size));
    URR_RETURN_NOT_OK(tr.ReadU64(&e.checksum));
    if (reserved != 0) {
      return Status::InvalidArgument("snapshot: nonzero reserved field in "
                                     "section table entry " +
                                     std::to_string(i));
    }
    for (uint32_t j = 0; j < i; ++j) {
      if (table[j].id == e.id) {
        return Status::InvalidArgument("snapshot: duplicate section id " +
                                       std::to_string(e.id));
      }
    }
    // Contiguous 8-byte-aligned layout: rejects overlaps, out-of-file
    // ranges and offset/size overflow in one comparison per section.
    if (e.offset != expected_offset) {
      return Status::InvalidArgument(
          "snapshot: section " + std::to_string(e.id) + " at offset " +
          std::to_string(e.offset) + ", expected " +
          std::to_string(expected_offset));
    }
    if (e.size > bytes.size() - e.offset) {
      return Status::InvalidArgument("snapshot: section " +
                                     std::to_string(e.id) +
                                     " extends past end of file");
    }
    expected_offset = AlignUp8(static_cast<size_t>(e.offset + e.size));
  }
  if (expected_offset != bytes.size()) {
    return Status::InvalidArgument(
        "snapshot: " + std::to_string(bytes.size() - expected_offset) +
        " trailing bytes after last section");
  }
  // Padding between header/table/sections must be zero.
  size_t cursor = kHeaderSize + table_bytes;
  for (const SectionEntry& e : table) {
    for (size_t p = cursor; p < e.offset; ++p) {
      if (bytes[p] != '\0') {
        return Status::InvalidArgument("snapshot: nonzero padding at offset " +
                                       std::to_string(p));
      }
    }
    cursor = static_cast<size_t>(e.offset + e.size);
  }
  for (size_t p = cursor; p < bytes.size(); ++p) {
    if (bytes[p] != '\0') {
      return Status::InvalidArgument("snapshot: nonzero padding at offset " +
                                     std::to_string(p));
    }
  }
  for (const SectionEntry& e : table) {
    const uint64_t sum =
        Fnv1a64(bytes.data() + e.offset, static_cast<size_t>(e.size));
    if (sum != e.checksum) {
      return Status::IOError(
          "snapshot: checksum mismatch in section " + std::to_string(e.id) +
          " (stored " + std::to_string(e.checksum) + ", computed " +
          std::to_string(sum) + ")");
    }
  }
  return table;
}

const SectionEntry* FindSection(const std::vector<SectionEntry>& table,
                                uint32_t id) {
  for (const SectionEntry& e : table) {
    if (e.id == id) return &e;
  }
  return nullptr;
}

}  // namespace

Result<IndexSnapshot> BuildIndexSnapshot(const RoadNetwork& network,
                                         const ChOptions& options,
                                         IndexBuildStats* stats) {
  IndexSnapshot snapshot;
  snapshot.network = network;  // copy: the snapshot is self-contained
  Stopwatch watch;
  URR_ASSIGN_OR_RETURN(snapshot.ch,
                       ContractionHierarchy::Build(snapshot.network, options));
  if (stats != nullptr) stats->ch_contract_seconds = watch.ElapsedSeconds();
  watch.Reset();
  URR_ASSIGN_OR_RETURN(snapshot.hub_labels,
                       HubLabels::Build(snapshot.ch, options.pool));
  if (stats != nullptr) stats->hl_label_seconds = watch.ElapsedSeconds();
  return snapshot;
}

std::string SerializeIndexSnapshot(const IndexSnapshot& snapshot) {
  struct Payload {
    uint32_t id;
    std::string bytes;
  };
  Payload payloads[3];
  {
    BinaryWriter w;
    snapshot.network.Serialize(&w);
    payloads[0] = {kSnapshotSectionGraph, w.TakeBuffer()};
  }
  {
    BinaryWriter w;
    snapshot.ch.Serialize(&w);
    payloads[1] = {kSnapshotSectionCh, w.TakeBuffer()};
  }
  {
    BinaryWriter w;
    snapshot.hub_labels.Serialize(&w);
    payloads[2] = {kSnapshotSectionHubLabels, w.TakeBuffer()};
  }

  BinaryWriter out;
  out.WriteBytes(kMagic, 4);
  out.WriteU32(kIndexSnapshotVersion);
  out.WriteU32(3);
  out.WriteU32(0);  // flags
  uint64_t offset = AlignUp8(kHeaderSize + 3 * kTableEntrySize);
  for (const Payload& p : payloads) {
    out.WriteU32(p.id);
    out.WriteU32(0);  // reserved
    out.WriteU64(offset);
    out.WriteU64(p.bytes.size());
    out.WriteU64(Fnv1a64(p.bytes.data(), p.bytes.size()));
    offset = AlignUp8(static_cast<size_t>(offset) + p.bytes.size());
  }
  for (const Payload& p : payloads) {
    out.AlignTo(8);
    out.WriteBytes(p.bytes.data(), p.bytes.size());
  }
  out.AlignTo(8);
  return out.TakeBuffer();
}

Result<IndexSnapshot> ParseIndexSnapshot(std::string_view bytes) {
  URR_ASSIGN_OR_RETURN(std::vector<SectionEntry> table, ParseHeader(bytes));
  const SectionEntry* graph = FindSection(table, kSnapshotSectionGraph);
  const SectionEntry* ch = FindSection(table, kSnapshotSectionCh);
  const SectionEntry* hl = FindSection(table, kSnapshotSectionHubLabels);
  if (graph == nullptr || ch == nullptr || hl == nullptr) {
    return Status::InvalidArgument(
        "snapshot: missing required section (graph/ch/hl)");
  }
  IndexSnapshot snapshot;
  {
    BinaryReader r(bytes.substr(graph->offset, graph->size));
    URR_ASSIGN_OR_RETURN(snapshot.network, RoadNetwork::Deserialize(&r));
    if (r.remaining() != 0) {
      return Status::InvalidArgument("snapshot: graph section has " +
                                     std::to_string(r.remaining()) +
                                     " trailing bytes");
    }
  }
  {
    BinaryReader r(bytes.substr(ch->offset, ch->size));
    URR_ASSIGN_OR_RETURN(snapshot.ch, ContractionHierarchy::Deserialize(&r));
    if (r.remaining() != 0) {
      return Status::InvalidArgument("snapshot: ch section has " +
                                     std::to_string(r.remaining()) +
                                     " trailing bytes");
    }
  }
  {
    BinaryReader r(bytes.substr(hl->offset, hl->size));
    URR_ASSIGN_OR_RETURN(snapshot.hub_labels, HubLabels::Deserialize(&r));
    if (r.remaining() != 0) {
      return Status::InvalidArgument("snapshot: hl section has " +
                                     std::to_string(r.remaining()) +
                                     " trailing bytes");
    }
  }
  if (snapshot.ch.num_nodes() != snapshot.network.num_nodes() ||
      snapshot.hub_labels.num_nodes() != snapshot.network.num_nodes()) {
    return Status::InvalidArgument(
        "snapshot: sections disagree on node count (graph " +
        std::to_string(snapshot.network.num_nodes()) + ", ch " +
        std::to_string(snapshot.ch.num_nodes()) + ", hl " +
        std::to_string(snapshot.hub_labels.num_nodes()) + ")");
  }
  return snapshot;
}

Status SaveIndexSnapshot(const IndexSnapshot& snapshot,
                         const std::string& path) {
  const std::string bytes = SerializeIndexSnapshot(snapshot);
  const std::string tmp = path + ".tmp";
  if (Status written = WriteFile(tmp, bytes); !written.ok()) {
    std::remove(tmp.c_str());
    return written;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename '" + tmp + "' to '" + path +
                           "': " + std::strerror(errno));
  }
  return Status::OK();
}

Result<IndexSnapshot> LoadIndexSnapshot(const std::string& path) {
  URR_ASSIGN_OR_RETURN(FileBytes file, FileBytes::Open(path));
  Result<IndexSnapshot> snapshot = ParseIndexSnapshot(file.view());
  if (!snapshot.ok()) {
    return Status::InvalidArgument("loading '" + path +
                                   "': " + snapshot.status().message());
  }
  return snapshot;
}

Result<uint64_t> IndexSnapshotFileChecksum(const std::string& path) {
  URR_ASSIGN_OR_RETURN(FileBytes file, FileBytes::Open(path));
  const std::string_view v = file.view();
  return Fnv1a64(v.data(), v.size());
}

Status VerifyIndexSnapshotFile(const std::string& path) {
  return LoadIndexSnapshot(path).status();
}

}  // namespace urr
