#include "server/journal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/binary_io.h"
#include "server/protocol.h"

namespace urr {

namespace {

constexpr size_t kRecordHeaderBytes = 12;  // u32 length + u64 checksum

uint64_t ReadLe64(const unsigned char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::string Hex64(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

Status WriteAllFd(int fd, std::string_view bytes, const std::string& what) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(what + ": write: " +
                             std::string(std::strerror(errno)));
    }
    off += static_cast<size_t>(w);
  }
  return Status::OK();
}

}  // namespace

std::string EncodeJournalRecord(std::string_view payload) {
  const uint64_t sum = Fnv1a64(payload.data(), payload.size());
  std::string out;
  out.reserve(kRecordHeaderBytes + payload.size());
  const uint32_t n = static_cast<uint32_t>(payload.size());
  out += static_cast<char>((n >> 24) & 0xFF);
  out += static_cast<char>((n >> 16) & 0xFF);
  out += static_cast<char>((n >> 8) & 0xFF);
  out += static_cast<char>(n & 0xFF);
  for (int i = 0; i < 8; ++i) {
    out += static_cast<char>((sum >> (8 * i)) & 0xFF);  // little-endian
  }
  out.append(payload);
  return out;
}

Result<RequestJournal> RequestJournal::Open(const std::string& path,
                                            bool fsync) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open journal " + path + ": " +
                           std::string(std::strerror(errno)));
  }
  return RequestJournal(fd, fsync);
}

RequestJournal& RequestJournal::operator=(RequestJournal&& o) noexcept {
  if (this != &o) {
    Close();
    fd_ = o.fd_;
    fsync_ = o.fsync_;
    appended_ = o.appended_;
    o.fd_ = -1;
  }
  return *this;
}

void RequestJournal::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status RequestJournal::Append(std::string_view payload) {
  if (fd_ < 0) return Status::Internal("journal is closed");
  URR_RETURN_NOT_OK(WriteAllFd(fd_, EncodeJournalRecord(payload), "journal"));
  if (fsync_ && ::fdatasync(fd_) != 0) {
    return Status::IOError("journal fdatasync: " +
                           std::string(std::strerror(errno)));
  }
  ++appended_;
  return Status::OK();
}

Result<JournalScan> ScanJournal(const std::string& path) {
  Result<std::string> read = ReadFile(path);
  JournalScan scan;
  if (!read.ok() && read.status().code() == StatusCode::kNotFound) {
    return scan;  // no journal yet: empty valid prefix
  }
  URR_ASSIGN_OR_RETURN(std::string bytes, std::move(read));
  scan.file_bytes = bytes.size();
  size_t off = 0;
  while (off < bytes.size()) {
    const size_t left = bytes.size() - off;
    if (left < kRecordHeaderBytes) {
      scan.tail = Status::IOError(
          "journal tail torn at byte " + std::to_string(off) + ": only " +
          std::to_string(left) + " of " +
          std::to_string(kRecordHeaderBytes) + " record-header bytes present");
      break;
    }
    const auto* p = reinterpret_cast<const unsigned char*>(bytes.data() + off);
    const uint32_t len = (static_cast<uint32_t>(p[0]) << 24) |
                         (static_cast<uint32_t>(p[1]) << 16) |
                         (static_cast<uint32_t>(p[2]) << 8) |
                         static_cast<uint32_t>(p[3]);
    if (len > kMaxFrameBytes) {
      scan.tail = Status::IOError(
          "journal record at byte " + std::to_string(off) + " declares " +
          std::to_string(len) + " payload bytes (limit " +
          std::to_string(kMaxFrameBytes) + "): corrupt length");
      break;
    }
    if (left < kRecordHeaderBytes + len) {
      scan.tail = Status::IOError(
          "journal tail torn at byte " + std::to_string(off) +
          ": record declares " + std::to_string(len) +
          " payload bytes, only " +
          std::to_string(left - kRecordHeaderBytes) + " present");
      break;
    }
    const uint64_t stored = ReadLe64(p + 4);
    const char* payload = bytes.data() + off + kRecordHeaderBytes;
    const uint64_t computed = Fnv1a64(payload, len);
    if (stored != computed) {
      scan.tail = Status::IOError(
          "journal record at byte " + std::to_string(off) +
          " fails its checksum: stored 0x" + Hex64(stored) +
          ", computed 0x" + Hex64(computed));
      break;
    }
    scan.payloads.emplace_back(payload, len);
    off += kRecordHeaderBytes + len;
    scan.valid_bytes = off;
  }
  return scan;
}

Status TruncateJournal(const std::string& path, uint64_t valid_bytes) {
  if (::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0) {
    return Status::IOError("truncate " + path + " to " +
                           std::to_string(valid_bytes) + " bytes: " +
                           std::string(std::strerror(errno)));
  }
  return Status::OK();
}

// --- Service checkpoints ---------------------------------------------------
//
// Text envelope around the engine's urrckpt snapshot:
//
//   urrsvcckpt 1
//   seq <journal records applied>
//   dedup <K>
//   <req_id> <response bytes> <response>     (x K, responses are one-line)
//   engine <byte length>
//   <urrckpt text, exactly that many bytes>
//   checksum <fnv1a64 hex of every byte above>

Status WriteServiceCheckpoint(const std::string& dir,
                              const ServiceCheckpoint& ckpt) {
  std::string body = "urrsvcckpt 1\n";
  body += "seq " + std::to_string(ckpt.seq) + "\n";
  body += "dedup " + std::to_string(ckpt.dedup.size()) + "\n";
  for (const auto& [req_id, response] : ckpt.dedup) {
    body += std::to_string(req_id) + " " +
            std::to_string(response.size()) + " " + response + "\n";
  }
  body += "engine " + std::to_string(ckpt.engine_checkpoint.size()) + "\n";
  body += ckpt.engine_checkpoint;
  body += "checksum " + std::to_string(Fnv1a64(body.data(), body.size())) +
          "\n";

  char name[32];
  std::snprintf(name, sizeof(name), "ckpt-%012lld",
                static_cast<long long>(ckpt.seq));
  const std::string path = dir + "/" + name;
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open " + tmp + ": " +
                           std::string(std::strerror(errno)));
  }
  Status st = WriteAllFd(fd, body, "checkpoint");
  if (st.ok() && ::fsync(fd) != 0) {
    st = Status::IOError("checkpoint fsync: " +
                         std::string(std::strerror(errno)));
  }
  ::close(fd);
  if (!st.ok()) {
    ::unlink(tmp.c_str());
    return st;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string err = std::strerror(errno);
    ::unlink(tmp.c_str());
    return Status::IOError("rename " + tmp + " -> " + path + ": " + err);
  }
  // fsync the directory so the rename itself survives a crash.
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::OK();
}

Result<ServiceCheckpoint> ReadServiceCheckpoint(const std::string& path) {
  Result<std::string> read = ReadFile(path);
  if (!read.ok() && read.status().code() == StatusCode::kNotFound) {
    return Status::IOError("checkpoint " + path + " is missing");
  }
  URR_ASSIGN_OR_RETURN(std::string bytes, std::move(read));
  // Verify the whole-file checksum first: the trailer is the final line.
  const size_t trailer = bytes.rfind("checksum ");
  if (trailer == std::string::npos ||
      (trailer != 0 && bytes[trailer - 1] != '\n')) {
    return Status::IOError("checkpoint " + path + " has no checksum trailer");
  }
  // The trailer must be exactly "checksum <digits>\n" and end the file —
  // a lost or damaged final byte is still a torn checkpoint.
  const char* digits = bytes.c_str() + trailer + std::strlen("checksum ");
  char* end = nullptr;
  const uint64_t stored = std::strtoull(digits, &end, 10);
  if (end == digits || end != bytes.c_str() + bytes.size() - 1 ||
      *end != '\n') {
    return Status::IOError("checkpoint " + path +
                           " has a malformed checksum trailer");
  }
  const uint64_t computed = Fnv1a64(bytes.data(), trailer);
  if (stored != computed) {
    return Status::IOError("checkpoint " + path +
                           " fails its checksum: stored " +
                           std::to_string(stored) + ", computed " +
                           std::to_string(computed));
  }
  // Parse the envelope.
  size_t pos = 0;
  const auto next_line = [&]() -> std::string {
    const size_t nl = bytes.find('\n', pos);
    if (nl == std::string::npos) {
      const std::string line = bytes.substr(pos);
      pos = bytes.size();
      return line;
    }
    const std::string line = bytes.substr(pos, nl - pos);
    pos = nl + 1;
    return line;
  };
  if (next_line() != "urrsvcckpt 1") {
    return Status::IOError("checkpoint " + path +
                           " has an unknown format tag (want urrsvcckpt 1)");
  }
  ServiceCheckpoint ckpt;
  std::string line = next_line();
  long long seq = 0;
  if (std::sscanf(line.c_str(), "seq %lld", &seq) != 1) {
    return Status::IOError("checkpoint " + path + ": bad seq line");
  }
  ckpt.seq = seq;
  long long dedup_count = 0;
  line = next_line();
  if (std::sscanf(line.c_str(), "dedup %lld", &dedup_count) != 1 ||
      dedup_count < 0) {
    return Status::IOError("checkpoint " + path + ": bad dedup line");
  }
  ckpt.dedup.reserve(static_cast<size_t>(dedup_count));
  for (long long i = 0; i < dedup_count; ++i) {
    // "<req_id> <byte length> <response>" — the response is copied by
    // length, so its content is never reparsed.
    long long req_id = 0, len = 0;
    int consumed = 0;
    line.clear();
    const size_t start = pos;
    line = next_line();
    if (std::sscanf(line.c_str(), "%lld %lld %n", &req_id, &len,
                    &consumed) != 2 ||
        len < 0 ||
        static_cast<size_t>(consumed) + static_cast<size_t>(len) !=
            line.size()) {
      return Status::IOError("checkpoint " + path + ": bad dedup entry " +
                             std::to_string(i) + " at byte " +
                             std::to_string(start));
    }
    ckpt.dedup.emplace_back(req_id,
                            line.substr(static_cast<size_t>(consumed)));
  }
  long long engine_len = 0;
  line = next_line();
  if (std::sscanf(line.c_str(), "engine %lld", &engine_len) != 1 ||
      engine_len < 0 ||
      pos + static_cast<size_t>(engine_len) > trailer) {
    return Status::IOError("checkpoint " + path + ": bad engine line");
  }
  ckpt.engine_checkpoint = bytes.substr(pos, static_cast<size_t>(engine_len));
  return ckpt;
}

Result<std::vector<std::pair<int64_t, std::string>>> ListServiceCheckpoints(
    const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::IOError("cannot list " + dir + ": " +
                           std::string(std::strerror(errno)));
  }
  std::vector<std::pair<int64_t, std::string>> out;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.rfind("ckpt-", 0) != 0 || name.size() <= 5) continue;
    if (name.size() > 4 && name.substr(name.size() - 4) == ".tmp") continue;
    char* end = nullptr;
    const long long seq = std::strtoll(name.c_str() + 5, &end, 10);
    if (end == nullptr || *end != '\0') continue;
    out.emplace_back(seq, dir + "/" + name);
  }
  ::closedir(d);
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return out;
}

// --- Dedup cache -----------------------------------------------------------

const std::string* DedupCache::Lookup(int64_t req_id) const {
  const auto it = map_.find(req_id);
  return it == map_.end() ? nullptr : &it->second;
}

void DedupCache::Insert(int64_t req_id, std::string response) {
  const auto [it, inserted] = map_.try_emplace(req_id, std::move(response));
  if (!inserted) return;  // first execution wins; a duplicate never replaces
  order_.push_back(req_id);
  while (order_.size() > static_cast<size_t>(capacity_)) {
    map_.erase(order_.front());
    order_.pop_front();
  }
}

std::vector<std::pair<int64_t, std::string>> DedupCache::Entries() const {
  std::vector<std::pair<int64_t, std::string>> out;
  out.reserve(order_.size());
  for (const int64_t id : order_) {
    const auto it = map_.find(id);
    if (it != map_.end()) out.emplace_back(id, it->second);
  }
  return out;
}

}  // namespace urr
