#include "common/binary_io.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace urr {

uint64_t Fnv1a64(const void* data, size_t size, uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

Status WriteFile(const std::string& path, std::string_view content) {
  return WriteFile(path, std::span<const std::string_view>(&content, 1));
}

Status WriteFile(const std::string& path,
                 std::span<const std::string_view> pieces) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open '" + path +
                           "' for writing: " + std::strerror(errno));
  }
  bool written = true;
  for (const std::string_view piece : pieces) {
    written = written &&
              std::fwrite(piece.data(), 1, piece.size(), f) == piece.size();
  }
  const bool flushed = std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (!written || !flushed || !closed) {
    return Status::IOError("short write to '" + path + "'");
  }
  return Status::OK();
}

Result<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (errno == ENOENT) return Status::NotFound(path + " does not exist");
    return Status::IOError("cannot open '" + path +
                           "': " + std::strerror(errno));
  }
  std::string content;
  char buf[1 << 16];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, got);
  }
  const int read_errno = std::ferror(f) != 0 ? errno : 0;
  std::fclose(f);
  if (read_errno != 0) {
    return Status::IOError("cannot read '" + path +
                           "': " + std::strerror(read_errno));
  }
  return content;
}

}  // namespace urr
