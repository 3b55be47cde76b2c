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
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open '" + path +
                           "' for writing: " + std::strerror(errno));
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool flushed = std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (written != content.size() || !flushed || !closed) {
    return Status::IOError("short write to '" + path + "'");
  }
  return Status::OK();
}

}  // namespace urr
