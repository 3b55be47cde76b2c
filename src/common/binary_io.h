// Bounds-checked binary reader/writer for the on-disk index snapshot format
// (.urrx). Fixed-width little-endian encoding via memcpy, no varints: every
// field has one size on every platform, so serialized bytes are portable and
// byte-stable (build -> save -> load -> re-save produces identical files).
// The reader never reads past its span and reports every malformation as a
// Status instead of crashing — corrupted snapshots must fail loudly.
#ifndef URR_COMMON_BINARY_IO_H_
#define URR_COMMON_BINARY_IO_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/result.h"

namespace urr {

// The format is defined as little-endian; writing raw object bytes is only
// correct on little-endian hosts (every platform this repo targets).
static_assert(std::endian::native == std::endian::little,
              "urrx serialization assumes a little-endian host");

/// FNV-1a 64-bit hash; the per-section and whole-file checksum of .urrx.
uint64_t Fnv1a64(const void* data, size_t size,
                 uint64_t seed = 0xcbf29ce484222325ull);

/// Writes `content` to `path` (created or truncated). Checks the write,
/// the flush and the close, so a full disk or a failing device is an
/// IOError rather than a silently truncated file.
Status WriteFile(const std::string& path, std::string_view content);

/// Writes the concatenation of `pieces` to `path`, with the same checks,
/// without first copying them into one buffer.
Status WriteFile(const std::string& path,
                 std::span<const std::string_view> pieces);

/// Reads the whole file at `path`. NotFound when it does not exist; IOError
/// when it cannot be opened or a read fails (a directory is an IOError, not
/// an empty file).
Result<std::string> ReadFile(const std::string& path);

/// Append-only serializer into an owned byte string.
class BinaryWriter {
 public:
  void WriteU32(uint32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteI32(int32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteI64(int64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteDouble(double v) { WriteRaw(&v, sizeof(v)); }
  void WriteBytes(const void* data, size_t size) { WriteRaw(data, size); }

  /// u64 element count followed by the elements' raw bytes.
  template <typename T>
  void WriteVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteU64(static_cast<uint64_t>(v.size()));
    if (!v.empty()) WriteRaw(v.data(), v.size() * sizeof(T));
  }

  /// Pads with zero bytes until size() is a multiple of `alignment`.
  void AlignTo(size_t alignment) {
    while (buf_.size() % alignment != 0) buf_.push_back('\0');
  }

  size_t size() const { return buf_.size(); }
  const std::string& buffer() const { return buf_; }
  std::string&& TakeBuffer() { return std::move(buf_); }

 private:
  void WriteRaw(const void* data, size_t size) {
    buf_.append(static_cast<const char*>(data), size);
  }
  std::string buf_;
};

/// Bounds-checked deserializer over a borrowed byte span. Every read either
/// succeeds completely or returns an error Status and leaves the cursor
/// unchanged; the underlying bytes are never trusted.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  Status ReadU32(uint32_t* out) { return ReadRaw(out, sizeof(*out), "u32"); }
  Status ReadU64(uint64_t* out) { return ReadRaw(out, sizeof(*out), "u64"); }
  Status ReadI32(int32_t* out) { return ReadRaw(out, sizeof(*out), "i32"); }
  Status ReadI64(int64_t* out) { return ReadRaw(out, sizeof(*out), "i64"); }
  Status ReadDouble(double* out) { return ReadRaw(out, sizeof(*out), "f64"); }

  /// Reads a u64 count + raw elements written by WriteVector. `max_elements`
  /// caps the count before any multiplication, so a corrupted length can
  /// neither overflow size arithmetic nor trigger a huge allocation.
  template <typename T>
  Status ReadVector(std::vector<T>* out, uint64_t max_elements) {
    static_assert(std::is_trivially_copyable_v<T>);
    const size_t saved = pos_;
    uint64_t count = 0;
    URR_RETURN_NOT_OK(ReadU64(&count));
    if (count > max_elements || count > remaining() / sizeof(T)) {
      pos_ = saved;
      return Status::InvalidArgument(
          "binary read: vector length " + std::to_string(count) +
          " exceeds bounds at offset " + std::to_string(saved));
    }
    out->resize(static_cast<size_t>(count));
    if (count > 0) {
      std::memcpy(out->data(), data_.data() + pos_,
                  static_cast<size_t>(count) * sizeof(T));
      pos_ += static_cast<size_t>(count) * sizeof(T);
    }
    return Status::OK();
  }

  /// Advances the cursor to the next multiple of `alignment`, verifying the
  /// skipped padding is all zero.
  Status AlignTo(size_t alignment) {
    while (pos_ % alignment != 0) {
      if (pos_ >= data_.size()) {
        return Status::InvalidArgument("binary read: truncated padding");
      }
      if (data_[pos_] != '\0') {
        return Status::InvalidArgument("binary read: nonzero padding at " +
                                       std::to_string(pos_));
      }
      ++pos_;
    }
    return Status::OK();
  }

  size_t offset() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  Status ReadRaw(void* out, size_t size, const char* what) {
    if (remaining() < size) {
      return Status::InvalidArgument(
          std::string("binary read: truncated ") + what + " at offset " +
          std::to_string(pos_));
    }
    std::memcpy(out, data_.data() + pos_, size);
    pos_ += size;
    return Status::OK();
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace urr

#endif  // URR_COMMON_BINARY_IO_H_
