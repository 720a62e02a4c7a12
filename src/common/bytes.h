#ifndef PORYGON_COMMON_BYTES_H_
#define PORYGON_COMMON_BYTES_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace porygon {

/// Raw byte buffer used throughout the library for wire formats and keys.
using Bytes = std::vector<uint8_t>;

/// Non-owning view of a byte range (analogous to rocksdb::Slice).
class ByteView {
 public:
  constexpr ByteView() : data_(nullptr), size_(0) {}
  constexpr ByteView(const uint8_t* data, size_t size)
      : data_(data), size_(size) {}
  ByteView(const Bytes& b) : data_(b.data()), size_(b.size()) {}  // NOLINT
  ByteView(std::string_view s)  // NOLINT
      : data_(reinterpret_cast<const uint8_t*>(s.data())), size_(s.size()) {}
  template <size_t N>
  ByteView(const std::array<uint8_t, N>& a)  // NOLINT
      : data_(a.data()), size_(N) {}

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const uint8_t* begin() const { return data_; }
  const uint8_t* end() const { return data_ + size_; }
  uint8_t operator[](size_t i) const { return data_[i]; }

  /// Drops the first `n` bytes from the view.
  void RemovePrefix(size_t n) {
    data_ += n;
    size_ -= n;
  }

  Bytes ToBytes() const { return Bytes(data_, data_ + size_); }
  std::string ToString() const {
    return std::string(reinterpret_cast<const char*>(data_), size_);
  }

  /// Lexicographic three-way comparison.
  int Compare(ByteView other) const;

 private:
  const uint8_t* data_;
  size_t size_;
};

bool operator==(ByteView a, ByteView b);
inline bool operator!=(ByteView a, ByteView b) { return !(a == b); }
inline bool operator<(ByteView a, ByteView b) { return a.Compare(b) < 0; }

/// Immutable, reference-counted bytes: copies share one buffer, freed with
/// the last copy. A message fan-out encodes once and every recipient holds
/// the same buffer. Only an rvalue Bytes converts in, so sharing an lvalue
/// buffer is never a silent copy.
class SharedBytes {
 public:
  SharedBytes() = default;
  SharedBytes(Bytes&& bytes)  // NOLINT: an encoding converts in place.
      : buf_(bytes.empty()
                 ? nullptr
                 : std::make_shared<const Bytes>(std::move(bytes))) {}

  const uint8_t* data() const { return buf_ ? buf_->data() : nullptr; }
  size_t size() const { return buf_ ? buf_->size() : 0; }
  operator ByteView() const { return ByteView(data(), size()); }  // NOLINT

  /// Observes the buffer without keeping it alive (expired once every
  /// copy is gone; empty payloads have no buffer).
  std::weak_ptr<const Bytes> Watch() const { return buf_; }

 private:
  std::shared_ptr<const Bytes> buf_;
};

/// Encodes `data` as lowercase hex.
std::string HexEncode(ByteView data);

/// Decodes a hex string (case-insensitive). Fails on odd length or non-hex
/// characters.
Result<Bytes> HexDecode(std::string_view hex);

/// Converts an arbitrary string to bytes (no copy avoidance; convenience for
/// tests and examples).
inline Bytes ToBytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

/// Fixed-width big-endian load/store helpers (used by hash functions and the
/// SSTable format).
inline uint32_t LoadBigEndian32(const uint8_t* p) {
  return (uint32_t{p[0]} << 24) | (uint32_t{p[1]} << 16) |
         (uint32_t{p[2]} << 8) | uint32_t{p[3]};
}
inline uint64_t LoadBigEndian64(const uint8_t* p) {
  return (uint64_t{LoadBigEndian32(p)} << 32) | LoadBigEndian32(p + 4);
}
inline void StoreBigEndian32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}
inline void StoreBigEndian64(uint8_t* p, uint64_t v) {
  StoreBigEndian32(p, static_cast<uint32_t>(v >> 32));
  StoreBigEndian32(p + 4, static_cast<uint32_t>(v));
}
inline uint32_t LoadLittleEndian32(const uint8_t* p) {
  return uint32_t{p[0]} | (uint32_t{p[1]} << 8) | (uint32_t{p[2]} << 16) |
         (uint32_t{p[3]} << 24);
}
inline uint64_t LoadLittleEndian64(const uint8_t* p) {
  return uint64_t{LoadLittleEndian32(p)} |
         (uint64_t{LoadLittleEndian32(p + 4)} << 32);
}
inline void StoreLittleEndian32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}
inline void StoreLittleEndian64(uint8_t* p, uint64_t v) {
  StoreLittleEndian32(p, static_cast<uint32_t>(v));
  StoreLittleEndian32(p + 4, static_cast<uint32_t>(v >> 32));
}

}  // namespace porygon

#endif  // PORYGON_COMMON_BYTES_H_
