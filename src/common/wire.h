#ifndef PORYGON_COMMON_WIRE_H_
#define PORYGON_COMMON_WIRE_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace porygon::wire {

/// The binary codec: every message, block, proof, signing payload and LSM
/// record is built with a Writer and parsed with a Reader. Multi-byte
/// integers are little-endian; variable-size payloads carry a LEB128 varint
/// length prefix. Encoded bytes feed chain hashes and ids and encoded sizes
/// feed the network simulator's bandwidth model, so a layout never changes
/// (tests/wire_golden_test.cc pins one instance of each).
///
///   return wire::Writer()
///       .U64(round).U8(role).Array(node_key).F64(sortition).Take();
class Reader;

/// Bytes in the LEB128 varint encoding of `v`.
size_t VarintSize(uint64_t v);

class Writer {
 public:
  Writer() = default;
  /// A writer for an encoding of exactly `size` bytes, allocated once up
  /// front; Take() hands that buffer out without a copy. Writing past
  /// `size` still works, by growing like the default writer.
  explicit Writer(size_t size);

  Writer& U8(uint8_t v) {
    *Grow(1) = v;
    return *this;
  }
  Writer& U16(uint16_t v) {
    return U8(static_cast<uint8_t>(v)).U8(static_cast<uint8_t>(v >> 8));
  }
  Writer& U32(uint32_t v) {
    StoreLittleEndian32(Grow(4), v);
    return *this;
  }
  Writer& U64(uint64_t v) {
    StoreLittleEndian64(Grow(8), v);
    return *this;
  }
  /// LEB128 unsigned varint.
  Writer& Varint(uint64_t v);
  Writer& Bool(bool v) { return U8(v ? 1 : 0); }
  /// IEEE-754 bits as a little-endian u64 (exact round-trip).
  Writer& F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return U64(bits);
  }

  /// Fixed-width byte array, no length prefix (Hash256, PublicKey, ...).
  template <size_t N>
  Writer& Array(const std::array<uint8_t, N>& a) {
    return Raw(a);
  }
  /// Length-prefixed byte string.
  Writer& Blob(ByteView data) { return Varint(data.size()).Raw(data); }
  Writer& Str(std::string_view s) { return Blob(s); }
  /// Raw bytes, no length prefix (pre-encoded trailers, tags).
  Writer& Raw(ByteView data) {
    if (!data.empty()) std::memcpy(Grow(data.size()), data.data(), data.size());
    return *this;
  }

  /// A nested message as a length-prefixed `x.Encode()`. A type with
  /// `EncodeTo(Writer*)` encodes in place behind a one-byte prefix that is
  /// widened afterwards if the body needs a longer varint.
  template <typename T>
  Writer& Nested(const T& x) {
    if constexpr (requires { x.EncodeTo(this); }) {
      const size_t start = size_;
      Grow(1);
      x.EncodeTo(this);
      return PrefixLength(start);
    } else {
      return Blob(x.Encode());
    }
  }

  /// Varint element count, then each element: u32/u64 little-endian, byte
  /// arrays raw, Bytes length-prefixed, nested vectors as lists, types the
  /// Reader decodes inline (`DecodeFrom(Reader*)`) by their `EncodeTo`, and
  /// any other type Nested().
  template <typename T>
  Writer& List(const std::vector<T>& items) {
    Varint(items.size());
    for (const T& x : items) Put(x);
    return *this;
  }

  /// The bytes written so far (checksums over a partial record).
  ByteView view() const { return ByteView(data_, size_); }
  /// The bytes written, at their exact size: an exact-size writer's own
  /// buffer, or a growing writer's bytes copied out. The writer is empty
  /// afterwards.
  Bytes Take();
  size_t size() const { return size_; }

 private:
  // Advances the cursor by `n` bytes and returns where they start.
  uint8_t* Grow(size_t n) {
    if (n > capacity_ - size_) Expand(n);
    uint8_t* at = data_ + size_;
    size_ += n;
    return at;
  }
  // Regrows the buffer geometrically to fit `n` more bytes.
  void Expand(size_t n);
  // Writes the length of the body after the one-byte slot at `start` into
  // that slot, widening it first when the varint needs more bytes.
  Writer& PrefixLength(size_t start);

  void Put(uint32_t v) { U32(v); }
  void Put(uint64_t v) { U64(v); }
  void Put(const Bytes& b) { Blob(b); }
  template <size_t N>
  void Put(const std::array<uint8_t, N>& a) {
    Array(a);
  }
  template <typename T>
  void Put(const std::vector<T>& v) {
    List(v);
  }
  template <typename T>
  void Put(const T& x) {
    if constexpr (requires(T* t, Reader* r) { t->DecodeFrom(r); }) {
      x.EncodeTo(this);
    } else {
      Nested(x);
    }
  }

  // An exact-size writer's buffer, until it outgrows it.
  Bytes exact_;
  // A growing writer's buffer: uninitialised past size_, so spare capacity
  // is never written and never resident, and Take() copies out exactly the
  // bytes written.
  std::unique_ptr<uint8_t[]> buf_;
  uint8_t* data_ = nullptr;  // exact_'s or buf_'s bytes.
  size_t capacity_ = 0;
  size_t size_ = 0;  // The cursor: bytes written.
};

/// Streaming decoder over a borrowed view. Each accessor fills an
/// out-param; the first failure is recorded and turns the remaining calls
/// into no-ops, so a whole struct decodes as one chain with a single check
/// at the end. Fixed-width fields decode straight from the input view:
///
///   RoleAnnounce a;
///   wire::Reader r(data);
///   r.U64(&a.round).U8(&a.role).Array(&a.node_key);
///   PORYGON_RETURN_IF_ERROR(r.Finish());
///
/// Every element count goes through Count(), so a forged length prefix is
/// Corruption before anything is allocated for it.
class Reader {
 public:
  explicit Reader(ByteView data) : data_(data) {}

  Reader& U8(uint8_t* out) {
    if (const uint8_t* p = Take(1)) *out = p[0];
    return *this;
  }
  Reader& U16(uint16_t* out) {
    if (const uint8_t* p = Take(2)) {
      *out = static_cast<uint16_t>(p[0] | p[1] << 8);
    }
    return *this;
  }
  Reader& U32(uint32_t* out) {
    if (const uint8_t* p = Take(4)) *out = LoadLittleEndian32(p);
    return *this;
  }
  Reader& U64(uint64_t* out) {
    if (const uint8_t* p = Take(8)) *out = LoadLittleEndian64(p);
    return *this;
  }
  Reader& Varint(uint64_t* out);
  Reader& Bool(bool* out) {
    uint8_t v = 0;
    U8(&v).Require(v <= 1, "invalid bool");
    if (ok()) *out = v == 1;
    return *this;
  }
  Reader& F64(double* out) {
    if (const uint8_t* p = Take(8)) {
      const uint64_t bits = LoadLittleEndian64(p);
      std::memcpy(out, &bits, sizeof(bits));
    }
    return *this;
  }

  template <size_t N>
  Reader& Array(std::array<uint8_t, N>* out) {
    if (const uint8_t* p = Take(N)) std::memcpy(out->data(), p, N);
    return *this;
  }
  Reader& Blob(Bytes* out) {
    ByteView v;
    if (BlobView(&v).ok()) out->assign(v.begin(), v.end());
    return *this;
  }
  /// The next `n` bytes (Writer::Raw's), as a view into the input.
  Reader& Raw(size_t n, ByteView* out) {
    if (const uint8_t* p = Take(n)) *out = ByteView(p, n);
    return *this;
  }
  /// A Nested() message, decoded by `T::Decode(view, extra...)` straight
  /// from the input view, with no intermediate copy.
  template <typename T, typename... Extra>
  Reader& Nested(T* out, const Extra&... extra) {
    ByteView raw;
    if (!BlobView(&raw).ok()) return *this;
    auto decoded = T::Decode(raw, extra...);
    if (!decoded.ok()) {
      status_ = decoded.status();
    } else {
      *out = std::move(decoded).value();
    }
    return *this;
  }

  /// Reads a varint element count and fails with Corruption unless the
  /// remaining input can hold `*n` elements of at least
  /// `min_element_bytes` (>= 1) each.
  Reader& Count(uint64_t* n, size_t min_element_bytes);

  /// A Count()-bounded list in Writer::List's layout. Nested elements
  /// decode by `T::Decode(view, extra...)`.
  template <typename T, typename... Extra>
  Reader& List(std::vector<T>* out, const Extra&... extra) {
    uint64_t n = 0;
    if (!Count(&n, MinWireSize<T>()).ok()) return *this;
    out->resize(n);
    for (T& x : *out) Get(&x, extra...);
    return *this;
  }

  /// Records Corruption(`what`) unless `cond` holds: semantic checks
  /// (enum ranges, caps) inside a chain.
  Reader& Require(bool cond, const char* what) {
    if (ok() && !cond) status_ = Status::Corruption(what);
    return *this;
  }

  /// The first decode error, or Corruption when input remains unconsumed.
  /// `what` names the message for the trailing-bytes diagnostic.
  Status Finish(std::string_view what = "message") const;

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  size_t remaining() const { return data_.size(); }

 private:
  // The next `n` input bytes, or nullptr (recording Corruption) when an
  // earlier read failed or the input is short.
  const uint8_t* Take(size_t n) {
    if (!ok()) return nullptr;
    if (data_.size() < n) {
      status_ = Status::Corruption("truncated input");
      return nullptr;
    }
    const uint8_t* p = data_.data();
    data_.RemovePrefix(n);
    return p;
  }
  // A length-prefixed field as a view into the input.
  Reader& BlobView(ByteView* out) {
    uint64_t n = 0;
    const uint8_t* p = Varint(&n).Take(n);
    if (ok()) *out = ByteView(p, n);
    return *this;
  }

  // Smallest encoding of one list element, for Count's bound.
  template <typename T>
  static constexpr size_t MinWireSize() {
    if constexpr (std::is_integral_v<T>) {
      return sizeof(T);
    } else if constexpr (requires { T::kMinWireSize; }) {
      return T::kMinWireSize;
    } else if constexpr (requires { std::tuple_size<T>::value; }) {
      return std::tuple_size_v<T>;
    } else {
      return 1;  // Blobs and nested lists: at least their varint prefix.
    }
  }

  void Get(uint32_t* v) { U32(v); }
  void Get(uint64_t* v) { U64(v); }
  void Get(Bytes* b) { Blob(b); }
  template <size_t N>
  void Get(std::array<uint8_t, N>* a) {
    Array(a);
  }
  template <typename T>
  void Get(std::vector<T>* v) {
    List(v);
  }
  template <typename T, typename... Extra>
  void Get(T* x, const Extra&... extra) {
    if constexpr (requires { x->DecodeFrom(this); }) {
      static_assert(sizeof...(Extra) == 0,
                    "inline-decoded elements take no extra arguments");
      x->DecodeFrom(this);
    } else {
      Nested(x, extra...);
    }
  }

  ByteView data_;
  Status status_;
};

}  // namespace porygon::wire

#endif  // PORYGON_COMMON_WIRE_H_
