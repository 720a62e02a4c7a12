#ifndef PORYGON_CRYPTO_SHA256_H_
#define PORYGON_CRYPTO_SHA256_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/bytes.h"

namespace porygon::crypto {

/// 32-byte digest used for block hashes, transaction ids, Merkle nodes, and
/// VRF outputs.
using Hash256 = std::array<uint8_t, 32>;

/// Incremental SHA-256 (FIPS 180-4). Blocks are compressed with the x86-64
/// SHA extensions when the CPU has them and in portable C++ otherwise; the
/// choice is made once, from CPUID, and digests are identical either way.
class Sha256 {
 public:
  Sha256();

  /// Absorbs more input; may be called repeatedly.
  void Update(ByteView data);

  /// Produces the digest. The object must not be used after Finish().
  Hash256 Finish();

  /// One-shot convenience.
  static Hash256 Hash(ByteView data);

  /// Hash of the concatenation of two inputs (Merkle inner nodes).
  static Hash256 HashPair(ByteView a, ByteView b);

 private:
  uint32_t state_[8];
  uint64_t length_ = 0;  // Total bytes absorbed.
  uint8_t buffer_[64];
  size_t buffered_ = 0;
};

namespace internal {

/// Compresses `count` consecutive 64-byte blocks into `state`.
using CompressFn = void (*)(uint32_t state[8], const uint8_t* blocks,
                            size_t count);

/// Portable FIPS 180-4 compression: the fallback on CPUs and architectures
/// without SHA-NI, and the reference the SHA-NI path is tested against.
void CompressPortable(uint32_t state[8], const uint8_t* blocks, size_t count);

/// True iff this CPU has the x86-64 SHA extensions (plus SSE4.1 and SSSE3).
bool HasShaNi();

/// SHA-NI compression; only valid when HasShaNi() (elsewhere it forwards to
/// CompressPortable).
void CompressShaNi(uint32_t state[8], const uint8_t* blocks, size_t count);

}  // namespace internal

/// Lexicographic comparison/formatting helpers for digests.
std::string HashToHex(const Hash256& h);
bool HashLess(const Hash256& a, const Hash256& b);

/// Interprets the first 8 bytes of `h` as a big-endian integer; used to
/// compare VRF outputs against sortition thresholds.
uint64_t HashPrefixU64(const Hash256& h);

/// All-zero digest constant (genesis parent links).
Hash256 ZeroHash();

}  // namespace porygon::crypto

#endif  // PORYGON_CRYPTO_SHA256_H_
