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

/// SHA-256 (FIPS 180-4). Blocks are compressed with the x86-64 SHA
/// extensions when the CPU has them and in portable C++ otherwise; the
/// choice is made once, from CPUID, and digests are identical either way.
///
/// Node-sized messages skip the streaming object: Hash pads a message of at
/// most kMaxOneShot bytes on the stack and compresses it from the initial
/// state, and HashNodes/HashTaggedNodes are that path for two 32-byte nodes.
/// HashBatch hashes many such messages of one length at once: sixteen per
/// AVX-512 instruction stream where the CPU has it, one at a time otherwise.
/// Longer messages stream through Update/Finish.
class Sha256 {
 public:
  /// Longest message that pads into two blocks.
  static constexpr size_t kMaxOneShot = 119;

  Sha256();

  /// Absorbs more input; may be called repeatedly.
  void Update(ByteView data);

  /// Produces the digest. The object must not be used after Finish().
  Hash256 Finish();

  /// Digest of the concatenation a ‖ b (of `a` alone by default).
  static Hash256 Hash(ByteView a, ByteView b = ByteView());

  /// H(l ‖ r): binary Merkle inner nodes (tx roots and paths, shard-root
  /// aggregation).
  static Hash256 HashNodes(const Hash256& l, const Hash256& r);
  /// H(tag ‖ l ‖ r): the sparse Merkle tree's domain-tagged inner nodes.
  static Hash256 HashTaggedNodes(uint8_t tag, const Hash256& l,
                                 const Hash256& r);

  /// Digests of `count` messages of `length` bytes each (at most
  /// kMaxOneShot), packed back to back from `messages`, into out[0..count).
  /// Equal to calling Hash on each message. Groups of at least kMinLanes
  /// messages run on the 16-lane AVX-512 kernel when the CPU has AVX-512F
  /// and BW with ZMM state enabled; the rest, and every message on other
  /// CPUs, take the one-message path.
  static void HashBatch(const uint8_t* messages, size_t length, size_t count,
                        Hash256* out);
  /// Lanes of the wide kernel, and the fewest messages worth one call: a
  /// 16-lane call costs about as much as seven one-message calls.
  static constexpr size_t kLanes = 16;
  static constexpr size_t kMinLanes = 8;

 private:
  uint32_t state_[8];
  uint64_t length_ = 0;  // Total bytes absorbed.
  // One block of pending input, plus room for Finish to pad a second.
  uint8_t buffer_[128];
  size_t buffered_ = 0;
};

namespace internal {

/// Compresses `count` consecutive 64-byte blocks into `state`.
using CompressFn = void (*)(uint32_t state[8], const uint8_t* blocks,
                            size_t count);
/// Digest of `count` padded blocks compressed from the initial state.
using HashPaddedFn = Hash256 (*)(const uint8_t* blocks, size_t count);

/// Portable FIPS 180-4 compression: the fallback on CPUs and architectures
/// without SHA-NI, and the reference the SHA-NI path is tested against.
void CompressPortable(uint32_t state[8], const uint8_t* blocks, size_t count);
Hash256 HashPaddedPortable(const uint8_t* blocks, size_t count);

/// True iff this CPU has the x86-64 SHA extensions (plus SSE4.1 and SSSE3).
bool HasShaNi();

/// The SHA-NI entries, one per path: CompressShaNi for the streaming class,
/// HashPaddedShaNi for the one-shot path. Only valid when HasShaNi()
/// (elsewhere they forward to the portable code).
void CompressShaNi(uint32_t state[8], const uint8_t* blocks, size_t count);
Hash256 HashPaddedShaNi(const uint8_t* blocks, size_t count);

/// The one-shot path: pads a ‖ b (at most Sha256::kMaxOneShot bytes in all)
/// in a stack buffer and hashes it with `hash_padded`.
Hash256 OneShot(ByteView a, ByteView b, HashPaddedFn hash_padded);

/// True iff this CPU has AVX-512F and AVX-512BW and the OS saves ZMM state
/// (XCR0 opmask, ZMM_Hi256 and Hi16_ZMM bits).
bool HasAvx512();

/// The 16-lane kernel behind Sha256::HashBatch, for any `count` (a partial
/// last group fills its spare lanes from a staged copy, never from past the
/// input). Only valid when HasAvx512() (elsewhere it forwards to the
/// one-message path).
void HashBatchAvx512(const uint8_t* messages, size_t length, size_t count,
                     Hash256* out);

}  // namespace internal

/// Formatting helper for digests.
std::string HashToHex(const Hash256& h);

/// Interprets the first 8 bytes of `h` as a big-endian integer; used to
/// compare VRF outputs against sortition thresholds.
uint64_t HashPrefixU64(const Hash256& h);

/// All-zero digest constant (genesis parent links).
Hash256 ZeroHash();

}  // namespace porygon::crypto

#endif  // PORYGON_CRYPTO_SHA256_H_
