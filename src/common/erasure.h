#ifndef PORYGON_COMMON_ERASURE_H_
#define PORYGON_COMMON_ERASURE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace porygon::erasure {

/// Systematic Reed-Solomon-style erasure coding over GF(2^8).
///
/// Encode() splits a payload into `k` equal-size data chunks (the payload is
/// length-prefixed and zero-padded so the split is exact) and derives `n - k`
/// parity chunks from a Cauchy-style generator matrix. Any `k` of the `n`
/// chunks reconstruct the payload exactly; fewer than `k` cannot.
///
/// Everything is integer/table arithmetic over GF(2^8) — no floats — so
/// encode/decode are bit-exact across platforms and thread counts, which the
/// simulator's determinism contract requires. Chunks are plain byte vectors;
/// the caller owns framing (chunk index, k, n) on the wire.

/// Chunk indices are GF(2^8) evaluation points, so n is capped at 255.
inline constexpr int kMaxChunks = 255;

/// Size of each chunk for a payload of `payload_size` bytes split k ways
/// (includes the 8-byte length prefix, rounded up to a multiple of k).
size_t ChunkSize(size_t payload_size, int k);

/// Splits `payload` into n chunks (first k systematic, rest parity).
/// Returns kInvalidArgument unless 1 <= k <= n <= 255.
Result<std::vector<Bytes>> Encode(ByteView payload, int k, int n);

/// Reconstructs the payload from any k available chunks. `chunks[i]` holds
/// chunk i or nullopt if missing; the vector has n entries. Returns
/// kInvalidArgument on malformed input (wrong counts, unequal sizes) and
/// kFailedPrecondition when fewer than k chunks are present or the length
/// prefix is inconsistent (corruption the caller should treat as a Byzantine
/// chunk set).
Result<Bytes> Decode(const std::vector<std::optional<Bytes>>& chunks, int k,
                     int n);

namespace internal {

/// dst[i] ^= c * src[i] over GF(2^8), for i in [0, n).
using MulAddFn = void (*)(uint8_t c, const uint8_t* src, uint8_t* dst,
                          size_t n);
/// One byte at a time through the log/exp tables: the fallback and the
/// reference the shuffle kernel is tested against.
void MulAddPortable(uint8_t c, const uint8_t* src, uint8_t* dst, size_t n);
/// Split-nibble shuffle: c * x = lo[x & 15] ^ hi[x >> 4], 32 bytes per
/// AVX2 byte shuffle. Only where HasShuffleKernel() says so.
void MulAddShuffle(uint8_t c, const uint8_t* src, uint8_t* dst, size_t n);
/// Whether the CPU (and OS) run MulAddShuffle; Encode and Decode use it
/// then, decided once.
bool HasShuffleKernel();

/// Encode and Decode over an explicit kernel (the public entry points pass
/// the one CPUID picked).
Result<std::vector<Bytes>> EncodeWith(MulAddFn mul_add, ByteView payload,
                                      int k, int n);
Result<Bytes> DecodeWith(MulAddFn mul_add,
                         const std::vector<std::optional<Bytes>>& chunks,
                         int k, int n);

}  // namespace internal

}  // namespace porygon::erasure

#endif  // PORYGON_COMMON_ERASURE_H_
