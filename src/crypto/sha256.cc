#include "crypto/sha256.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace porygon::crypto {

namespace {
constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

// The initial state, a..h.
constexpr uint32_t kInit[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                               0xa54ff53a, 0x510e527f, 0x9b05688c,
                               0x1f83d9ab, 0x5be0cd19};

constexpr size_t kBlock = 64;

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

// Whether the SHA-NI kernels run, decided once from CPUID (a function-local
// constant, so pool threads read it race-free): the platform alone decides,
// and every path produces the same digest.
bool UseShaNi() {
  static const bool kShaNi = internal::HasShaNi();
  return kShaNi;
}

// Whether HashBatch runs the 16-lane kernel, decided once the same way.
bool UseAvx512() {
  static const bool kAvx512 = internal::HasAvx512();
  return kAvx512;
}

internal::CompressFn Compressor() {
  return UseShaNi() ? internal::CompressShaNi : internal::CompressPortable;
}

// Pads the `tail` message bytes at the front of `buf` (room for two blocks)
// in one step: 0x80, zeros, then the big-endian bit length of the whole
// `total`-byte message. Returns the block count: one, or two when the tail
// leaves no room for the length.
size_t Pad(uint8_t* buf, size_t tail, uint64_t total) {
  const size_t blocks = tail < 56 ? 1 : 2;
  buf[tail] = 0x80;
  std::memset(buf + tail + 1, 0, blocks * kBlock - 9 - tail);
  StoreBigEndian64(buf + blocks * kBlock - 8, total * 8);
  return blocks;
}

Hash256 Digest(const uint32_t state[8]) {
  Hash256 out;
  for (int i = 0; i < 8; ++i) StoreBigEndian32(out.data() + 4 * i, state[i]);
  return out;
}
}  // namespace

namespace internal {

void CompressPortable(uint32_t state[8], const uint8_t* blocks,
                      size_t count) {
  for (; count > 0; --count, blocks += kBlock) {
    const uint8_t* block = blocks;
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = LoadBigEndian32(block + 4 * i);
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

Hash256 HashPaddedPortable(const uint8_t* blocks, size_t count) {
  uint32_t state[8];
  std::memcpy(state, kInit, sizeof(state));
  CompressPortable(state, blocks, count);
  return Digest(state);
}

Hash256 OneShot(ByteView a, ByteView b, HashPaddedFn hash_padded) {
  uint8_t buf[2 * kBlock];
  std::copy(a.begin(), a.end(), buf);
  std::copy(b.begin(), b.end(), buf + a.size());
  const size_t n = a.size() + b.size();
  return hash_padded(buf, Pad(buf, n, n));
}

#if defined(__x86_64__)

bool HasShaNi() {
  unsigned eax, ebx, ecx, edx;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool ssse3 = (ecx & (1u << 9)) != 0;
  const bool sse41 = (ecx & (1u << 19)) != 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  const bool sha = (ebx & (1u << 29)) != 0;
  return sha && sse41 && ssse3;
}

// Intel SHA extensions. Every function below carries the target attribute
// itself, so no global -m flag is needed.
#define PORYGON_SHA_NI __attribute__((target("sha,sse4.1,ssse3")))
#define PORYGON_SHA_NI_INLINE \
  __attribute__((target("sha,sse4.1,ssse3"), always_inline)) inline

namespace {

PORYGON_SHA_NI_INLINE __m128i Load(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// The 64 rounds of one block, shared by both SHA-NI entries. The state lives
// in two registers as (ABEF, CDGH); w0..w3 hold the block's sixteen message
// words in schedule order, four per register. Each group of four rounds adds
// K to the next four schedule words and runs two sha256rnds2 steps;
// sha256msg1/msg2 extend the schedule four words at a time from the last
// sixteen.
PORYGON_SHA_NI_INLINE void Rounds(__m128i& abef, __m128i& cdgh,
                                  const uint8_t* block) {
  // Big-endian words, one per lane.
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i w0 = _mm_shuffle_epi8(Load(block), kByteSwap);
  __m128i w1 = _mm_shuffle_epi8(Load(block + 16), kByteSwap);
  __m128i w2 = _mm_shuffle_epi8(Load(block + 32), kByteSwap);
  __m128i w3 = _mm_shuffle_epi8(Load(block + 48), kByteSwap);
  const __m128i abef_in = abef;
  const __m128i cdgh_in = cdgh;
#pragma GCC unroll 16
  for (int i = 0; i < 16; ++i) {
    const __m128i wk = _mm_add_epi32(
        w0, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * i)));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    __m128i next = w0;  // The last four groups need no further words.
    if (i < 12) {
      next = _mm_sha256msg1_epu32(w0, w1);
      next = _mm_add_epi32(next, _mm_alignr_epi8(w3, w2, 4));
      next = _mm_sha256msg2_epu32(next, w3);
    }
    w0 = w1;
    w1 = w2;
    w2 = w3;
    w3 = next;
  }
  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);
}

}  // namespace

PORYGON_SHA_NI void CompressShaNi(uint32_t state[8], const uint8_t* blocks,
                                  size_t count) {
  __m128i dcba = Load(reinterpret_cast<const uint8_t*>(state));
  __m128i hgfe = Load(reinterpret_cast<const uint8_t*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; count > 0; --count, blocks += kBlock) Rounds(abef, cdgh, blocks);

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}

// The constant-state entry: the initial state is built in register layout,
// never loaded or stored, and the digest leaves in two stores.
PORYGON_SHA_NI Hash256 HashPaddedShaNi(const uint8_t* blocks, size_t count) {
  __m128i abef =
      _mm_set_epi32(static_cast<int>(kInit[0]), static_cast<int>(kInit[1]),
                    static_cast<int>(kInit[4]), static_cast<int>(kInit[5]));
  __m128i cdgh =
      _mm_set_epi32(static_cast<int>(kInit[2]), static_cast<int>(kInit[3]),
                    static_cast<int>(kInit[6]), static_cast<int>(kInit[7]));

  for (; count > 0; --count, blocks += kBlock) Rounds(abef, cdgh, blocks);

  // The digest a..h, big-endian. The high halves of (CDGH, ABEF) hold d, c,
  // b, a and the low halves h, g, f, e, so each half of the digest is one
  // byte reversal of one 64-bit unpack.
  const __m128i kReverse =
      _mm_set_epi64x(0x0001020304050607ULL, 0x08090a0b0c0d0e0fULL);
  Hash256 out;
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out.data()),
                   _mm_shuffle_epi8(_mm_unpackhi_epi64(cdgh, abef), kReverse));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out.data() + 16),
                   _mm_shuffle_epi8(_mm_unpacklo_epi64(cdgh, abef), kReverse));
  return out;
}

#undef PORYGON_SHA_NI_INLINE
#undef PORYGON_SHA_NI

bool HasAvx512() {
  unsigned eax, ebx, ecx, edx;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool osxsave = (ecx & (1u << 27)) != 0;  // XGETBV is usable.
  if (!osxsave) return false;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  const bool avx512f = (ebx & (1u << 16)) != 0;
  const bool avx512bw = (ebx & (1u << 30)) != 0;
  if (!avx512f || !avx512bw) return false;
  uint32_t xcr0, xcr0_high;
  __asm__ volatile("xgetbv" : "=a"(xcr0), "=d"(xcr0_high) : "c"(0));
  // SSE, AVX, opmask, ZMM_Hi256 and Hi16_ZMM state, all saved by the OS.
  constexpr uint32_t kZmmState = 0xE6;
  return (xcr0 & kZmmState) == kZmmState;
}

// AVX-512F and BW, per function as for SHA-NI.
#define PORYGON_AVX512 __attribute__((target("avx512f,avx512bw")))
#define PORYGON_AVX512_INLINE \
  __attribute__((target("avx512f,avx512bw"), always_inline)) inline

namespace {

constexpr size_t kLanes = Sha256::kLanes;

// Word-sliced blocks: word i of lane j at [i][j], in message byte order.
using SlicedBlock = uint32_t[16][kLanes];

// Rotate and shift in their all-lanes zero-masked forms: GCC 12's unmasked
// intrinsics start from an undefined vector that -Wmaybe-uninitialized
// flags.
template <int N>
PORYGON_AVX512_INLINE __m512i Ror(__m512i x) {
  return _mm512_maskz_ror_epi32(__mmask16{0xFFFF}, x, N);
}

template <unsigned N>
PORYGON_AVX512_INLINE __m512i Shr(__m512i x) {
  return _mm512_maskz_srli_epi32(__mmask16{0xFFFF}, x, N);
}

// x ^ y ^ z as one ternary-logic op (truth table 0x96).
PORYGON_AVX512_INLINE __m512i Xor3(__m512i x, __m512i y, __m512i z) {
  return _mm512_ternarylogic_epi32(x, y, z, 0x96);
}

PORYGON_AVX512_INLINE __m512i Add(__m512i x, __m512i y) {
  return _mm512_add_epi32(x, y);
}

// Reverses the bytes of each 32-bit lane.
PORYGON_AVX512_INLINE __m512i ByteSwap(__m512i x) {
  const __m512i kByteSwap = _mm512_set4_epi32(0x0c0d0e0f, 0x08090a0b,
                                              0x04050607, 0x00010203);
  return _mm512_shuffle_epi8(x, kByteSwap);
}

// The 64 rounds of one block on sixteen lanes: the FIPS 180-4 round, with
// one lane per message. The schedule extends in a ring of sixteen words.
PORYGON_AVX512_INLINE void Rounds16(__m512i state[8],
                                    const SlicedBlock& block) {
  __m512i w[16];
  for (int i = 0; i < 16; ++i) {
    w[i] = ByteSwap(_mm512_load_si512(block[i]));
  }
  __m512i a = state[0], b = state[1], c = state[2], d = state[3];
  __m512i e = state[4], f = state[5], g = state[6], h = state[7];
#pragma GCC unroll 64
  for (int t = 0; t < 64; ++t) {
    if (t >= 16) {
      const __m512i w15 = w[(t - 15) & 15];
      const __m512i w2 = w[(t - 2) & 15];
      const __m512i s0 = Xor3(Ror<7>(w15), Ror<18>(w15), Shr<3>(w15));
      const __m512i s1 = Xor3(Ror<17>(w2), Ror<19>(w2), Shr<10>(w2));
      w[t & 15] = Add(Add(w[t & 15], s0), Add(w[(t - 7) & 15], s1));
    }
    const __m512i k = _mm512_set1_epi32(static_cast<int>(kK[t]));
    const __m512i s1 = Xor3(Ror<6>(e), Ror<11>(e), Ror<25>(e));
    // Ch(e, f, g) = e ? f : g and Maj(a, b, c), each one ternary-logic op
    // (truth tables 0xCA and 0xE8).
    const __m512i ch = _mm512_ternarylogic_epi32(e, f, g, 0xCA);
    const __m512i t1 = Add(Add(h, s1), Add(ch, Add(w[t & 15], k)));
    const __m512i s0 = Xor3(Ror<2>(a), Ror<13>(a), Ror<22>(a));
    const __m512i maj = _mm512_ternarylogic_epi32(a, b, c, 0xE8);
    h = g;
    g = f;
    f = e;
    e = Add(d, t1);
    d = c;
    c = b;
    b = a;
    a = Add(t1, Add(s0, maj));
  }
  state[0] = Add(state[0], a);
  state[1] = Add(state[1], b);
  state[2] = Add(state[2], c);
  state[3] = Add(state[3], d);
  state[4] = Add(state[4], e);
  state[5] = Add(state[5], f);
  state[6] = Add(state[6], g);
  state[7] = Add(state[7], h);
}

}  // namespace

PORYGON_AVX512 void HashBatchAvx512(const uint8_t* messages, size_t length,
                                    size_t count, Hash256* out) {
  assert(length <= Sha256::kMaxOneShot);
  // Every message of the batch pads alike, so the padded blocks are staged
  // word-sliced once, and each group of lanes overwrites only the words
  // that hold message bytes. The kernel reads nothing but this buffer:
  // spare lanes of a partial group hash stale staged words, never bytes
  // past the input.
  uint8_t padded[2 * kBlock] = {};
  const size_t blocks = Pad(padded, length, length);
  const size_t message_words = (length + 3) / 4;
  alignas(64) SlicedBlock sliced[2];
  for (size_t i = 0; i < 16 * blocks; ++i) {
    uint32_t word;
    std::memcpy(&word, padded + 4 * i, sizeof(word));
    for (size_t j = 0; j < kLanes; ++j) sliced[i / 16][i % 16][j] = word;
  }
  for (size_t base = 0; base < count; base += kLanes) {
    const size_t lanes = std::min(kLanes, count - base);
    for (size_t j = 0; j < lanes && length > 0; ++j) {
      // The message over the padding template: byte `length` stays 0x80.
      std::memcpy(padded, messages + (base + j) * length, length);
      for (size_t i = 0; i < message_words; ++i) {
        std::memcpy(&sliced[i / 16][i % 16][j], padded + 4 * i, 4);
      }
    }
    __m512i state[8];
    for (int i = 0; i < 8; ++i) {
      state[i] = _mm512_set1_epi32(static_cast<int>(kInit[i]));
    }
    for (size_t b = 0; b < blocks; ++b) Rounds16(state, sliced[b]);
    // Big-endian digest words, lane j in column j.
    alignas(64) uint32_t digest[8][kLanes];
    for (int i = 0; i < 8; ++i) {
      _mm512_store_si512(digest[i], ByteSwap(state[i]));
    }
    for (size_t j = 0; j < lanes; ++j) {
      for (int i = 0; i < 8; ++i) {
        std::memcpy(out[base + j].data() + 4 * i, &digest[i][j], 4);
      }
    }
  }
}

#undef PORYGON_AVX512_INLINE
#undef PORYGON_AVX512

#else  // !defined(__x86_64__)

bool HasShaNi() { return false; }

void CompressShaNi(uint32_t state[8], const uint8_t* blocks, size_t count) {
  CompressPortable(state, blocks, count);
}

Hash256 HashPaddedShaNi(const uint8_t* blocks, size_t count) {
  return HashPaddedPortable(blocks, count);
}

bool HasAvx512() { return false; }

void HashBatchAvx512(const uint8_t* messages, size_t length, size_t count,
                     Hash256* out) {
  for (size_t i = 0; i < count; ++i) {
    out[i] = Sha256::Hash(ByteView(messages + i * length, length));
  }
}

#endif

}  // namespace internal

Sha256::Sha256() { std::memcpy(state_, kInit, sizeof(state_)); }

void Sha256::Update(ByteView data) {
  // An empty view may carry a null pointer, which memcpy must not see.
  if (data.empty()) return;
  const internal::CompressFn compress = Compressor();
  length_ += data.size();
  const uint8_t* p = data.data();
  size_t n = data.size();
  if (buffered_ > 0) {
    size_t take = std::min(n, kBlock - buffered_);
    std::memcpy(buffer_ + buffered_, p, take);
    buffered_ += take;
    p += take;
    n -= take;
    if (buffered_ == kBlock) {
      compress(state_, buffer_, 1);
      buffered_ = 0;
    }
  }
  if (n >= kBlock) {
    compress(state_, p, n / kBlock);
    p += n - n % kBlock;
    n %= kBlock;
  }
  if (n > 0) {
    std::memcpy(buffer_, p, n);
    buffered_ = n;
  }
}

Hash256 Sha256::Finish() {
  // The buffered tail pads in place, as a one-shot message does on the
  // stack, and its one or two blocks compress in one call.
  Compressor()(state_, buffer_, Pad(buffer_, buffered_, length_));
  return Digest(state_);
}

Hash256 Sha256::Hash(ByteView a, ByteView b) {
  if (a.size() + b.size() <= kMaxOneShot) {
    return internal::OneShot(a, b,
                             UseShaNi() ? internal::HashPaddedShaNi
                                        : internal::HashPaddedPortable);
  }
  Sha256 h;
  h.Update(a);
  h.Update(b);
  return h.Finish();
}

void Sha256::HashBatch(const uint8_t* messages, size_t length, size_t count,
                       Hash256* out) {
  assert(length <= kMaxOneShot);
  size_t wide = 0;
  if (UseAvx512()) {
    // Whole groups of lanes, and a last partial group only when it is wide
    // enough to pay for its call.
    wide = count % kLanes >= kMinLanes ? count : count - count % kLanes;
    if (wide > 0) internal::HashBatchAvx512(messages, length, wide, out);
  }
  for (size_t i = wide; i < count; ++i) {
    out[i] = Hash(ByteView(messages + i * length, length));
  }
}

Hash256 Sha256::HashNodes(const Hash256& l, const Hash256& r) {
  return Hash(l, r);
}

Hash256 Sha256::HashTaggedNodes(uint8_t tag, const Hash256& l,
                                const Hash256& r) {
  uint8_t tagged[1 + sizeof(Hash256)];
  tagged[0] = tag;
  std::memcpy(tagged + 1, l.data(), l.size());
  return Hash(ByteView(tagged, sizeof(tagged)), r);
}

std::string HashToHex(const Hash256& h) {
  return HexEncode(ByteView(h.data(), h.size()));
}

bool HashLess(const Hash256& a, const Hash256& b) {
  return std::memcmp(a.data(), b.data(), a.size()) < 0;
}

uint64_t HashPrefixU64(const Hash256& h) { return LoadBigEndian64(h.data()); }

Hash256 ZeroHash() {
  Hash256 h;
  h.fill(0);
  return h;
}

}  // namespace porygon::crypto
