#include "crypto/sha256.h"

#include <algorithm>
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

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

// The compression function, picked once from CPUID: the platform alone
// decides, and every path produces the same digest.
internal::CompressFn Compressor() {
  static const internal::CompressFn kCompress =
      internal::HasShaNi() ? internal::CompressShaNi
                           : internal::CompressPortable;
  return kCompress;
}
}  // namespace

namespace internal {

void CompressPortable(uint32_t state[8], const uint8_t* blocks,
                      size_t count) {
  for (; count > 0; --count, blocks += 64) {
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

// Intel SHA extensions. The state lives in two registers as (ABEF, CDGH);
// each group of four rounds adds K to four schedule words and runs two
// sha256rnds2 steps, and sha256msg1/msg2 extend the schedule four words at
// a time (w0..w3 hold W[i-16..i-1] in groups of four).
__attribute__((target("sha,sse4.1,ssse3"))) void CompressShaNi(
    uint32_t state[8], const uint8_t* blocks, size_t count) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; count > 0; --count, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w0 = _mm_setzero_si128(), w1 = w0, w2 = w0, w3 = w0;
    for (int i = 0; i < 16; ++i) {
      __m128i w;
      if (i < 4) {
        w = _mm_shuffle_epi8(
            _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(blocks + 16 * i)),
            kByteSwap);
      } else {
        w = _mm_sha256msg1_epu32(w0, w1);
        w = _mm_add_epi32(w, _mm_alignr_epi8(w3, w2, 4));
        w = _mm_sha256msg2_epu32(w, w3);
      }
      const __m128i wk = _mm_add_epi32(
          w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * i)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
      w0 = w1;
      w1 = w2;
      w2 = w3;
      w3 = w;
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}

#else  // !defined(__x86_64__)

bool HasShaNi() { return false; }

void CompressShaNi(uint32_t state[8], const uint8_t* blocks, size_t count) {
  CompressPortable(state, blocks, count);
}

#endif

}  // namespace internal

Sha256::Sha256() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
}

void Sha256::Update(ByteView data) {
  const internal::CompressFn compress = Compressor();
  length_ += data.size();
  const uint8_t* p = data.data();
  size_t n = data.size();
  if (buffered_ > 0) {
    size_t take = std::min(n, sizeof(buffer_) - buffered_);
    std::memcpy(buffer_ + buffered_, p, take);
    buffered_ += take;
    p += take;
    n -= take;
    if (buffered_ == sizeof(buffer_)) {
      compress(state_, buffer_, 1);
      buffered_ = 0;
    }
  }
  if (n >= 64) {
    compress(state_, p, n / 64);
    p += n - n % 64;
    n %= 64;
  }
  if (n > 0) {
    std::memcpy(buffer_, p, n);
    buffered_ = n;
  }
}

Hash256 Sha256::Finish() {
  // Pads in one step: 0x80, zeros up to the length field, the big-endian
  // bit length. A tail with no room left for the length takes two blocks.
  const internal::CompressFn compress = Compressor();
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_ + buffered_, 0, sizeof(buffer_) - buffered_);
    compress(state_, buffer_, 1);
    buffered_ = 0;
  }
  std::memset(buffer_ + buffered_, 0, 56 - buffered_);
  StoreBigEndian64(buffer_ + 56, length_ * 8);
  compress(state_, buffer_, 1);
  Hash256 out;
  for (int i = 0; i < 8; ++i) StoreBigEndian32(out.data() + 4 * i, state_[i]);
  return out;
}

Hash256 Sha256::Hash(ByteView data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

Hash256 Sha256::HashPair(ByteView a, ByteView b) {
  Sha256 h;
  h.Update(a);
  h.Update(b);
  return h.Finish();
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
