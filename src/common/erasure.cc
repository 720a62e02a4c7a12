#include "common/erasure.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace porygon::erasure {
namespace {

// GF(2^8) with the primitive polynomial x^8+x^4+x^3+x^2+1 (0x11d),
// generator 2. Tables are built once at static-init time from pure integer
// arithmetic, so the field is identical on every platform.
struct Gf256 {
  std::array<uint8_t, 256> log{};
  std::array<uint8_t, 512> exp{};

  Gf256() {
    uint16_t x = 1;
    for (int i = 0; i < 255; ++i) {
      exp[i] = static_cast<uint8_t>(x);
      log[x] = static_cast<uint8_t>(i);
      x <<= 1;
      if (x & 0x100) x ^= 0x11d;
    }
    for (int i = 255; i < 512; ++i) exp[i] = exp[i - 255];
    log[0] = 0;  // log(0) is undefined; Mul/Inv guard zero explicitly.
  }

  uint8_t Mul(uint8_t a, uint8_t b) const {
    if (a == 0 || b == 0) return 0;
    return exp[log[a] + log[b]];
  }

  // a != 0 is a caller invariant (Cauchy denominators are nonzero and
  // pivots are checked before inversion).
  uint8_t Inv(uint8_t a) const { return exp[255 - log[a]]; }
};

const Gf256& Field() {
  static const Gf256 gf;
  return gf;
}

// Cauchy generator coefficient for parity row r, data column j:
// 1 / (x_r ^ y_j) with x_r = k + r and y_j = j. The x and y index sets are
// disjoint, so the denominator is never zero, and every square submatrix of
// [I ; C] is invertible — the property that makes any k of n chunks enough.
uint8_t CauchyCoef(const Gf256& gf, int k, int r, int j) {
  return gf.Inv(static_cast<uint8_t>((k + r) ^ j));
}

// The multiply-accumulate kernel, decided once from CPUID (a function-local
// constant, so pool threads read it race-free). Every kernel gives the same
// bytes.
internal::MulAddFn Kernel() {
  static const internal::MulAddFn kKernel = internal::HasShuffleKernel()
                                                ? internal::MulAddShuffle
                                                : internal::MulAddPortable;
  return kKernel;
}

}  // namespace

namespace internal {

void MulAddPortable(uint8_t c, const uint8_t* src, uint8_t* dst, size_t n) {
  const Gf256& gf = Field();
  for (size_t b = 0; b < n; ++b) dst[b] ^= gf.Mul(c, src[b]);
}

#if defined(__x86_64__)

bool HasShuffleKernel() {
  unsigned eax, ebx, ecx, edx;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool osxsave = (ecx & (1u << 27)) != 0;  // XGETBV is usable.
  const bool avx = (ecx & (1u << 28)) != 0;
  if (!osxsave || !avx) return false;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  if ((ebx & (1u << 5)) == 0) return false;  // AVX2.
  uint32_t xcr0, xcr0_high;
  __asm__ volatile("xgetbv" : "=a"(xcr0), "=d"(xcr0_high) : "c"(0));
  constexpr uint32_t kYmmState = 0x6;  // SSE and AVX state, saved by the OS.
  return (xcr0 & kYmmState) == kYmmState;
}

__attribute__((target("avx2"))) void MulAddShuffle(uint8_t c,
                                                   const uint8_t* src,
                                                   uint8_t* dst, size_t n) {
  const Gf256& gf = Field();
  // Products of c with every low nibble and every high nibble: GF(2^8)
  // multiplication distributes over XOR, so c * x is one from each.
  alignas(16) uint8_t lo[16];
  alignas(16) uint8_t hi[16];
  for (int i = 0; i < 16; ++i) {
    lo[i] = gf.Mul(c, static_cast<uint8_t>(i));
    hi[i] = gf.Mul(c, static_cast<uint8_t>(i << 4));
  }
  const __m256i lo_table = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(lo)));
  const __m256i hi_table = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(hi)));
  const __m256i nibble = _mm256_set1_epi8(0x0f);
  size_t b = 0;
  for (; b + 32 <= n; b += 32) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + b));
    const __m256i product = _mm256_xor_si256(
        _mm256_shuffle_epi8(lo_table, _mm256_and_si256(x, nibble)),
        _mm256_shuffle_epi8(hi_table,
                            _mm256_and_si256(_mm256_srli_epi64(x, 4), nibble)));
    __m256i* out = reinterpret_cast<__m256i*>(dst + b);
    _mm256_storeu_si256(out,
                        _mm256_xor_si256(_mm256_loadu_si256(out), product));
  }
  for (; b < n; ++b) dst[b] ^= gf.Mul(c, src[b]);
}

#else

bool HasShuffleKernel() { return false; }

void MulAddShuffle(uint8_t c, const uint8_t* src, uint8_t* dst, size_t n) {
  MulAddPortable(c, src, dst, n);
}

#endif

}  // namespace internal

size_t ChunkSize(size_t payload_size, int k) {
  size_t framed = payload_size + 8;
  return (framed + static_cast<size_t>(k) - 1) / static_cast<size_t>(k);
}

Result<std::vector<Bytes>> Encode(ByteView payload, int k, int n) {
  return internal::EncodeWith(Kernel(), payload, k, n);
}

Result<Bytes> Decode(const std::vector<std::optional<Bytes>>& chunks, int k,
                     int n) {
  return internal::DecodeWith(Kernel(), chunks, k, n);
}

namespace internal {

Result<std::vector<Bytes>> EncodeWith(MulAddFn mul_add, ByteView payload,
                                      int k, int n) {
  if (k < 1 || n < k || n > kMaxChunks) {
    return Status::InvalidArgument("erasure: need 1 <= k <= n <= 255");
  }
  const Gf256& gf = Field();
  const size_t chunk = ChunkSize(payload.size(), k);

  // Frame: 8-byte LE length prefix, payload, zero pad to k * chunk.
  Bytes framed(static_cast<size_t>(k) * chunk, 0);
  StoreLittleEndian64(framed.data(), payload.size());
  if (!payload.empty()) {
    std::memcpy(framed.data() + 8, payload.data(), payload.size());
  }

  std::vector<Bytes> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < k; ++i) {
    out.emplace_back(framed.begin() + static_cast<long>(i) * chunk,
                     framed.begin() + static_cast<long>(i + 1) * chunk);
  }
  for (int r = 0; r < n - k; ++r) {
    Bytes parity(chunk, 0);
    for (int j = 0; j < k; ++j) {
      mul_add(CauchyCoef(gf, k, r, j),
              framed.data() + static_cast<size_t>(j) * chunk, parity.data(),
              chunk);
    }
    out.push_back(std::move(parity));
  }
  return out;
}

Result<Bytes> DecodeWith(MulAddFn mul_add,
                         const std::vector<std::optional<Bytes>>& chunks,
                         int k, int n) {
  if (k < 1 || n < k || n > kMaxChunks) {
    return Status::InvalidArgument("erasure: need 1 <= k <= n <= 255");
  }
  if (static_cast<int>(chunks.size()) != n) {
    return Status::InvalidArgument("erasure: chunk vector must have n entries");
  }
  const Gf256& gf = Field();

  // Collect the first k available chunks (lowest indices win — any k work).
  std::vector<int> have;
  size_t chunk = 0;
  for (int i = 0; i < n && static_cast<int>(have.size()) < k; ++i) {
    if (!chunks[static_cast<size_t>(i)].has_value()) continue;
    const Bytes& c = *chunks[static_cast<size_t>(i)];
    if (have.empty()) {
      chunk = c.size();
      if (chunk == 0) {
        return Status::InvalidArgument("erasure: empty chunk");
      }
    } else if (c.size() != chunk) {
      return Status::InvalidArgument("erasure: unequal chunk sizes");
    }
    have.push_back(i);
  }
  if (static_cast<int>(have.size()) < k) {
    return Status::FailedPrecondition("erasure: fewer than k chunks present");
  }

  // Row for chunk index i over the k data chunks: identity row when i < k,
  // Cauchy row when i >= k. Solve M * data = avail via Gauss-Jordan,
  // augmenting with the identity to recover M^-1.
  std::vector<std::vector<uint8_t>> m(
      static_cast<size_t>(k), std::vector<uint8_t>(2 * static_cast<size_t>(k)));
  for (int row = 0; row < k; ++row) {
    const int idx = have[static_cast<size_t>(row)];
    if (idx < k) {
      m[static_cast<size_t>(row)][static_cast<size_t>(idx)] = 1;
    } else {
      for (int j = 0; j < k; ++j) {
        m[static_cast<size_t>(row)][static_cast<size_t>(j)] =
            CauchyCoef(gf, k, idx - k, j);
      }
    }
    m[static_cast<size_t>(row)][static_cast<size_t>(k + row)] = 1;
  }
  for (int col = 0; col < k; ++col) {
    int pivot = -1;
    for (int row = col; row < k; ++row) {
      if (m[static_cast<size_t>(row)][static_cast<size_t>(col)] != 0) {
        pivot = row;
        break;
      }
    }
    if (pivot < 0) {
      return Status::FailedPrecondition("erasure: singular decode matrix");
    }
    std::swap(m[static_cast<size_t>(col)], m[static_cast<size_t>(pivot)]);
    auto& prow = m[static_cast<size_t>(col)];
    const uint8_t inv = gf.Inv(prow[static_cast<size_t>(col)]);
    for (auto& v : prow) v = gf.Mul(v, inv);
    for (int row = 0; row < k; ++row) {
      if (row == col) continue;
      auto& target = m[static_cast<size_t>(row)];
      const uint8_t f = target[static_cast<size_t>(col)];
      if (f == 0) continue;
      for (size_t j = 0; j < target.size(); ++j) {
        target[j] ^= gf.Mul(f, prow[j]);
      }
    }
  }

  // data[d] = sum over rows of inv[d][row] * avail[row]. An identity row
  // (a data chunk that arrived) is a copy.
  Bytes framed(static_cast<size_t>(k) * chunk, 0);
  for (int d = 0; d < k; ++d) {
    uint8_t* dst = framed.data() + static_cast<size_t>(d) * chunk;
    const std::vector<uint8_t>& inv = m[static_cast<size_t>(d)];
    int nonzero = 0;
    int last = 0;
    for (int row = 0; row < k; ++row) {
      if (inv[static_cast<size_t>(k + row)] != 0) {
        ++nonzero;
        last = row;
      }
    }
    auto avail = [&](int row) -> const Bytes& {
      return *chunks[static_cast<size_t>(have[static_cast<size_t>(row)])];
    };
    if (nonzero == 1 && inv[static_cast<size_t>(k + last)] == 1) {
      std::memcpy(dst, avail(last).data(), chunk);
      continue;
    }
    for (int row = 0; row < k; ++row) {
      const uint8_t c = inv[static_cast<size_t>(k + row)];
      if (c != 0) mul_add(c, avail(row).data(), dst, chunk);
    }
  }

  if (framed.size() < 8) {
    return Status::FailedPrecondition("erasure: short frame");
  }
  const uint64_t len = LoadLittleEndian64(framed.data());
  if (len > framed.size() - 8) {
    return Status::FailedPrecondition("erasure: corrupt length prefix");
  }
  return Bytes(framed.begin() + 8, framed.begin() + 8 + static_cast<long>(len));
}

}  // namespace internal

}  // namespace porygon::erasure
