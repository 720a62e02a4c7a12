#include "common/rng.h"

#include <cmath>

namespace porygon {

namespace {
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBelow(uint64_t bound) {
  // Lemire's method: multiply-shift with rejection in the biased zone.
  uint64_t x = NextU64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t low = static_cast<uint64_t>(m);
  if (low < bound) {
    uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = NextU64();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

uint64_t Rng::NextInRange(uint64_t lo, uint64_t hi) {
  return lo + NextBelow(hi - lo + 1);
}

double Rng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::NextExponential(double mean) {
  double u = NextDouble();
  // Guard against log(0).
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

Bytes Rng::NextBytes(size_t n) {
  Bytes out(n);
  size_t i = 0;
  while (i + 8 <= n) {
    uint64_t v = NextU64();
    for (int k = 0; k < 8; ++k) out[i + k] = static_cast<uint8_t>(v >> (8 * k));
    i += 8;
  }
  if (i < n) {
    uint64_t v = NextU64();
    for (; i < n; ++i) {
      out[i] = static_cast<uint8_t>(v);
      v >>= 8;
    }
  }
  return out;
}

uint64_t Rng::NextZipf(uint64_t n, double s) {
  if (n <= 1 || s <= 0.0) return NextBelow(n == 0 ? 1 : n);
  // Rejection-inversion sampling (Hormann & Derflinger 1996). The helpers
  // expm1(x)/x and log1p(x)/x stay well-conditioned through s == 1, where
  // the integral H degenerates to the log form.
  auto helper_expm1 = [](double x) -> double {
    return std::abs(x) > 1e-8 ? std::expm1(x) / x : 1.0 + x * 0.5;
  };
  auto helper_log1p = [](double x) -> double {
    return std::abs(x) > 1e-8 ? std::log1p(x) / x : 1.0 - x * 0.5;
  };
  // H(x) = ((x^(1-s)) - 1) / (1 - s), continuous at s == 1 (-> ln x).
  auto h_integral = [&](double x) -> double {
    const double log_x = std::log(x);
    return helper_expm1((1.0 - s) * log_x) * log_x;
  };
  // H^{-1}(x) = exp(log1p(t)/(1-s)) with t = x*(1-s).
  auto h_integral_inverse = [&](double x) -> double {
    double t = x * (1.0 - s);
    if (t < -1.0) t = -1.0;
    return std::exp(helper_log1p(t) * x);
  };
  auto h = [s](double x) { return std::exp(-s * std::log(x)); };

  const double h_x1 = h_integral(1.5) - 1.0;
  const double h_n = h_integral(static_cast<double>(n) + 0.5);
  const double threshold = 2.0 - h_integral_inverse(h_integral(2.5) - h(2.0));
  while (true) {
    double u = h_n + NextDouble() * (h_x1 - h_n);
    double x = h_integral_inverse(u);
    double kd = std::floor(x + 0.5);
    if (kd < 1.0) kd = 1.0;
    if (kd > static_cast<double>(n)) kd = static_cast<double>(n);
    if (kd - x <= threshold || u >= h_integral(kd + 0.5) - h(kd)) {
      return static_cast<uint64_t>(kd) - 1;
    }
  }
}

Rng Rng::Fork() { return Rng(NextU64()); }

}  // namespace porygon
