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

Rng Rng::Fork() { return Rng(NextU64()); }

namespace {
// expm1(x)/x and log1p(x)/x stay well-conditioned through s == 1, where the
// integral H degenerates to the log form.
double HelperExpm1(double x) {
  return std::abs(x) > 1e-8 ? std::expm1(x) / x : 1.0 + x * 0.5;
}
double HelperLog1p(double x) {
  return std::abs(x) > 1e-8 ? std::log1p(x) / x : 1.0 - x * 0.5;
}
}  // namespace

ZipfSampler::ZipfSampler(uint64_t n, double s)
    : n_(n), s_(s), uniform_(n <= 1 || s <= 0.0) {
  if (uniform_) return;
  h_x1_ = HIntegral(1.5) - 1.0;
  h_n_ = HIntegral(static_cast<double>(n) + 0.5);
  threshold_ = 2.0 - HIntegralInverse(HIntegral(2.5) - H(2.0));
}

double ZipfSampler::HIntegral(double x) const {
  const double log_x = std::log(x);
  return HelperExpm1((1.0 - s_) * log_x) * log_x;
}

double ZipfSampler::HIntegralInverse(double x) const {
  double t = x * (1.0 - s_);
  if (t < -1.0) t = -1.0;
  return std::exp(HelperLog1p(t) * x);
}

double ZipfSampler::H(double x) const { return std::exp(-s_ * std::log(x)); }

uint64_t ZipfSampler::Next(Rng* rng) const {
  if (uniform_) return rng->NextBelow(n_ == 0 ? 1 : n_);
  while (true) {
    double u = h_n_ + rng->NextDouble() * (h_x1_ - h_n_);
    double x = HIntegralInverse(u);
    double kd = std::floor(x + 0.5);
    if (kd < 1.0) kd = 1.0;
    if (kd > static_cast<double>(n_)) kd = static_cast<double>(n_);
    if (kd - x <= threshold_ || u >= HIntegral(kd + 0.5) - H(kd)) {
      return static_cast<uint64_t>(kd) - 1;
    }
  }
}

}  // namespace porygon
