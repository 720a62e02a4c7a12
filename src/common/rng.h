#ifndef PORYGON_COMMON_RNG_H_
#define PORYGON_COMMON_RNG_H_

#include <cstdint>

#include "common/bytes.h"

namespace porygon {

/// Deterministic xoshiro256** PRNG. Every stochastic component of the system
/// (workload generation, network jitter, adversary placement, key generation
/// in tests) draws from an explicitly seeded Rng so that experiments are
/// reproducible bit-for-bit. Not cryptographically secure; protocol-level
/// randomness uses the VRF instead.
class Rng {
 public:
  /// Seeds the state via SplitMix64 so that nearby seeds give unrelated
  /// streams.
  explicit Rng(uint64_t seed);

  /// Uniform 64-bit value.
  uint64_t NextU64();

  /// Uniform in [0, bound) with Lemire rejection to avoid modulo bias.
  /// `bound` must be nonzero.
  uint64_t NextBelow(uint64_t bound);

  /// Uniform in [lo, hi] inclusive. Requires lo <= hi.
  uint64_t NextInRange(uint64_t lo, uint64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// True with probability `p` (clamped to [0,1]).
  bool NextBernoulli(double p);

  /// Exponentially distributed value with the given mean (for Poisson
  /// arrivals in the open-loop workload generator).
  double NextExponential(double mean);

  /// Fills `n` random bytes.
  Bytes NextBytes(size_t n);

  /// Zipf-distributed rank in [0, n) with exponent `s` (s=0 is uniform).
  /// Uses rejection-inversion; suitable for hot-account workloads.
  uint64_t NextZipf(uint64_t n, double s);

  /// Derives an independent child generator (e.g. one per simulated node).
  Rng Fork();

 private:
  uint64_t s_[4];
};

}  // namespace porygon

#endif  // PORYGON_COMMON_RNG_H_
