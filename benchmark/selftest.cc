// Self-test of the benchmark's window arithmetic (window.h). Built and run
// by CMakeLists.txt after every link; exits non-zero on the first mismatch.

#include <cmath>
#include <cstdio>
#include <vector>

#include "obs/metrics.h"
#include "window.h"

namespace porygon::benchmark {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-9; }

// Percentiles of a window are read from bucket deltas of a cumulative
// histogram. The warm-up's observations must not leak into the window, and
// within the window the result must equal a histogram fed only the
// window's values (chosen to span the buckets, so the min/max clamp the
// histogram applies does not bite).
void PercentilesFromBucketDeltas() {
  obs::Histogram cumulative(obs::Histogram::LatencyBuckets());
  obs::Histogram window_only(obs::Histogram::LatencyBuckets());
  for (int i = 0; i < 500; ++i) cumulative.Observe(400.0);  // Warm-up.
  const std::vector<uint64_t> before = cumulative.bucket_counts();
  for (int i = 1; i <= 1000; ++i) {
    const double v = 0.05 + 0.0299 * i;  // 0.08 .. 29.95 s.
    cumulative.Observe(v);
    window_only.Observe(v);
  }
  const std::vector<uint64_t> delta =
      BucketDelta(cumulative.bucket_counts(), before);
  uint64_t total = 0;
  for (uint64_t c : delta) total += c;
  Expect(total == 1000, "bucket delta holds exactly the window's samples");
  for (double p : {1.0, 25.0, 50.0, 90.0, 99.0}) {
    Expect(Near(PercentileFromBuckets(cumulative.bounds(), delta, p),
                window_only.Percentile(p)),
           "window percentile equals a window-only histogram's");
  }
  // Hand-checked interpolation: 10 samples in (2, 3], 10 in (3, 4].
  const std::vector<double> bounds = {1, 2, 3, 4};
  const std::vector<uint64_t> counts = {0, 0, 10, 10, 0};
  Expect(Near(PercentileFromBuckets(bounds, counts, 50), 3.0), "p50 at edge");
  Expect(Near(PercentileFromBuckets(bounds, counts, 25), 2.5), "p25 midway");
  Expect(Near(PercentileFromBuckets(bounds, counts, 100), 4.0), "p100");
  Expect(PercentileFromBuckets(bounds, {0, 0, 0, 0, 0}, 50) == 0,
         "empty window reads 0");
  Expect(Near(PercentileFromBuckets(bounds, {0, 0, 0, 0, 5}, 99), 4.0),
         "overflow bucket reports its lower edge");
}

void WindowGoodput() {
  // 12 rounds committing 4,000 txs each over 60.5 sim seconds.
  Expect(Near(WindowRate(48'000, 60.5), 48'000 / 60.5), "goodput");
  Expect(WindowRate(5, 0) == 0, "empty window has no rate");
  // A window is a difference of cumulative snapshots: warm-up commits and
  // warm-up time both cancel.
  const uint64_t warm_commits = 9'000, end_commits = 57'000;
  const double warm_s = 20.25, end_s = 80.75;
  Expect(Near(WindowRate(end_commits - warm_commits, end_s - warm_s),
              48'000 / 60.5),
         "goodput is a window difference");
}

void ArrivalCarryIsExact() {
  // 2,000 tx/s at 100 ms ticks: exactly 200 per tick.
  ArrivalCarry even(2000, 100);
  for (int i = 0; i < 50; ++i) Expect(even.Next() == 200, "even tick");
  Expect(even.released() == 10'000, "even total");

  // A fractional per-tick amount (33.3 tx/s -> 3.33 per tick): every tick
  // releases the floor or the ceiling, and the total after k ticks is
  // exactly floor(k * 3.33) - nothing lost to rounding.
  ArrivalCarry frac(33.3, 100);
  uint64_t sum = 0;
  for (uint64_t k = 1; k <= 10'000; ++k) {
    const size_t n = frac.Next();
    sum += n;
    Expect(n == 3 || n == 4, "fractional tick is floor or ceiling");
    Expect(sum == k * 333 / 100, "running total is exact");
  }
  Expect(frac.released() == sum && frac.ticks() == 10'000, "carry counters");

  // Rates below one transaction per tick still arrive on time.
  ArrivalCarry slow(2.5, 100);  // One tx every 4 ticks.
  uint64_t slow_sum = 0;
  for (int k = 0; k < 400; ++k) slow_sum += slow.Next();
  Expect(slow_sum == 100, "sub-tick rate total");
}

}  // namespace
}  // namespace porygon::benchmark

int main() {
  using namespace porygon::benchmark;
  PercentilesFromBucketDeltas();
  WindowGoodput();
  ArrivalCarryIsExact();
  if (failures > 0) return 1;
  std::printf("benchmark selftest: ok\n");
  return 0;
}
