#ifndef PORYGON_BENCHMARK_WINDOW_H_
#define PORYGON_BENCHMARK_WINDOW_H_

// Window arithmetic shared by porygon_bench and its self-test: every
// end-to-end metric is a difference between two registry snapshots taken at
// the edges of the measured window, and open-loop load is metered out of a
// carry so no fraction of a transaction is lost between ticks.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace porygon::benchmark {

/// Per-bucket counts added between two snapshots of one fixed-bucket
/// histogram (`after` and `before` come from the same series, so they have
/// the same length).
inline std::vector<uint64_t> BucketDelta(const std::vector<uint64_t>& after,
                                         const std::vector<uint64_t>& before) {
  std::vector<uint64_t> delta(after.size(), 0);
  for (size_t i = 0; i < after.size(); ++i) {
    delta[i] = after[i] - (i < before.size() ? before[i] : 0);
  }
  return delta;
}

/// Percentile `p` (0..100) of the observations counted in `counts`, where
/// counts[i] holds values in (bounds[i-1], bounds[i]] and the last entry is
/// the overflow bucket. Interpolates linearly inside the selected bucket the
/// way obs::Histogram::Percentile does; a window delta has no min/max of its
/// own, so the first bucket starts at 0 and the overflow bucket reports its
/// lower edge. Returns 0 for an empty window.
inline double PercentileFromBuckets(const std::vector<double>& bounds,
                                    const std::vector<uint64_t>& counts,
                                    double p) {
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0;
  double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(total);
  if (rank < 1) rank = 1;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const uint64_t next = cumulative + counts[i];
    if (static_cast<double>(next) >= rank) {
      const double lower = i == 0 ? 0 : bounds[i - 1];
      if (i >= bounds.size()) return lower;
      const double frac = (rank - static_cast<double>(cumulative)) /
                          static_cast<double>(counts[i]);
      return lower + frac * (bounds[i] - lower);
    }
    cumulative = next;
  }
  return bounds.empty() ? 0 : bounds.back();
}

/// Events per second over a window (0 for an empty window).
inline double WindowRate(uint64_t delta_events, double delta_seconds) {
  return delta_seconds > 0
             ? static_cast<double>(delta_events) / delta_seconds
             : 0;
}

/// Open-loop metering: a fixed rate in transactions per second, released
/// every `tick_ms` milliseconds. Tick k releases floor(k * due) -
/// floor((k-1) * due) transactions, computed in integers (the rate is held
/// in milli-transactions per second), so after any number of ticks the total
/// released equals the exact floor of rate x elapsed time.
class ArrivalCarry {
 public:
  ArrivalCarry(double rate_tps, int64_t tick_ms)
      : rate_mtps_(static_cast<uint64_t>(rate_tps * 1000.0 + 0.5)),
        tick_ms_(static_cast<uint64_t>(tick_ms)) {}

  /// Transactions due in the next tick.
  size_t Next() {
    ++ticks_;
    const uint64_t due = ticks_ * rate_mtps_ * tick_ms_ / 1'000'000;
    const size_t n = static_cast<size_t>(due - released_);
    released_ = due;
    return n;
  }

  uint64_t ticks() const { return ticks_; }
  uint64_t released() const { return released_; }

 private:
  uint64_t rate_mtps_;
  uint64_t tick_ms_;
  uint64_t ticks_ = 0;
  uint64_t released_ = 0;
};

}  // namespace porygon::benchmark

#endif  // PORYGON_BENCHMARK_WINDOW_H_
