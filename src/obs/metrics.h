#ifndef PORYGON_OBS_METRICS_H_
#define PORYGON_OBS_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace porygon::obs {

/// Instrument labels: (key, value) pairs, e.g. {{"phase", "witness"}}.
/// Registries canonicalize label order, so callers may pass them unsorted.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotone event counter. Plain accumulator: deterministic given a
/// deterministic event order, which is what keeps same-seed exports
/// byte-identical.
class Counter {
 public:
  void Increment() { ++value_; }
  void Add(uint64_t delta) { value_ += delta; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

/// Last-value instrument for levels that move both ways (queue depths,
/// table counts).
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Point-in-time digest of a histogram (what experiment tables print).
struct HistogramSummary {
  uint64_t count = 0;
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double min = 0;
  double max = 0;
};

/// Fixed-bucket histogram. Buckets are cumulative-style upper bounds
/// (value v lands in the first bucket with v <= bound; larger values land
/// in the implicit overflow bucket). Percentiles interpolate linearly
/// inside the selected bucket and clamp to the observed [min, max], so a
/// histogram fed a single value reports that value for every percentile.
class Histogram {
 public:
  /// `bounds` must be strictly increasing and non-empty.
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  /// `p` in [0, 100].
  double Percentile(double p) const;
  HistogramSummary Summary() const;

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ > 0 ? sum_ / count_ : 0; }
  double min() const { return count_ > 0 ? min_ : 0; }
  double max() const { return count_ > 0 ? max_ : 0; }
  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  const std::vector<uint64_t>& bucket_counts() const { return counts_; }

  /// Default bounds for second-scale protocol latencies (100 ms .. 10 min).
  static std::vector<double> LatencyBuckets();

 private:
  std::vector<double> bounds_;
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Owns named instruments. Lookup creates on first use; instruments have
/// stable addresses for the registry's lifetime, so hot paths resolve a
/// pointer once and increment through it. Iteration order is the canonical
/// (name, sorted labels) order regardless of creation order — exporters
/// inherit determinism from that.
///
/// Not internally synchronized (the discrete-event engine serializes all
/// accesses, like every other subsystem here).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name, const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const Labels& labels = {});
  /// A gauge excluded from Visit and ExportJson: for values that are
  /// real but nondeterministic (wall-clock timings), which must never leak
  /// into the byte-identical same-seed exports. Read it back with
  /// FindVolatileGauge or VisitVolatileGauges.
  Gauge* GetVolatileGauge(const std::string& name, const Labels& labels = {});
  /// `bounds` applies only on first creation of this (name, labels) series.
  Histogram* GetHistogram(const std::string& name,
                          const std::vector<double>& bounds,
                          const Labels& labels = {});
  /// Histogram with the default latency buckets.
  Histogram* GetHistogram(const std::string& name, const Labels& labels = {});

  const Counter* FindCounter(const std::string& name,
                             const Labels& labels = {}) const;
  const Gauge* FindVolatileGauge(const std::string& name,
                                 const Labels& labels = {}) const;
  const Histogram* FindHistogram(const std::string& name,
                                 const Labels& labels = {}) const;

  /// Value of a counter, or 0 when the series was never created (an
  /// instrumented path that never ran).
  uint64_t CounterValue(const std::string& name,
                        const Labels& labels = {}) const;

  void VisitCounters(
      const std::function<void(const std::string& name, const Labels& labels,
                               const Counter& counter)>& fn) const;
  void VisitGauges(
      const std::function<void(const std::string& name, const Labels& labels,
                               const Gauge& gauge)>& fn) const;
  void VisitHistograms(
      const std::function<void(const std::string& name, const Labels& labels,
                               const Histogram& histogram)>& fn) const;
  /// Volatile gauges only (never visited by VisitGauges or the exporters).
  void VisitVolatileGauges(
      const std::function<void(const std::string& name, const Labels& labels,
                               const Gauge& gauge)>& fn) const;

  size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

 private:
  template <typename T>
  struct Series {
    std::string name;
    Labels labels;  // Sorted by key.
    std::unique_ptr<T> instrument;
  };

  static std::string CanonicalKey(const std::string& name,
                                  const Labels& labels);
  static Labels SortedLabels(const Labels& labels);

  std::map<std::string, Series<Counter>> counters_;
  std::map<std::string, Series<Gauge>> gauges_;
  std::map<std::string, Series<Gauge>> volatile_gauges_;
  std::map<std::string, Series<Histogram>> histograms_;
};

}  // namespace porygon::obs

#endif  // PORYGON_OBS_METRICS_H_
