#ifndef PORYGON_OBS_EXPORT_H_
#define PORYGON_OBS_EXPORT_H_

#include <string>

#include "obs/metrics.h"

namespace porygon::obs {

/// Serializes every series in the registry as one JSON document:
///
///   {
///     "counters":   [{"name": ..., "labels": {...}, "value": N}, ...],
///     "gauges":     [{"name": ..., "labels": {...}, "value": X}, ...],
///     "histograms": [{"name": ..., "labels": {...}, "count": N,
///                     "sum": X, "min": X, "max": X,
///                     "p50": X, "p95": X, "p99": X,
///                     "buckets": [{"le": bound, "count": N}, ...,
///                                 {"le": "inf", "count": N}]}, ...]
///   }
///
/// Series appear in canonical (name, sorted labels) order and doubles are
/// printed with "%.17g", so identical registry contents produce
/// byte-identical output — the property the determinism tests pin down.
std::string ExportJson(const MetricsRegistry& registry);

}  // namespace porygon::obs

#endif  // PORYGON_OBS_EXPORT_H_
