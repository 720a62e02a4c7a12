#include "obs/export.h"

#include <cstdio>

namespace porygon::obs {
namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string FormatU64(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  return buf;
}

// Instrument names/labels here are identifiers we mint ourselves, but escape
// anyway so the output is always valid JSON.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string JsonLabels(const Labels& labels) {
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += "\"" + JsonEscape(labels[i].first) + "\":\"" +
           JsonEscape(labels[i].second) + "\"";
  }
  out.push_back('}');
  return out;
}

}  // namespace

std::string ExportJson(const MetricsRegistry& registry) {
  std::string out = "{\n  \"counters\": [";
  bool first = true;
  registry.VisitCounters([&](const std::string& name, const Labels& labels,
                             const Counter& c) {
    if (!first) out.push_back(',');
    first = false;
    out += "\n    {\"name\":\"" + JsonEscape(name) +
           "\",\"labels\":" + JsonLabels(labels) +
           ",\"value\":" + FormatU64(c.value()) + "}";
  });
  out += first ? "],\n" : "\n  ],\n";

  out += "  \"gauges\": [";
  first = true;
  registry.VisitGauges(
      [&](const std::string& name, const Labels& labels, const Gauge& g) {
        if (!first) out.push_back(',');
        first = false;
        out += "\n    {\"name\":\"" + JsonEscape(name) +
               "\",\"labels\":" + JsonLabels(labels) +
               ",\"value\":" + FormatDouble(g.value()) + "}";
      });
  out += first ? "],\n" : "\n  ],\n";

  out += "  \"histograms\": [";
  first = true;
  registry.VisitHistograms([&](const std::string& name, const Labels& labels,
                               const Histogram& h) {
    if (!first) out.push_back(',');
    first = false;
    HistogramSummary s = h.Summary();
    out += "\n    {\"name\":\"" + JsonEscape(name) +
           "\",\"labels\":" + JsonLabels(labels) +
           ",\"count\":" + FormatU64(s.count) +
           ",\"sum\":" + FormatDouble(h.sum()) +
           ",\"min\":" + FormatDouble(s.min) +
           ",\"max\":" + FormatDouble(s.max) +
           ",\"p50\":" + FormatDouble(s.p50) +
           ",\"p95\":" + FormatDouble(s.p95) +
           ",\"p99\":" + FormatDouble(s.p99) + ",\"buckets\":[";
    const auto& bounds = h.bounds();
    const auto& counts = h.bucket_counts();
    for (size_t i = 0; i < counts.size(); ++i) {
      if (i > 0) out.push_back(',');
      if (i < bounds.size()) {
        out += "{\"le\":" + FormatDouble(bounds[i]) +
               ",\"count\":" + FormatU64(counts[i]) + "}";
      } else {
        out += "{\"le\":\"inf\",\"count\":" + FormatU64(counts[i]) + "}";
      }
    }
    out += "]}";
  });
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace porygon::obs
