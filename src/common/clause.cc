#include "common/clause.h"

#include <charconv>
#include <cstdio>

namespace porygon::clause {

namespace {

/// from_chars over all of `s`: no partial parses, no range errors.
template <typename T>
bool ParseWhole(std::string_view s, T* out) {
  const char* end = s.data() + s.size();
  T v{};
  std::from_chars_result r = std::from_chars(s.data(), end, v);
  if (r.ec != std::errc() || r.ptr != end) return false;
  *out = v;
  return true;
}

}  // namespace

Clause Cut(std::string_view text, char sep) {
  Clause c;
  c.text = text;
  const size_t at = text.find(sep);
  c.key = text.substr(0, at);
  if (at != std::string_view::npos) {
    c.value = text.substr(at + 1);
    c.has_value = true;
  }
  return c;
}

std::vector<Clause> Split(std::string_view spec, char sep) {
  std::vector<Clause> out;
  while (!spec.empty()) {
    const size_t at = spec.find(sep);
    const std::string_view text = spec.substr(0, at);
    if (!text.empty()) out.push_back(Cut(text));
    spec = at == std::string_view::npos ? std::string_view()
                                        : spec.substr(at + 1);
  }
  return out;
}

bool ParseU64(std::string_view s, uint64_t* out) {
  return ParseWhole(s, out);  // Unsigned from_chars takes no sign at all.
}

bool ParseInt(std::string_view s, int* out, int lo, int hi) {
  int64_t v = 0;
  if (!ParseWhole(s, &v) || v < lo || v > hi) return false;
  *out = static_cast<int>(v);
  return true;
}

bool ParseReal(std::string_view s, double* out, double lo, double hi) {
  double v = 0;
  // from_chars reads "nan" and "inf"; the range test fails for both.
  if (!ParseWhole(s, &v) || !(v >= lo && v <= hi)) return false;
  *out = v;
  return true;
}

Status Bad(std::string_view grammar, std::string_view clause,
           std::string_view why) {
  std::string msg = "bad " + std::string(grammar) + " clause '" +
                    std::string(clause) + "'";
  if (!why.empty()) msg += ": " + std::string(why);
  return Status::InvalidArgument(std::move(msg));
}

std::string FormatG(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace porygon::clause
