#ifndef PORYGON_NET_SIM_TIME_H_
#define PORYGON_NET_SIM_TIME_H_

#include <cstdint>

namespace porygon::net {

/// Virtual time in microseconds. Integer microseconds keep the event queue
/// deterministic across platforms (no floating-point tie ambiguity).
using SimTime = int64_t;

constexpr SimTime kSimTimeNever = INT64_MAX;

constexpr SimTime FromSeconds(double s) {
  return static_cast<SimTime>(s * 1e6);
}
constexpr SimTime FromMillis(double ms) {
  return static_cast<SimTime>(ms * 1e3);
}
constexpr double ToSeconds(SimTime t) { return static_cast<double>(t) * 1e-6; }

}  // namespace porygon::net

#endif  // PORYGON_NET_SIM_TIME_H_
