#ifndef PORYGON_NET_EVENT_QUEUE_H_
#define PORYGON_NET_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "net/sim_time.h"
#include "obs/metrics.h"

namespace porygon::net {

/// Deterministic discrete-event scheduler. Events at equal times fire in
/// scheduling order (a monotone sequence number breaks ties), so a run is a
/// pure function of its inputs.
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Current virtual time.
  SimTime now() const { return now_; }

  /// Mirrors scheduler activity into `registry`: the sim.event_queue_depth
  /// gauge (pending events after every push/pop), the
  /// sim.event_queue_depth_hwm gauge (deepest the queue has been since the
  /// last ResetDepthHighWatermark — the round driver resets it per round),
  /// and the sim.events_drained counter (events executed). Passing nullptr
  /// disables mirroring.
  void EnableMetrics(obs::MetricsRegistry* registry);

  /// Re-bases the high-watermark to the current depth (windowed gauges).
  void ResetDepthHighWatermark();

  /// Schedules `fn` to run at absolute time `t` (clamped to now).
  void ScheduleAt(SimTime t, std::function<void()> fn);

  /// Schedules `fn` to run `delay` after now.
  void ScheduleAfter(SimTime delay, std::function<void()> fn);

  /// Runs the earliest pending event; returns false if the queue is empty.
  bool RunNext();

  /// Runs events until the queue is empty or virtual time would exceed
  /// `deadline`. Returns the number of events executed.
  size_t RunUntil(SimTime deadline);

  /// Runs until empty, with a safety cap on event count (runaway guard).
  size_t RunUntilIdle(size_t max_events = SIZE_MAX);

  size_t pending() const { return queue_.size(); }

 private:
  struct Event {
    SimTime time;
    uint64_t sequence;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };

  SimTime now_ = 0;
  uint64_t next_sequence_ = 0;
  size_t depth_hwm_ = 0;
  // A binary min-heap on (time, sequence) under std::push_heap/pop_heap, so
  // RunNext can move the earliest event out instead of copying its closure.
  std::vector<Event> queue_;
  obs::Gauge* depth_gauge_ = nullptr;
  obs::Gauge* depth_hwm_gauge_ = nullptr;
  obs::Counter* drained_counter_ = nullptr;
};

}  // namespace porygon::net

#endif  // PORYGON_NET_EVENT_QUEUE_H_
