#include "net/event_queue.h"

#include <algorithm>
#include <utility>

namespace porygon::net {

void EventQueue::EnableMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    depth_gauge_ = nullptr;
    depth_hwm_gauge_ = nullptr;
    drained_counter_ = nullptr;
    return;
  }
  depth_gauge_ = registry->GetGauge("sim.event_queue_depth");
  depth_hwm_gauge_ = registry->GetGauge("sim.event_queue_depth_hwm");
  drained_counter_ = registry->GetCounter("sim.events_drained");
  depth_gauge_->Set(static_cast<double>(queue_.size()));
  depth_hwm_gauge_->Set(static_cast<double>(depth_hwm_));
}

void EventQueue::ResetDepthHighWatermark() {
  depth_hwm_ = queue_.size();
  if (depth_hwm_gauge_ != nullptr) {
    depth_hwm_gauge_->Set(static_cast<double>(depth_hwm_));
  }
}

void EventQueue::ScheduleAt(SimTime t, std::function<void()> fn) {
  if (t < now_) t = now_;
  queue_.push_back(Event{t, next_sequence_++, std::move(fn)});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
  if (queue_.size() > depth_hwm_) {
    depth_hwm_ = queue_.size();
    if (depth_hwm_gauge_ != nullptr) {
      depth_hwm_gauge_->Set(static_cast<double>(depth_hwm_));
    }
  }
  if (depth_gauge_ != nullptr) {
    depth_gauge_->Set(static_cast<double>(queue_.size()));
  }
}

void EventQueue::ScheduleAfter(SimTime delay, std::function<void()> fn) {
  ScheduleAt(now_ + delay, std::move(fn));
}

bool EventQueue::RunNext() {
  if (queue_.empty()) return false;
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  Event ev = std::move(queue_.back());
  queue_.pop_back();
  now_ = ev.time;
  if (drained_counter_ != nullptr) {
    drained_counter_->Increment();
    depth_gauge_->Set(static_cast<double>(queue_.size()));
  }
  ev.fn();
  return true;
}

size_t EventQueue::RunUntil(SimTime deadline) {
  size_t executed = 0;
  while (!queue_.empty() && queue_.front().time <= deadline) {
    RunNext();
    ++executed;
  }
  if (now_ < deadline) now_ = deadline;
  return executed;
}

size_t EventQueue::RunUntilIdle(size_t max_events) {
  size_t executed = 0;
  while (executed < max_events && RunNext()) ++executed;
  return executed;
}

}  // namespace porygon::net
