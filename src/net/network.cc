#include "net/network.h"

#include <algorithm>
#include <cassert>

namespace porygon::net {

namespace {
// Queue-delay buckets: sub-millisecond (uncontended links) through tens of
// seconds (a saturated 1 MB/s downlink absorbing a fan-in burst).
std::vector<double> QueueDelayBuckets() {
  return {1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1, 3, 10, 30};
}
}  // namespace

SimNetwork::SimNetwork(EventQueue* events, Rng rng)
    : events_(events), rng_(rng) {}

NodeId SimNetwork::AddNode(const LinkSpec& link,
                           const std::string& node_class) {
  NodeState state;
  state.link = link;
  auto cls = std::find(classes_.begin(), classes_.end(), node_class);
  if (cls == classes_.end()) {
    classes_.push_back(node_class);
    state.class_idx = static_cast<uint32_t>(classes_.size() - 1);
  } else {
    state.class_idx = static_cast<uint32_t>(cls - classes_.begin());
  }
  state.role_idx = InternRole(node_class);
  nodes_.push_back(std::move(state));
  return static_cast<NodeId>(nodes_.size() - 1);
}

uint32_t SimNetwork::InternRole(const std::string& role) {
  auto it = std::find(roles_.begin(), roles_.end(), role);
  if (it != roles_.end()) return static_cast<uint32_t>(it - roles_.begin());
  roles_.push_back(role);
  inflight_.push_back(0);
  inflight_hwm_.push_back(0);
  inflight_gauges_.push_back(nullptr);
  return static_cast<uint32_t>(roles_.size() - 1);
}

void SimNetwork::SetNodeRole(NodeId node, const std::string& role) {
  assert(node < nodes_.size());
  nodes_[node].role_idx = InternRole(role);
}

void SimNetwork::EnableMetrics(obs::MetricsRegistry* registry,
                               std::function<std::string(uint16_t)> kind_name,
                               std::function<std::string(uint16_t)> phase_name) {
  metrics_ = registry;
  kind_name_ = std::move(kind_name);
  phase_name_ = std::move(phase_name);
  counter_cache_.clear();
  std::fill(inflight_gauges_.begin(), inflight_gauges_.end(), nullptr);
  if (metrics_ != nullptr) {
    dropped_sender_crashed_ = metrics_->GetCounter(
        "net.dropped_messages", {{"reason", "sender_crashed"}});
    dropped_receiver_crashed_ = metrics_->GetCounter(
        "net.dropped_messages", {{"reason", "receiver_crashed"}});
    dropped_fault_ = metrics_->GetCounter("net.dropped_messages",
                                          {{"reason", "fault_injected"}});
    delivered_counter_ = metrics_->GetCounter("net.delivered_messages");
    queue_up_hist_ = metrics_->GetHistogram(
        "net.queue_delay_seconds", QueueDelayBuckets(), {{"dir", "up"}});
    queue_down_hist_ = metrics_->GetHistogram(
        "net.queue_delay_seconds", QueueDelayBuckets(), {{"dir", "down"}});
  } else {
    dropped_sender_crashed_ = nullptr;
    dropped_receiver_crashed_ = nullptr;
    dropped_fault_ = nullptr;
    delivered_counter_ = nullptr;
    queue_up_hist_ = nullptr;
    queue_down_hist_ = nullptr;
  }
}

void SimNetwork::Settle(const Message& msg) {
  if (msg.prepared != nullptr) runtime::TaskPool::Cancel(msg.prepared.get());
}

void SimNetwork::Drop(obs::Counter* reason_counter) {
  ++messages_dropped_;
  if (reason_counter != nullptr) reason_counter->Increment();
}

SimNetwork::KindCounters& SimNetwork::CountersFor(const NodeState& node,
                                                  uint16_t kind) {
  const uint32_t key = (node.role_idx << 16) | kind;
  auto it = counter_cache_.find(key);
  if (it != counter_cache_.end()) return it->second;

  obs::Labels labels{{"class", classes_[node.class_idx]},
                     {"role", roles_[node.role_idx]},
                     {"kind", kind_name_ ? kind_name_(kind)
                                         : std::to_string(kind)}};
  if (phase_name_) labels.emplace_back("phase", phase_name_(kind));
  KindCounters counters;
  counters.sent_bytes = metrics_->GetCounter("net.sent_bytes", labels);
  counters.recv_bytes = metrics_->GetCounter("net.recv_bytes", labels);
  counters.sent_messages = metrics_->GetCounter("net.sent_messages", labels);
  counters.recv_messages = metrics_->GetCounter("net.recv_messages", labels);
  counters.uplink_queue_us =
      metrics_->GetCounter("net.uplink_queue_us", labels);
  counters.uplink_busy_us = metrics_->GetCounter("net.uplink_busy_us", labels);
  counters.downlink_queue_us =
      metrics_->GetCounter("net.downlink_queue_us", labels);
  counters.downlink_busy_us =
      metrics_->GetCounter("net.downlink_busy_us", labels);
  return counter_cache_.emplace(key, counters).first->second;
}

obs::Gauge* SimNetwork::InflightGauge(uint32_t role_idx) {
  if (metrics_ == nullptr) return nullptr;
  if (inflight_gauges_[role_idx] == nullptr) {
    inflight_gauges_[role_idx] = metrics_->GetGauge(
        "net.inflight_hwm", {{"role", roles_[role_idx]}});
  }
  return inflight_gauges_[role_idx];
}

void SimNetwork::NoteInflight(uint32_t role_idx, int64_t delta) {
  inflight_[role_idx] += delta;
  if (inflight_[role_idx] > inflight_hwm_[role_idx]) {
    inflight_hwm_[role_idx] = inflight_[role_idx];
    if (obs::Gauge* g = InflightGauge(role_idx); g != nullptr) {
      g->Set(static_cast<double>(inflight_hwm_[role_idx]));
    }
  }
}

uint64_t SimNetwork::InflightFor(const std::string& role) const {
  auto it = std::find(roles_.begin(), roles_.end(), role);
  return it == roles_.end() ? 0 : inflight_[it - roles_.begin()];
}

uint64_t SimNetwork::InflightHwmFor(const std::string& role) const {
  auto it = std::find(roles_.begin(), roles_.end(), role);
  return it == roles_.end() ? 0 : inflight_hwm_[it - roles_.begin()];
}

void SimNetwork::ResetInflightHighWatermarks() {
  for (uint32_t r = 0; r < roles_.size(); ++r) {
    inflight_hwm_[r] = inflight_[r];
    if (obs::Gauge* g = InflightGauge(r); g != nullptr) {
      g->Set(static_cast<double>(inflight_hwm_[r]));
    }
  }
}

void SimNetwork::SetHandler(NodeId node, Handler handler) {
  assert(node < nodes_.size());
  nodes_[node].handler = std::move(handler);
}

void SimNetwork::SetCrashed(NodeId node, bool crashed) {
  assert(node < nodes_.size());
  nodes_[node].crashed = crashed;
}

void SimNetwork::Send(Message msg) {
  assert(msg.from < nodes_.size() && msg.to < nodes_.size());
  if (nodes_[msg.from].crashed) {
    Drop(dropped_sender_crashed_);
    return;
  }
  if (nodes_[msg.to].crashed) {
    Drop(dropped_receiver_crashed_);
    return;
  }
  FaultDecision fault;
  if (fault_hook_) fault = fault_hook_(msg);
  if (fault.drop) {
    Drop(dropped_fault_);
    return;
  }
  // wire_size is authoritative: payloads may carry uncompressed in-memory
  // structs whose wire encoding (what the bandwidth model charges) is
  // smaller. Callers that do not set wire_size get the payload size via
  // their send helpers.
  if (msg.wire_size == 0) msg.wire_size = msg.payload.size();

  if (fault.duplicate) Transmit(msg, fault.extra_delay);
  Transmit(std::move(msg), fault.extra_delay);
}

void SimNetwork::Transmit(Message msg, SimTime extra_delay) {
  if (prepare_hook_) msg.prepared = prepare_hook_(msg);
  NodeState& sender = nodes_[msg.from];

  const SimTime now = events_->now();
  const double up_bps = std::max(sender.link.uplink_bps, 1.0);
  const SimTime tx = static_cast<SimTime>(msg.wire_size / up_bps * 1e6);
  // Queueing delay (waiting for the uplink) is accounted separately from
  // the transmission (serialization) time `tx` — the ledger the per-round
  // critical-path analyzer differences to tell "the link is slow" apart
  // from "the link is oversubscribed".
  const SimTime queue_up =
      sender.uplink_free_at > now ? sender.uplink_free_at - now : 0;
  const SimTime depart = std::max(now, sender.uplink_free_at) + tx;
  sender.uplink_free_at = depart;

  sender.activity.bytes_up += msg.wire_size;
  ++sender.activity.msgs_up;
  sender.activity.queue_up_us += queue_up;
  sender.activity.busy_up_us += tx;
  if (metrics_ != nullptr) {
    KindCounters& counters = CountersFor(sender, msg.kind);
    counters.sent_bytes->Add(msg.wire_size);
    counters.sent_messages->Increment();
    counters.uplink_queue_us->Add(static_cast<uint64_t>(queue_up));
    counters.uplink_busy_us->Add(static_cast<uint64_t>(tx));
    queue_up_hist_->Observe(ToSeconds(queue_up));
  }

  SimTime latency = latency_base_ + extra_delay;
  if (latency_jitter_ > 0) {
    latency += static_cast<SimTime>(
        rng_.NextBelow(static_cast<uint64_t>(latency_jitter_) + 1));
  }
  const SimTime arrive = depart + latency;

  // The receiver's role is fixed at send time so the in-flight increment
  // and its matching decrement always hit the same role bucket.
  const uint32_t to_role = nodes_[msg.to].role_idx;
  NoteInflight(to_role, +1);

  events_->ScheduleAt(arrive, [this, to_role,
                               msg = std::move(msg)]() mutable {
    NodeState& receiver = nodes_[msg.to];
    if (receiver.crashed) {
      NoteInflight(to_role, -1);
      Drop(dropped_receiver_crashed_);
      Settle(msg);
      return;
    }
    const SimTime now = events_->now();
    const double down_bps = std::max(receiver.link.downlink_bps, 1.0);
    const SimTime rx = static_cast<SimTime>(msg.wire_size / down_bps * 1e6);
    const SimTime queue_down =
        receiver.downlink_free_at > now ? receiver.downlink_free_at - now : 0;
    const SimTime deliver = std::max(now, receiver.downlink_free_at) + rx;
    receiver.downlink_free_at = deliver;

    // Ledger entries at link-reservation time (the downlink is occupied
    // from here even if the receiver crashes before the handler runs).
    receiver.activity.bytes_down += msg.wire_size;
    ++receiver.activity.msgs_down;
    receiver.activity.queue_down_us += queue_down;
    receiver.activity.busy_down_us += rx;
    if (metrics_ != nullptr) {
      KindCounters& counters = CountersFor(receiver, msg.kind);
      counters.downlink_queue_us->Add(static_cast<uint64_t>(queue_down));
      counters.downlink_busy_us->Add(static_cast<uint64_t>(rx));
      queue_down_hist_->Observe(ToSeconds(queue_down));
    }

    events_->ScheduleAt(deliver, [this, to_role, msg = std::move(msg)]() {
      NodeState& receiver = nodes_[msg.to];
      NoteInflight(to_role, -1);
      if (receiver.crashed || !receiver.handler) {
        Drop(dropped_receiver_crashed_);
        Settle(msg);
        return;
      }
      if (metrics_ != nullptr) {
        KindCounters& counters = CountersFor(receiver, msg.kind);
        counters.recv_bytes->Add(msg.wire_size);
        counters.recv_messages->Increment();
      }
      if (delivered_counter_ != nullptr) delivered_counter_->Increment();
      receiver.handler(msg);
      Settle(msg);
    });
  });
}

}  // namespace porygon::net
