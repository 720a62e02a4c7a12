#ifndef PORYGON_NET_NETWORK_H_
#define PORYGON_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "net/event_queue.h"
#include "net/sim_time.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/task_pool.h"

namespace porygon::net {

/// Dense node identifier within one simulated network.
using NodeId = uint32_t;
constexpr NodeId kInvalidNode = UINT32_MAX;

/// A protocol message in flight. `wire_size` is what the bandwidth model
/// charges. It may exceed payload.size() when the simulation elides content
/// (e.g. a 2,000-transaction block whose bytes we do not materialize), or
/// fall short of it when the payload is an uncompressed in-memory form of a
/// smaller wire encoding.
struct Message {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  uint16_t kind = 0;        ///< Protocol message type (per-protocol enum).
  /// Decoded by the receiving actor. Immutable once sent: every recipient
  /// of a fan-out (and a fault-injected duplicate) shares one buffer,
  /// released when the last copy is delivered or dropped.
  SharedBytes payload;
  size_t wire_size = 0;     ///< Bytes charged to links (0: payload size).
  /// Distributed-tracing context carried with the message (the simulated
  /// analogue of a trace header). Not charged to the bandwidth model — the
  /// Relay wire tail that materializes it on storage hops is subtracted
  /// from the charged size at the sender — so enabling trace sampling
  /// leaves every departure/delivery time byte-identical (pinned by
  /// CriticalPathTest.TraceSamplingLeavesTimingByteIdentical). An inactive
  /// context (the default) means the message is untraced.
  obs::TraceContext trace;
  /// The receiver's front half for this copy, started on the compute pool
  /// when the copy left its sender (SimNetwork::SetPrepareHook); null when
  /// nothing was started. Never charged, never seen by the timing model.
  std::shared_ptr<runtime::TaskPool::Job> prepared;
};

/// Per-node link capacity in bytes/second. The paper provisions stateless
/// nodes with 1 MB/s, matching resource-limited mobile devices.
struct LinkSpec {
  double uplink_bps = 1e6;
  double downlink_bps = 1e6;
};

/// Cumulative per-node link ledger: bytes moved, plus *queueing delay*
/// (time a transmission waited for `uplink_free_at` / `downlink_free_at`)
/// accounted separately from *busy time* (the serialization time the link
/// spent actually transmitting). All integer sim-time microseconds, so
/// window deltas are byte-deterministic for any thread count. Uplink
/// entries are charged when the send is admitted; downlink entries when
/// the message reserves the receiver's downlink (arrival), whether or not
/// the final delivery still finds the receiver alive — the ledger tracks
/// link occupancy, not application receipt. The per-kind and per-phase
/// split lives in the registry's net.* series (EnableMetrics).
struct LinkActivity {
  uint64_t bytes_up = 0;
  uint64_t bytes_down = 0;
  uint64_t msgs_up = 0;
  uint64_t msgs_down = 0;
  SimTime queue_up_us = 0;   ///< Total time sends waited on a busy uplink.
  SimTime queue_down_us = 0; ///< Total time arrivals waited on the downlink.
  SimTime busy_up_us = 0;    ///< Total uplink transmission (serialization).
  SimTime busy_down_us = 0;  ///< Total downlink transmission.
};

/// What a fault hook decided for one message (see SimNetwork::SetFaultHook):
/// drop it, deliver it twice, and/or add extra one-way delay. Defaults mean
/// "no fault".
struct FaultDecision {
  bool drop = false;
  bool duplicate = false;
  SimTime extra_delay = 0;
};

/// Point-to-point message fabric with store-and-forward timing:
///
///   depart  = max(now, sender uplink free) + wire_size / uplink_bps
///   arrive  = depart + latency(+jitter)
///   deliver = max(arrive, receiver downlink free) + wire_size / downlink_bps
///
/// Each node registers a handler; delivery invokes it at the computed time.
/// Crashed nodes neither send nor receive; a fault hook may drop, duplicate
/// or delay any other send.
class SimNetwork {
 public:
  using Handler = std::function<void(const Message&)>;
  /// Consulted per send (after the crash checks) by a fault injector.
  using FaultHook = std::function<FaultDecision(const Message&)>;
  /// Called for each copy a send transmits; what it returns rides in the
  /// copy's Message::prepared to delivery.
  using PrepareHook =
      std::function<std::shared_ptr<runtime::TaskPool::Job>(const Message&)>;

  SimNetwork(EventQueue* events, Rng rng);

  /// Registers a node and returns its id. `node_class` groups nodes for
  /// metrics breakdowns (e.g. "storage" vs "stateless"); it is a label on
  /// the exported series, not part of routing. The node's *role* (the
  /// finer-grained label the bandwidth ledger aggregates by) defaults to
  /// the class; refine it with SetNodeRole.
  NodeId AddNode(const LinkSpec& link, const std::string& node_class = "node");

  /// Refines a node's role label (e.g. "oc_leader" within class
  /// "stateless"). Roles drive the per-role counter series and the
  /// in-flight high-watermark gauges; call before any traffic flows so
  /// every byte of a series is attributed to one role.
  void SetNodeRole(NodeId node, const std::string& role);
  const std::string& RoleName(NodeId node) const {
    return roles_[nodes_[node].role_idx];
  }

  /// Mirrors traffic accounting into `registry` as net.sent_bytes /
  /// net.recv_bytes / net.sent_messages / net.recv_messages counters
  /// labelled {class, role, kind, phase}, queueing-vs-transmission
  /// counters (net.uplink_queue_us / net.uplink_busy_us /
  /// net.downlink_queue_us / net.downlink_busy_us, same labels),
  /// net.queue_delay_seconds histograms labelled {dir}, per-role
  /// net.inflight_hwm gauges, plus net.dropped_messages labelled by
  /// {reason} (sender_crashed, receiver_crashed, fault_injected). The
  /// `kind_name` / `phase_name` callbacks translate raw message kinds to
  /// stable label values so the export is protocol-aware without the net
  /// layer knowing any protocol enum. Passing nullptr disables mirroring.
  void EnableMetrics(obs::MetricsRegistry* registry,
                     std::function<std::string(uint16_t)> kind_name = {},
                     std::function<std::string(uint16_t)> phase_name = {});

  void SetHandler(NodeId node, Handler handler);
  /// Installs (or clears) the fault-injection hook. At most one is active;
  /// a FaultInjector (net/fault.h) installs itself here.
  void SetFaultHook(FaultHook hook) { fault_hook_ = std::move(hook); }
  /// Installs (or clears) the hook that starts each transmitted copy's
  /// front half (see PorygonSystem). The network cancels a copy's job once
  /// the copy is delivered or dropped, so a job never outlives its copy's
  /// payload reference.
  void SetPrepareHook(PrepareHook hook) { prepare_hook_ = std::move(hook); }

  /// Base one-way propagation delay and uniform jitter added on top.
  void SetLatency(SimTime base, SimTime jitter) {
    latency_base_ = base;
    latency_jitter_ = jitter;
  }

  /// Sends `msg` (from/to filled by caller); timing per the class comment.
  void Send(Message msg);
  /// Builds and sends one message; a `wire_size` of 0 bills the payload
  /// size. A fan-out passes the same `payload` to every recipient, so the
  /// encoding is built and held once; a fresh encoding (an rvalue Bytes)
  /// converts in place.
  void Send(NodeId from, NodeId to, uint16_t kind, SharedBytes payload,
            size_t wire_size = 0, obs::TraceContext trace = {}) {
    Send(Message{from, to, kind, std::move(payload), wire_size, trace, {}});
  }

  /// Marks a node offline (drops traffic both ways) — churn experiments.
  void SetCrashed(NodeId node, bool crashed);
  bool IsCrashed(NodeId node) const { return nodes_[node].crashed; }

  /// Cumulative link ledger for one node; window readers (the per-round
  /// critical-path analyzer) snapshot this and difference snapshots.
  const LinkActivity& ActivityFor(NodeId node) const {
    return nodes_[node].activity;
  }
  size_t node_count() const { return nodes_.size(); }
  EventQueue* events() { return events_; }
  SimTime now() const { return events_->now(); }

  uint64_t messages_dropped() const { return messages_dropped_; }

  /// In-flight messages currently bound for nodes of `role` (sent, not yet
  /// delivered or dropped) and the high-watermark since the last reset.
  uint64_t InflightFor(const std::string& role) const;
  uint64_t InflightHwmFor(const std::string& role) const;
  /// Re-bases every role's in-flight high-watermark to the current
  /// in-flight level (round-windowed gauges: the round driver calls this
  /// at each round start) and refreshes the net.inflight_hwm gauges.
  void ResetInflightHighWatermarks();

 private:
  struct NodeState {
    LinkSpec link;
    Handler handler;
    bool crashed = false;
    SimTime uplink_free_at = 0;
    SimTime downlink_free_at = 0;
    LinkActivity activity;
    uint32_t class_idx = 0;
    uint32_t role_idx = 0;
  };

  /// Registry counters for one (node role, message kind) pair, resolved
  /// once and cached so the per-message cost is a map probe + increments.
  struct KindCounters {
    obs::Counter* sent_bytes = nullptr;
    obs::Counter* recv_bytes = nullptr;
    obs::Counter* sent_messages = nullptr;
    obs::Counter* recv_messages = nullptr;
    obs::Counter* uplink_queue_us = nullptr;
    obs::Counter* uplink_busy_us = nullptr;
    obs::Counter* downlink_queue_us = nullptr;
    obs::Counter* downlink_busy_us = nullptr;
  };

  KindCounters& CountersFor(const NodeState& node, uint16_t kind);
  uint32_t InternRole(const std::string& role);
  /// Gauge for one role's in-flight high-watermark, cached per role.
  obs::Gauge* InflightGauge(uint32_t role_idx);
  void NoteInflight(uint32_t role_idx, int64_t delta);

  /// One-copy transmission (uplink/latency/downlink modeling); `Send` calls
  /// it once, or twice when the fault hook asked for duplication (both
  /// copies share the payload).
  void Transmit(Message msg, SimTime extra_delay);
  /// Counts one drop: the aggregate plus the reason-labelled counter.
  void Drop(obs::Counter* reason_counter);
  /// A copy is done (delivered or dropped): its job, if any, is dropped
  /// unrun or waited for, and releases what it captured.
  static void Settle(const Message& msg);

  EventQueue* events_;
  Rng rng_;
  std::vector<NodeState> nodes_;
  std::vector<std::string> classes_;
  std::vector<std::string> roles_;
  std::vector<uint64_t> inflight_;      // Per role, currently in flight.
  std::vector<uint64_t> inflight_hwm_;  // Per role, since last reset.
  std::vector<obs::Gauge*> inflight_gauges_;  // Per role (lazy, nullable).
  FaultHook fault_hook_;
  PrepareHook prepare_hook_;
  SimTime latency_base_ = FromMillis(0.5);  // Paper: 0.5 ms node<->storage.
  SimTime latency_jitter_ = 0;
  uint64_t messages_dropped_ = 0;

  obs::MetricsRegistry* metrics_ = nullptr;
  std::function<std::string(uint16_t)> kind_name_;
  std::function<std::string(uint16_t)> phase_name_;
  // net.dropped_messages is labelled by reason so fault experiments can
  // attribute loss; messages_dropped() stays the cross-reason aggregate.
  obs::Counter* dropped_sender_crashed_ = nullptr;
  obs::Counter* dropped_receiver_crashed_ = nullptr;
  obs::Counter* dropped_fault_ = nullptr;
  obs::Counter* delivered_counter_ = nullptr;
  obs::Histogram* queue_up_hist_ = nullptr;
  obs::Histogram* queue_down_hist_ = nullptr;
  std::unordered_map<uint32_t, KindCounters> counter_cache_;
};

}  // namespace porygon::net

#endif  // PORYGON_NET_NETWORK_H_
