#ifndef PORYGON_OBS_TRACE_H_
#define PORYGON_OBS_TRACE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/sim_time.h"

namespace porygon::obs {

/// Propagated trace identity: which causal tree a piece of work belongs to
/// (`trace_id`) and which span caused it (`parent_span`). Rides on message
/// envelopes (net::Message::trace) the way real systems carry trace headers,
/// so spans recorded on different simulated nodes stitch into one tree. A
/// zero trace id means "not traced" and makes every tracing call a no-op.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;

  bool active() const { return trace_id != 0; }
};

/// One finished (or instant) span: a named sim-time interval attributed to a
/// node, linked to its parent within a trace. `start == end` marks an
/// instant event (a decision, a vote) rather than a duration.
struct Span {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span = 0;
  std::string name;
  std::string node;
  net::SimTime start = 0;
  net::SimTime end = 0;
};

/// Sim-time distributed tracer.
///
/// Two lanes of traces share one tracer:
///   - *Round lanes* (`RoundContext`): one always-on trace per protocol
///     round, holding the pipeline-phase spans (witness, ordering, BA*,
///     execution, commit) plus per-node consensus/execution spans. Round
///     lanes are how pipeline bubbles are found.
///   - *Transaction traces* (`NewTransactionTrace`): per-transaction
///     lifecycle trees (submit → witness → ordering → SSE → MSU → commit),
///     sampled — only the first `sample_transactions` submissions get a
///     trace — so a saturated run doesn't drown in per-tx spans.
///
/// Spans are stamped with simulator time via the injected clock, ids are
/// handed out by monotone counters, and the export sorts canonically, so a
/// same-seed run produces byte-identical trace JSON (the same discipline as
/// obs/export.cc). The buffer is bounded: once `max_spans` spans are
/// recorded, further spans are counted in `dropped_spans()` and discarded.
///
/// A default-constructed tracer is disabled; every recording entry point
/// checks one inline bool first, so the disabled cost is near zero.
class Tracer {
 public:
  struct Options {
    bool enabled = false;
    /// Transaction traces granted per run (first come, first sampled).
    uint64_t sample_transactions = 16;
    /// Hard cap on buffered spans (round lanes + transaction traces).
    size_t max_spans = 1 << 16;
  };
  using Clock = std::function<net::SimTime()>;

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Arms (or re-arms) the tracer. Passing options.enabled == false keeps
  /// it disabled regardless of the clock.
  void Configure(const Options& options, Clock clock);

  bool enabled() const { return enabled_; }
  net::SimTime now() const { return clock_ ? clock_() : 0; }

  /// Allocates a transaction trace, or an inactive context when disabled or
  /// past the sampling budget. Trace ids are 1-based and sequential.
  TraceContext NewTransactionTrace();

  /// The always-on lane for a protocol round (inactive when disabled).
  TraceContext RoundContext(uint64_t round) const;

  /// The always-on lane for injected faults and failover events (inactive
  /// when disabled). Exported as the "faults" process, so fault timelines
  /// sit beside the round lanes they perturb.
  TraceContext FaultContext() const {
    return enabled_ ? TraceContext{kFaultTraceId, 0} : TraceContext{};
  }

  /// The always-on lane for adversarial actions and the honest protocol's
  /// detections of them (inactive when disabled). Exported as the
  /// "adversary" process, so attack and evidence instants line up against
  /// the round lanes they target.
  TraceContext AdversaryContext() const {
    return enabled_ ? TraceContext{kAdversaryTraceId, 0} : TraceContext{};
  }

  /// Context for children of span `span_id` within `ctx`'s trace.
  static TraceContext ChildOf(const TraceContext& ctx, uint64_t span_id) {
    return TraceContext{ctx.trace_id, span_id};
  }

  /// Opens a span starting now. Returns its span id, or 0 when the span was
  /// not recorded (disabled, inactive context, or buffer full).
  uint64_t BeginSpan(const TraceContext& ctx, const char* name,
                     const std::string& node);
  /// Closes an open span at the current sim time. Unknown/0 ids are ignored.
  void EndSpan(uint64_t span_id);

  /// Records a completed span with explicit sim-time endpoints (used when a
  /// phase boundary is only known in retrospect). Returns the span id or 0.
  uint64_t RecordSpan(const TraceContext& ctx, const char* name,
                      const std::string& node, net::SimTime start,
                      net::SimTime end);

  /// Records an instant event (zero-duration span) at the current sim time.
  uint64_t Instant(const TraceContext& ctx, const char* name,
                   const std::string& node) {
    net::SimTime t = now();
    return RecordSpan(ctx, name, node, t, t);
  }

  /// Records one sample of a named counter track at the current sim time
  /// (exported as a Chrome "C" event under the "counters" process, which
  /// Perfetto renders as a stepped graph). Values are integers by contract
  /// — callers quantize (e.g. per-mille utilization) so the export stays
  /// float-free and byte-deterministic. No-op when disabled; samples share
  /// the max_spans budget (overflow counts into dropped_spans()).
  void RecordCounterSample(const std::string& track, int64_t value);

  /// One counter-track sample (see RecordCounterSample).
  struct CounterSample {
    std::string track;
    net::SimTime t = 0;
    int64_t value = 0;
  };

  /// Finished spans, in recording order. Open spans are not included.
  const std::vector<Span>& spans() const { return spans_; }
  size_t span_count() const { return spans_.size(); }
  uint64_t dropped_spans() const { return dropped_spans_; }
  /// Transaction traces allocated so far (<= sample_transactions).
  uint64_t sampled_transactions() const { return next_tx_trace_; }

  /// Serializes every finished span as Chrome trace_event JSON (the format
  /// Perfetto and chrome://tracing load): one "X" complete event per span
  /// ("i" instant events for zero-duration spans), pid = trace, tid = node,
  /// with process_name/thread_name metadata naming both. Timestamps are the
  /// integer sim-time microseconds, events appear in canonical
  /// (trace, start, span id) order, and no floating-point values are
  /// emitted, so identical span sets produce byte-identical output.
  std::string ExportChromeJson() const;

  /// Base for round-lane trace ids; rounds live far above any plausible
  /// transaction-sample budget so the id spaces never collide.
  static constexpr uint64_t kRoundTraceBase = 1'000'000'000;
  /// Fixed id of the fault lane, above every plausible round id.
  static constexpr uint64_t kFaultTraceId = 2'000'000'000;
  /// Fixed id of the adversary lane, above the fault lane.
  static constexpr uint64_t kAdversaryTraceId = 3'000'000'000;
  /// Fixed id (pid) of the counter-track process, above every lane.
  static constexpr uint64_t kCounterTraceId = 4'000'000'000;

 private:
  struct OpenSpan {
    uint64_t trace_id = 0;
    uint64_t parent_span = 0;
    std::string name;
    std::string node;
    net::SimTime start = 0;
  };

  bool enabled_ = false;
  Options options_;
  Clock clock_;
  uint64_t next_tx_trace_ = 0;
  uint64_t next_span_ = 0;
  uint64_t dropped_spans_ = 0;
  std::vector<Span> spans_;
  std::vector<CounterSample> counter_samples_;
  std::unordered_map<uint64_t, OpenSpan> open_;
};

}  // namespace porygon::obs

#endif  // PORYGON_OBS_TRACE_H_
