#include "net/fault.h"

#include "common/clause.h"

namespace porygon::net {

Result<FaultPlan> FaultPlan::Parse(const std::string& spec) {
  FaultPlan plan;
  // A single wildcard link fault accumulates the loss/dup/jitter clauses.
  LinkFault all;
  bool have_all = false;
  for (const clause::Clause& c : clause::Split(spec)) {
    bool ok = false;
    if (c.key == "loss" || c.key == "dup") {
      ok = clause::ParseReal(
          c.value, c.key == "loss" ? &all.loss : &all.duplicate, 0, 1);
      have_all = true;
    } else if (c.key == "jitter") {
      uint64_t us = 0;
      ok = clause::ParseU64(c.value, &us) &&
           us < static_cast<uint64_t>(kSimTimeNever);
      all.extra_delay_max = static_cast<SimTime>(us);
      have_all = true;
    } else if (c.key == "crash" || c.key == "recover") {
      const clause::Clause at = clause::Cut(c.value);
      uint64_t node = 0;
      double at_s = 0;
      ok = clause::ParseU64(at.key, &node) && node < kInvalidNode &&
           clause::ParseReal(at.value, &at_s, 0);
      plan.crashes.push_back(
          {static_cast<NodeId>(node), FromSeconds(at_s), c.key == "recover"});
    } else if (c.key == "seed") {
      ok = clause::ParseU64(c.value, &plan.seed);
    }
    if (!ok) return clause::Bad("fault", c.text);
  }
  if (have_all) plan.link_faults.push_back(all);
  return plan;
}

FaultInjector::FaultInjector(FaultPlan plan, SimNetwork* network,
                             obs::MetricsRegistry* registry,
                             obs::Tracer* tracer, CrashHandler on_crash)
    : plan_(std::move(plan)),
      network_(network),
      tracer_(tracer),
      on_crash_(std::move(on_crash)),
      loss_rng_(plan_.seed ^ 0x10551055u),
      dup_rng_(plan_.seed ^ 0xd0b1d0b1u),
      delay_rng_(plan_.seed ^ 0xde1aede1u) {
  if (registry != nullptr) {
    loss_counter_ =
        registry->GetCounter("net.fault.injected", {{"type", "loss"}});
    dup_counter_ =
        registry->GetCounter("net.fault.injected", {{"type", "duplicate"}});
    delay_counter_ =
        registry->GetCounter("net.fault.injected", {{"type", "delay"}});
    partition_counter_ =
        registry->GetCounter("net.fault.injected", {{"type", "partition"}});
    crash_counter_ =
        registry->GetCounter("net.fault.events", {{"type", "crash"}});
    recover_counter_ =
        registry->GetCounter("net.fault.events", {{"type", "recover"}});
  }
  network_->SetFaultHook(
      [this](const Message& msg) { return Decide(msg); });
  for (const FaultPlan::CrashEvent& ev : plan_.crashes) {
    network_->events()->ScheduleAt(ev.at, [this, ev] {
      EmitFault(ev.recover ? "recover" : "crash",
                ev.recover ? recover_counter_ : crash_counter_);
      if (on_crash_) on_crash_(ev.node, !ev.recover);
    });
  }
}

FaultInjector::~FaultInjector() {
  if (network_ != nullptr) network_->SetFaultHook(nullptr);
}

bool FaultInjector::Partitioned(NodeId a, NodeId b, SimTime now) const {
  auto contains = [](const std::vector<NodeId>& group, NodeId id) {
    for (NodeId n : group) {
      if (n == id) return true;
    }
    return false;
  };
  for (const FaultPlan::Partition& p : plan_.partitions) {
    if (now < p.start || now >= p.end) continue;
    if ((contains(p.group_a, a) && contains(p.group_b, b)) ||
        (contains(p.group_a, b) && contains(p.group_b, a))) {
      return true;
    }
  }
  return false;
}

void FaultInjector::EmitFault(const char* type, obs::Counter* counter) {
  if (counter != nullptr) counter->Increment();
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Instant(tracer_->FaultContext(), type, "fault_injector");
  }
}

FaultDecision FaultInjector::Decide(const Message& msg) {
  FaultDecision decision;
  const SimTime now = network_->now();
  if (Partitioned(msg.from, msg.to, now)) {
    ++injected_drops_;
    EmitFault("partition", partition_counter_);
    decision.drop = true;
    return decision;
  }
  for (const FaultPlan::LinkFault& lf : plan_.link_faults) {
    if (now < lf.start || now >= lf.end) continue;
    if (lf.from != kInvalidNode && lf.from != msg.from) continue;
    if (lf.to != kInvalidNode && lf.to != msg.to) continue;
    if (lf.loss > 0 && loss_rng_.NextBernoulli(lf.loss)) {
      ++injected_drops_;
      EmitFault("loss", loss_counter_);
      decision.drop = true;
      return decision;
    }
    if (lf.duplicate > 0 && dup_rng_.NextBernoulli(lf.duplicate)) {
      ++injected_duplicates_;
      EmitFault("duplicate", dup_counter_);
      decision.duplicate = true;
    }
    if (lf.extra_delay_max > 0) {
      decision.extra_delay = static_cast<SimTime>(delay_rng_.NextBelow(
          static_cast<uint64_t>(lf.extra_delay_max) + 1));
      if (decision.extra_delay > 0) {
        ++injected_delays_;
        EmitFault("delay", delay_counter_);
      }
    }
    break;  // First matching active entry applies.
  }
  return decision;
}

}  // namespace porygon::net
