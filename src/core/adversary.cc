#include "core/adversary.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/clause.h"

namespace porygon::core {

namespace {

constexpr clause::Named<AdvStrategy> kStrategies[] = {
    {AdvStrategy::kHonest, "honest"},
    {AdvStrategy::kSilent, "silent"},
    {AdvStrategy::kEquivocate, "equivocate"},
    {AdvStrategy::kForgeWitness, "forge-witness"},
    {AdvStrategy::kTamperExec, "tamper-exec"},
    {AdvStrategy::kWithhold, "withhold"},
    {AdvStrategy::kCensor, "censor"},
    {AdvStrategy::kTamperState, "tamper-state"},
    {AdvStrategy::kStaleReply, "stale-reply"},
};

}  // namespace

const char* AdvStrategyName(AdvStrategy s) {
  return clause::NameOf(kStrategies, s);
}

bool IsStatelessStrategy(AdvStrategy s) {
  return s == AdvStrategy::kSilent || s == AdvStrategy::kEquivocate ||
         s == AdvStrategy::kForgeWitness || s == AdvStrategy::kTamperExec;
}

bool IsStorageStrategy(AdvStrategy s) {
  return s == AdvStrategy::kWithhold || s == AdvStrategy::kCensor ||
         s == AdvStrategy::kTamperState || s == AdvStrategy::kStaleReply;
}

Result<AdversarySpec> AdversarySpec::Parse(const std::string& spec) {
  AdversarySpec out;
  bool have_alpha = false;
  bool have_beta = false;
  for (const clause::Clause& c : clause::Split(spec)) {
    bool ok = false;
    if (c.key == "stateless") {
      ok = clause::FromName(kStrategies, c.value, &out.stateless) &&
           IsStatelessStrategy(out.stateless);
    } else if (c.key == "storage") {
      ok = clause::FromName(kStrategies, c.value, &out.storage) &&
           IsStorageStrategy(out.storage);
    } else if (c.key == "alpha") {
      ok = clause::ParseReal(c.value, &out.alpha, 0, 1);
      have_alpha = true;
    } else if (c.key == "beta") {
      ok = clause::ParseReal(c.value, &out.beta, 0, 1);
      have_beta = true;
    } else if (c.key == "seed") {
      ok = clause::ParseU64(c.value, &out.seed);
    }
    if (!ok) return clause::Bad("adversary", c.text);
  }
  // A strategy clause without an explicit fraction runs at the paper's
  // corruption bound (§III-B): α = 1/4, β = 1/2.
  if (out.stateless != AdvStrategy::kHonest && !have_alpha) out.alpha = 0.25;
  if (out.storage != AdvStrategy::kHonest && !have_beta) out.beta = 0.5;
  return out;
}

std::string AdversarySpec::ToString() const {
  std::string s;
  auto append = [&s](const std::string& clause) {
    if (!s.empty()) s += ',';
    s += clause;
  };
  if (stateless != AdvStrategy::kHonest) {
    append(std::string("stateless:") + AdvStrategyName(stateless));
    append("alpha:" + clause::FormatG(alpha));
  }
  if (storage != AdvStrategy::kHonest) {
    append(std::string("storage:") + AdvStrategyName(storage));
    append("beta:" + clause::FormatG(beta));
  }
  append("seed:" + std::to_string(seed));
  return s;
}

AdversaryController::AdversaryController(AdversarySpec spec,
                                         obs::MetricsRegistry* registry,
                                         obs::Tracer* tracer)
    : spec_(spec), tracer_(tracer) {
  if (registry == nullptr) return;
  // Evidence counters are registered unconditionally: the detection
  // paths are always on, and a clean run exporting zeros is itself a
  // meaningful statement.
  evidence_equivocation_ =
      registry->GetCounter("adversary.evidence", {{"type", "equivocation"}});
  evidence_relay_equivocation_ = registry->GetCounter(
      "adversary.evidence", {{"type", "relay_equivocation"}});
  evidence_divergent_exec_ = registry->GetCounter(
      "adversary.evidence", {{"type", "divergent_exec_result"}});
  if (spec_.stateless != AdvStrategy::kHonest) {
    stateless_actions_ = registry->GetCounter(
        "adversary.actions", {{"strategy", AdvStrategyName(spec_.stateless)}});
  }
  if (spec_.storage != AdvStrategy::kHonest) {
    storage_actions_ = registry->GetCounter(
        "adversary.actions", {{"strategy", AdvStrategyName(spec_.storage)}});
  }
}

std::vector<AdvStrategy> AdversaryController::PlaceStorage(int count) const {
  std::vector<AdvStrategy> out(static_cast<size_t>(count),
                               AdvStrategy::kHonest);
  if (spec_.storage == AdvStrategy::kHonest) return out;
  // Lowest indices first: storage 0 is every stateless node's initial
  // primary, so this is the most damaging placement of the budget.
  int corrupted = static_cast<int>(static_cast<double>(count) * spec_.beta);
  for (int i = 0; i < corrupted && i < count; ++i) out[i] = spec_.storage;
  return out;
}

std::vector<AdvStrategy> AdversaryController::PlaceStateless(
    const std::vector<int>& order, int oc_size, int leader_idx,
    uint64_t epoch) const {
  std::vector<AdvStrategy> out(order.size(), AdvStrategy::kHonest);
  if (spec_.stateless == AdvStrategy::kHonest || order.empty()) return out;
  const int budget =
      static_cast<int>(static_cast<double>(order.size()) * spec_.alpha);
  // The OC gets its proportional share of the corruption budget first —
  // that is where equivocation and tampered-result attacks bite. The
  // leader is exempt so the honest proposal stream (and thus the chain)
  // is byte-comparable against the adversary-free run.
  const int oc_budget = std::min(
      budget, static_cast<int>(static_cast<double>(oc_size) * spec_.alpha));
  int placed = 0;
  for (int i = 0; i < oc_size && i < static_cast<int>(order.size()) &&
                  placed < oc_budget;
       ++i) {
    if (order[i] == leader_idx) continue;
    out[static_cast<size_t>(order[i])] = spec_.stateless;
    ++placed;
  }
  // Remainder lands uniformly on non-OC nodes via the spec's private
  // placement stream (partial Fisher-Yates) — independent of the system
  // RNG, so enabling an adversary never re-deals protocol randomness.
  // The epoch ordinal is folded in so every committee reconfiguration
  // re-deals placement; epoch 0 keeps the historical genesis stream.
  std::vector<int> rest(order.begin() + std::min<size_t>(oc_size, order.size()),
                        order.end());
  Rng rng(spec_.seed ^ 0x5e1ec700u ^ (epoch * 0x9e3779b97f4a7c15ull));
  for (size_t i = 0; i < rest.size() && placed < budget; ++i) {
    size_t j = i + rng.NextBelow(rest.size() - i);
    std::swap(rest[i], rest[j]);
    out[static_cast<size_t>(rest[i])] = spec_.stateless;
    ++placed;
  }
  return out;
}

crypto::Hash256 AdversaryController::ForgedValue(const std::string& domain,
                                                 uint64_t a, uint64_t b,
                                                 uint64_t c) const {
  // Pure hashing (no RNG): forged content computed inside message
  // handlers must be invariant to worker-thread scheduling.
  crypto::Sha256 h;
  const std::string tag = "porygon.adversary." + domain;
  h.Update(std::string_view(tag));
  uint8_t buf[32];
  const uint64_t words[4] = {a, b, c, spec_.seed};
  for (int w = 0; w < 4; ++w) StoreLittleEndian64(buf + w * 8, words[w]);
  h.Update(ByteView(buf, sizeof(buf)));
  return h.Finish();
}

crypto::Signature AdversaryController::ForgedSignature(
    const std::string& domain, uint64_t a, uint64_t b) const {
  crypto::Hash256 lo = ForgedValue(domain, a, b, 0);
  crypto::Hash256 hi = ForgedValue(domain, a, b, 1);
  crypto::Signature sig;
  std::memcpy(sig.data(), lo.data(), 32);
  std::memcpy(sig.data() + 32, hi.data(), 32);
  return sig;
}

void AdversaryController::NoteAction(AdvStrategy strategy, const char* what,
                                     const std::string& node, bool trace) {
  ++actions_;
  obs::Counter* counter =
      IsStorageStrategy(strategy) ? storage_actions_ : stateless_actions_;
  if (counter != nullptr) counter->Increment();
  if (trace && tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Instant(tracer_->AdversaryContext(), what, node);
  }
}

void AdversaryController::NoteEvidence(const char* type,
                                       const std::string& node) {
  ++evidence_;
  obs::Counter* counter = evidence_divergent_exec_;
  if (std::strcmp(type, "equivocation") == 0) {
    counter = evidence_equivocation_;
  } else if (std::strcmp(type, "relay_equivocation") == 0) {
    counter = evidence_relay_equivocation_;
  }
  if (counter != nullptr) counter->Increment();
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Instant(tracer_->AdversaryContext(), type, node);
  }
}

}  // namespace porygon::core
