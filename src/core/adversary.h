#ifndef PORYGON_CORE_ADVERSARY_H_
#define PORYGON_CORE_ADVERSARY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "crypto/provider.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace porygon::core {

/// Per-node adversary strategy. The paper's §III-B model bounds the
/// *fraction* of corrupted nodes (α ≤ 1/4 stateless, β ≤ 1/2 storage);
/// this enum names *how* a corrupted node misbehaves. kHonest is the
/// absence of a strategy, so actors can hold an AdvStrategy directly.
enum class AdvStrategy : uint8_t {
  kHonest = 0,
  // Stateless-node strategies.
  kSilent,        ///< Drops every protocol message (legacy Byzantine-silent).
  kEquivocate,    ///< Casts conflicting BA* votes for the same (step, kind).
  kForgeWitness,  ///< Uploads forged / garbage-signed witness proofs.
  kTamperExec,    ///< Broadcasts tampered execution results.
  // Storage-node strategies.
  kWithhold,      ///< Withholds block bodies, relays, and gossip (legacy).
  kCensor,        ///< Drops routed stateless->OC relay traffic.
  kTamperState,   ///< Corrupts state-read replies (values, not proofs).
  kStaleReply,    ///< Answers resyncs with the genesis tip.
};

/// Stable lowercase name used in the `--adversary=` grammar and as the
/// `strategy` label on `adversary.actions` counters.
const char* AdvStrategyName(AdvStrategy s);

bool IsStatelessStrategy(AdvStrategy s);
bool IsStorageStrategy(AdvStrategy s);

/// Declarative description of one run's active adversary. Like
/// net::FaultPlan, a spec is data: parsed from a CLI string, built
/// programmatically in tests, logged, and replayed. All adversarial
/// randomness derives from the spec's own seed, never from the system
/// RNG, so same system seed + same spec replays byte-identically.
struct AdversarySpec {
  AdvStrategy stateless = AdvStrategy::kHonest;
  AdvStrategy storage = AdvStrategy::kHonest;
  /// Fraction of stateless nodes corrupted with `stateless`. The paper's
  /// bound is α ≤ 1/4; SystemOptions::Validate rejects larger values.
  double alpha = 0.0;
  /// Fraction of storage nodes corrupted with `storage` (β ≤ 1/2).
  double beta = 0.0;
  /// Seed for the adversary's private RNG streams (placement, nothing
  /// else — forged *content* is pure hashing so thread-pool scheduling
  /// can never reorder draws).
  uint64_t seed = 0xadbu;

  bool empty() const {
    return stateless == AdvStrategy::kHonest &&
           storage == AdvStrategy::kHonest;
  }

  /// Parses a CLI spec of comma-separated clauses:
  ///
  ///   stateless:<silent|equivocate|forge-witness|tamper-exec>
  ///   storage:<withhold|censor|tamper-state|stale-reply>
  ///   alpha:<f>   corrupted stateless fraction (default 0.25 when a
  ///               stateless strategy is named)
  ///   beta:<f>    corrupted storage fraction (default 0.5 when a
  ///               storage strategy is named)
  ///   seed:<n>    adversary RNG seed
  ///
  /// e.g. "stateless:equivocate,alpha:0.25" or
  /// "storage:tamper-state,beta:0.5,seed:9". Returns kInvalidArgument
  /// naming the bad clause.
  static Result<AdversarySpec> Parse(const std::string& spec);

  /// Canonical round-trippable form (Parse(ToString()) == *this).
  std::string ToString() const;
};

/// Owns one run's adversarial state: which nodes are corrupted, the
/// forged-content hash domain, and the `adversary.*` observability
/// surface (action/evidence counters + the Perfetto adversary lane).
/// Constructed by PorygonSystem before any actors; inert when the spec
/// is empty.
class AdversaryController {
 public:
  AdversaryController(AdversarySpec spec, obs::MetricsRegistry* registry,
                      obs::Tracer* tracer);

  AdversaryController(const AdversaryController&) = delete;
  AdversaryController& operator=(const AdversaryController&) = delete;

  const AdversarySpec& spec() const { return spec_; }
  bool active() const { return !spec_.empty(); }

  /// Strategy for each storage node index in [0, count): the lowest
  /// floor(beta * count) indices are corrupted. Lowest-first is the
  /// worst case — storage 0 is every stateless node's initial primary.
  std::vector<AdvStrategy> PlaceStorage(int count) const;

  /// Strategy per stateless node index. `order` is the node indices
  /// sorted ascending by sortition for the draw in force (genesis, or an
  /// epoch boundary's re-draw — see PorygonSystem::SeatOc; the
  /// first oc_size entries form the ordering committee); `leader_idx` is
  /// never corrupted so the honest-leader chain is byte-comparable to the
  /// clean run. The OC share of the budget (floor(alpha * oc_size))
  /// corrupts the lowest-sorted non-leader OC members; the remainder is
  /// spread over non-OC nodes by the spec's private placement RNG.
  /// `epoch` is mixed into that private stream so each reconfiguration
  /// re-deals placement (epoch 0 reproduces the genesis placement of
  /// builds that predate epochs); the budget bounds (alpha, the leader
  /// exemption) hold for every epoch value.
  std::vector<AdvStrategy> PlaceStateless(const std::vector<int>& order,
                                          int oc_size, int leader_idx,
                                          uint64_t epoch = 0) const;

  /// Deterministic forged content: a hash over a domain tag, up to three
  /// ordinals, and the spec seed. Pure function — safe to call from
  /// worker-threaded message handlers without perturbing any RNG.
  crypto::Hash256 ForgedValue(const std::string& domain, uint64_t a = 0,
                              uint64_t b = 0, uint64_t c = 0) const;

  /// 64-byte garbage signature from two ForgedValue halves. Never valid
  /// under any registered key.
  crypto::Signature ForgedSignature(const std::string& domain, uint64_t a = 0,
                                    uint64_t b = 0) const;

  /// Records one adversarial action: increments
  /// `adversary.actions{strategy}` and (if `trace`) drops an instant
  /// into the adversary trace lane. High-frequency strategies (silent,
  /// censor) pass trace=false to keep the bounded span buffer for
  /// lower-rate, higher-signal events.
  void NoteAction(AdvStrategy strategy, const char* what,
                  const std::string& node, bool trace = true);

  /// Records one piece of protocol-side evidence of misbehavior
  /// (`type` is "equivocation", "relay_equivocation", or
  /// "divergent_exec_result"): increments `adversary.evidence{type}` plus
  /// the adversary lane. Called by the *honest* detection paths, so it
  /// stays live even when this controller is inactive (count is then
  /// provably zero).
  void NoteEvidence(const char* type, const std::string& node);

  uint64_t actions() const { return actions_; }
  uint64_t evidence() const { return evidence_; }

 private:
  AdversarySpec spec_;
  obs::Tracer* tracer_;

  uint64_t actions_ = 0;
  uint64_t evidence_ = 0;

  obs::Counter* stateless_actions_ = nullptr;
  obs::Counter* storage_actions_ = nullptr;
  obs::Counter* evidence_equivocation_ = nullptr;
  obs::Counter* evidence_relay_equivocation_ = nullptr;
  obs::Counter* evidence_divergent_exec_ = nullptr;
};

}  // namespace porygon::core

#endif  // PORYGON_CORE_ADVERSARY_H_
