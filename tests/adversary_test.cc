// Active Byzantine adversary coverage (§III-B): spec grammar, option
// validation at the paper's corruption bounds, and — for every strategy at
// α = 1/4 / β = 1/2 — safety (honest nodes commit the byte-identical chain
// and final GlobalRoot of the adversary-free same-seed run), liveness,
// evidence collection, and export determinism across seeds and threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/adversary.h"
#include "core/coordinator.h"
#include "core/system.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "workload/soak.h"

namespace porygon::core {
namespace {

SystemOptions Opts() {
  SystemOptions opt;
  opt.params.shard_bits = 1;
  opt.params.witness_threshold = 2;
  opt.params.execution_threshold = 2;
  opt.params.block_tx_limit = 50;
  opt.params.storage_connections = 2;
  opt.num_storage_nodes = 2;
  opt.num_stateless_nodes = 26;
  opt.oc_size = 4;
  opt.seed = 7;
  return opt;
}

tx::Transaction Transfer(uint64_t from, uint64_t to, uint64_t amount,
                         uint64_t nonce) {
  tx::Transaction t;
  t.from = from;
  t.to = to;
  t.amount = amount;
  t.nonce = nonce;
  return t;
}

AdversarySpec MustParse(const std::string& spec) {
  auto parsed = AdversarySpec::Parse(spec);
  EXPECT_TRUE(parsed.ok()) << spec << ": " << parsed.status().message();
  return parsed.ok() ? *parsed : AdversarySpec{};
}

/// One deployment under `spec` (empty = honest) with a mixed intra/cross
/// workload, run for 10 rounds.
std::unique_ptr<PorygonSystem> RunAdversarial(const std::string& spec,
                                              bool faithful = false,
                                              bool trace = false,
                                              int threads = 0,
                                              int num_stateless = 26) {
  SystemOptions opt = Opts();
  opt.num_stateless_nodes = num_stateless;
  opt.faithful_execution = faithful;
  opt.trace.enabled = trace;
  opt.worker_threads = threads;
  if (!spec.empty()) opt.adversary = MustParse(spec);
  auto sys = std::make_unique<PorygonSystem>(opt);
  sys->CreateAccounts(120, 10'000);
  for (uint64_t f = 1; f <= 12; ++f) {
    // Same parity = same shard under 1 shard bit; +101 flips it.
    sys->SubmitTransaction(Transfer(f, f + 20, 1, 0));
    sys->SubmitTransaction(Transfer(f + 40, f + 101, 2, 0));
  }
  sys->Run(10, net::FromSeconds(600));
  return sys;
}

/// Safety assertions shared with the chaos-soak harness: the adversarial
/// run must commit the clean run's exact chain and final GlobalRoot,
/// replay cleanly, conserve total supply, and hold evidence only against
/// corrupted nodes.
void ExpectSameCommittedState(PorygonSystem& sys, PorygonSystem& clean) {
  workload::InvariantChecker checker;
  EXPECT_TRUE(checker.CheckSameChain(sys, clean).ok());
  EXPECT_TRUE(checker
                  .CheckRootsMatch(sys.canonical_state().GlobalRoot(),
                                   clean.canonical_state().GlobalRoot(),
                                   sys.metrics().committed_blocks())
                  .ok());
  EXPECT_TRUE(checker.CheckNoReplayMismatches(sys).ok());
  EXPECT_TRUE(checker.CheckSupplyConserved(sys).ok());
  EXPECT_TRUE(checker.CheckSupplyConserved(clean).ok());
  EXPECT_TRUE(checker.CheckEvidenceOnlyAgainstMalicious(sys).ok());
  for (const std::string& v : checker.violations()) ADD_FAILURE() << v;
}

uint64_t Rejected(const PorygonSystem& sys, const char* reason) {
  const auto* c = sys.metrics_registry().FindCounter("core.rejected",
                                                     {{"reason", reason}});
  return c == nullptr ? 0 : c->value();
}

uint64_t Evidence(const PorygonSystem& sys, const char* type) {
  const auto* c =
      sys.metrics_registry().FindCounter("adversary.evidence", {{"type", type}});
  return c == nullptr ? 0 : c->value();
}

// --- Spec grammar ---------------------------------------------------------

TEST(AdversarySpecTest, ParsesAndRoundTrips) {
  AdversarySpec spec = MustParse("stateless:equivocate,alpha:0.25,seed:9");
  EXPECT_EQ(spec.stateless, AdvStrategy::kEquivocate);
  EXPECT_EQ(spec.storage, AdvStrategy::kHonest);
  EXPECT_DOUBLE_EQ(spec.alpha, 0.25);
  EXPECT_EQ(spec.seed, 9u);

  AdversarySpec again = MustParse(spec.ToString());
  EXPECT_EQ(again.stateless, spec.stateless);
  EXPECT_EQ(again.storage, spec.storage);
  EXPECT_DOUBLE_EQ(again.alpha, spec.alpha);
  EXPECT_DOUBLE_EQ(again.beta, spec.beta);
  EXPECT_EQ(again.seed, spec.seed);

  AdversarySpec both = MustParse(
      "stateless:tamper-exec,alpha:0.2,storage:stale-reply,beta:0.4");
  EXPECT_EQ(both.stateless, AdvStrategy::kTamperExec);
  EXPECT_EQ(both.storage, AdvStrategy::kStaleReply);
  EXPECT_DOUBLE_EQ(both.beta, 0.4);
  AdversarySpec both_again = MustParse(both.ToString());
  EXPECT_EQ(both_again.storage, AdvStrategy::kStaleReply);
  EXPECT_DOUBLE_EQ(both_again.alpha, 0.2);
}

TEST(AdversarySpecTest, DefaultsToThePapersBounds) {
  AdversarySpec s = MustParse("stateless:silent");
  EXPECT_DOUBLE_EQ(s.alpha, 0.25);
  EXPECT_DOUBLE_EQ(s.beta, 0.0);

  AdversarySpec g = MustParse("storage:censor");
  EXPECT_DOUBLE_EQ(g.beta, 0.5);
  EXPECT_DOUBLE_EQ(g.alpha, 0.0);
  EXPECT_TRUE(AdversarySpec{}.empty());
  EXPECT_FALSE(g.empty());
}

TEST(AdversarySpecTest, RejectsMalformedClauses) {
  for (const char* bad : {
           "stateless:nope",       // Unknown strategy name.
           "stateless:withhold",   // Storage strategy in the stateless slot.
           "storage:equivocate",   // And vice versa.
           "alpha:2",              // Fraction outside [0,1].
           "beta:-0.1",            //
           "seed:xyz",             // Not a number.
           "bogus:1",              // Unknown key.
           "stateless",            // Missing value.
           "alpha:nan",            // Not a finite fraction.
           "seed:-1",              // Signed seed.
       }) {
    auto parsed = AdversarySpec::Parse(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_TRUE(parsed.status().IsInvalidArgument()) << bad;
  }
}

// --- Option validation at the paper's bounds (satellite) ------------------

TEST(AdversaryOptionsTest, ValidateEnforcesPaperBounds) {
  {
    // The retired fractions are rejected at any non-zero value, within the
    // paper's bounds or not; the message names their replacement.
    for (double f : {0.1, 0.25, 0.5, 0.6}) {
      SystemOptions stateless = Opts();
      stateless.malicious_stateless_fraction = f;
      SystemOptions storage = Opts();
      storage.malicious_storage_fraction = f;
      for (const SystemOptions& opt : {stateless, storage}) {
        Status st = opt.Validate();
        ASSERT_TRUE(st.IsInvalidArgument()) << f;
        EXPECT_NE(st.message().find("adversary"), std::string::npos)
            << st.message();
      }
    }
  }
  {
    // The spec enforces the paper's bounds.
    SystemOptions opt = Opts();
    opt.adversary = MustParse("stateless:silent,alpha:0.3");
    Status st = opt.Validate();
    ASSERT_TRUE(st.IsInvalidArgument());
    EXPECT_NE(st.message().find("alpha"), std::string::npos) << st.message();
    opt.adversary = MustParse("storage:censor,beta:0.6");
    st = opt.Validate();
    ASSERT_TRUE(st.IsInvalidArgument());
    EXPECT_NE(st.message().find("beta"), std::string::npos) << st.message();
    // A spec built in code skips Parse; NaN must still fail the bound.
    opt.adversary = MustParse("stateless:silent");
    opt.adversary.alpha = std::nan("");
    EXPECT_TRUE(opt.Validate().IsInvalidArgument());
    opt.adversary = MustParse("storage:censor");
    opt.adversary.beta = std::nan("");
    EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  }
  {
    // A spec beside a retired fraction is rejected too.
    SystemOptions opt = Opts();
    opt.adversary = MustParse("stateless:silent,alpha:0.1");
    opt.malicious_stateless_fraction = 0.1;
    EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  }
  {
    // The bounds themselves are admissible (α = 1/4, β = 1/2).
    SystemOptions opt = Opts();
    opt.adversary =
        MustParse("stateless:equivocate,alpha:0.25,storage:censor,beta:0.5");
    EXPECT_TRUE(opt.Validate().ok()) << opt.Validate().message();
  }
}

// --- Network drop filter (satellite) --------------------------------------

TEST(AdversaryNetTest, DropFilterCountsReasonLabelledDrops) {
  PorygonSystem sys(Opts());
  sys.CreateAccounts(40, 10'000);
  uint64_t filtered = 0;
  sys.network()->SetDropFilter([&](const net::Message& msg) {
    if (msg.kind == kMsgWitnessUpload && filtered < 5) {
      ++filtered;
      return true;
    }
    return false;
  });
  for (uint64_t f = 1; f <= 8; ++f) {
    sys.SubmitTransaction(Transfer(f, f + 20, 1, 0));
  }
  sys.Run(4, net::FromSeconds(600));
  EXPECT_EQ(filtered, 5u);
  const auto* dropped = sys.metrics_registry()->FindCounter(
      "net.dropped_messages", {{"reason", "drop_filter"}});
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->value(), filtered);
  EXPECT_EQ(sys.metrics().replay_mismatches(), 0u);
}

// --- Safety: chain identity under every strategy --------------------------

TEST(AdversaryTest, HonestChainSurvivesEveryStrategyAtPaperBounds) {
  // §III-B's safety argument assumes every EC cohort keeps an honest
  // majority (the paper sizes committees so this holds with high
  // probability). 26 nodes split into per-shard cohorts of 3-4, where a
  // corrupted pair can outnumber a lone honest member; 38 keeps cohorts
  // large enough that α = 1/4 leaves an honest majority everywhere.
  constexpr int kNodes = 38;
  auto clean = RunAdversarial("", false, false, 0, kNodes);
  const uint64_t clean_blocks = clean->metrics().committed_blocks();
  ASSERT_EQ(clean_blocks, 10u);
  ASSERT_GT(clean->metrics().committed_txs(), 0u);
  EXPECT_EQ(clean->adversary()->actions(), 0u);

  for (const char* spec : {
           "stateless:silent,alpha:0.25",
           "stateless:equivocate,alpha:0.25",
           "stateless:forge-witness,alpha:0.25",
           "stateless:tamper-exec,alpha:0.25",
           "storage:censor,beta:0.5",
       }) {
    SCOPED_TRACE(spec);
    auto sys = RunAdversarial(spec, false, false, 0, kNodes);
    // Liveness: every round still closes. Safety: the honest nodes commit
    // exactly the clean run's blocks and converge on its final state root.
    EXPECT_EQ(sys->metrics().committed_blocks(), clean_blocks);
    ExpectSameCommittedState(*sys, *clean);
    // The adversary really did act; it just didn't get anywhere.
    EXPECT_GT(sys->adversary()->actions(), 0u);
  }
}

TEST(AdversaryTest, EquivocationLeavesAttributableEvidence) {
  auto sys = RunAdversarial("stateless:equivocate,alpha:0.25");
  ASSERT_GE(sys->equivocation_evidence().size(), 1u);
  EXPECT_GT(Evidence(*sys, "equivocation"), 0u);
  EXPECT_GT(sys->adversary()->evidence(), 0u);

  // The record is self-contained and attributable: both votes are for the
  // same (instance, step, kind), carry different values, and verify under
  // the equivocator's own key — enough to convince a third party.
  const auto& ev = sys->equivocation_evidence().front();
  EXPECT_EQ(ev.first.instance, ev.second.instance);
  EXPECT_EQ(ev.first.step, ev.second.step);
  EXPECT_EQ(ev.first.kind, ev.second.kind);
  EXPECT_EQ(ev.first.voter, ev.second.voter);
  EXPECT_NE(ev.first.value, ev.second.value);
  EXPECT_TRUE(sys->provider()->Verify(ev.first.voter, ev.first.SigningBytes(),
                                      ev.first.signature));
  EXPECT_TRUE(sys->provider()->Verify(ev.second.voter,
                                      ev.second.SigningBytes(),
                                      ev.second.signature));
}

TEST(AdversaryTest, ForgedWitnessUploadsAreRejectedAndCounted) {
  auto sys = RunAdversarial("stateless:forge-witness,alpha:0.25");
  // Garbage signatures over real block ids fail verification; uploads for
  // fabricated ("ghost") block ids never match a stored block.
  EXPECT_GT(Rejected(*sys, "bad_witness_sig"), 0u);
  EXPECT_GT(Rejected(*sys, "unknown_block"), 0u);
  EXPECT_GT(sys->adversary()->actions(), 0u);
}

TEST(AdversaryTest, TamperedExecResultsLeaveDivergenceEvidence) {
  auto sys = RunAdversarial("stateless:tamper-exec,alpha:0.25");
  // Honest OC members see conflicting result keys for the same
  // (round, shard) and record the divergence; the honest supermajority
  // outvotes the tampered root at aggregation.
  EXPECT_GT(Evidence(*sys, "divergent_exec_result"), 0u);
  EXPECT_GT(sys->adversary()->evidence(), 0u);
}

// --- Storage-side strategies ----------------------------------------------

TEST(AdversaryTest, TamperedStateRepliesFailTheProofCrossCheck) {
  // Faithful mode: ESC members rebuild PartialStates from storage replies,
  // cross-checking every entry's Merkle proof against committed roots. A
  // tampering storage node doctors values but cannot forge proofs, so the
  // reply is rejected and re-requested from an honest connection.
  auto clean = RunAdversarial("", /*faithful=*/true);
  auto sys = RunAdversarial("storage:tamper-state,beta:0.5", /*faithful=*/true);
  EXPECT_GT(Rejected(*sys, "bad_state_proof"), 0u);
  EXPECT_GT(sys->adversary()->actions(), 0u);
  EXPECT_EQ(sys->metrics().committed_blocks(),
            clean->metrics().committed_blocks());
  ExpectSameCommittedState(*sys, *clean);
}

TEST(AdversaryTest, FastModeStateRepliesCarryOnlyTheirBill) {
  // Fast mode: an ESC member adopts the canonical results and reads nothing
  // in its state reply, so the reply carries no entries and no proofs, only
  // its bill: a 12-byte head plus a 17-byte entry and a 128-byte modeled
  // multiproof per requested account. A tampering storage node has nothing
  // to doctor, and still counts each reply it would have doctored.
  SystemOptions opt = Opts();
  opt.adversary = MustParse("storage:tamper-state,beta:0.5");
  PorygonSystem sys(opt);
  std::set<net::NodeId> tamperers;
  const std::vector<AdvStrategy> placement =
      sys.adversary()->PlaceStorage(opt.num_storage_nodes);
  for (int i = 0; i < opt.num_storage_nodes; ++i) {
    if (placement[i] == AdvStrategy::kTamperState) {
      tamperers.insert(sys.storage_node(i)->net_id());
    }
  }
  ASSERT_FALSE(tamperers.empty());
  // Accounts asked for, by (requester, round, shard).
  std::map<std::tuple<net::NodeId, uint64_t, uint32_t>, size_t> asked;
  uint64_t replies = 0, tampered = 0;
  sys.network()->SetDropFilter([&](const net::Message& m) {
    if (m.kind == kMsgStateRequest) {
      auto req = StateRequest::Decode(m.payload);
      EXPECT_TRUE(req.ok());
      if (req.ok()) {
        asked[{m.from, req->round, req->shard}] = req->accounts.size();
      }
    } else if (m.kind == kMsgStateResponse) {
      auto resp = StateResponse::Decode(m.payload);
      EXPECT_TRUE(resp.ok());
      if (!resp.ok()) return false;
      EXPECT_TRUE(resp->entries.empty());
      EXPECT_TRUE(resp->proofs.empty());
      auto it = asked.find({m.to, resp->round, resp->shard});
      EXPECT_NE(it, asked.end());
      if (it == asked.end()) return false;
      EXPECT_GT(it->second, 0u);
      EXPECT_EQ(m.wire_size, 12 + 145 * it->second);
      EXPECT_EQ(resp->WireSize(), m.wire_size);
      ++replies;
      if (tamperers.count(m.from) > 0) ++tampered;
    }
    return false;
  });
  sys.CreateAccounts(120, 10'000);
  for (uint64_t f = 1; f <= 12; ++f) {
    sys.SubmitTransaction(Transfer(f, f + 20, 1, 0));
    sys.SubmitTransaction(Transfer(f + 40, f + 101, 2, 0));
  }
  sys.Run(10, net::FromSeconds(600));
  EXPECT_EQ(sys.metrics().committed_blocks(), 10u);
  EXPECT_GT(sys.metrics().committed_txs(), 0u);
  EXPECT_GT(replies, 0u);
  EXPECT_GT(tampered, 0u);
  EXPECT_EQ(sys.adversary()->actions(), tampered);
}

TEST(AdversaryTest, StaleResyncRepliesAreRejectedWithoutStalling) {
  SystemOptions opt = Opts();
  opt.adversary = MustParse("storage:stale-reply,beta:0.5");
  // Fire the round watchdog between NewRounds so nodes probe/resync often;
  // every resync answered by the stale storage node replays the genesis
  // tip, which the round-regression guard rejects.
  opt.params.storage_watchdog_us = 900'000;
  PorygonSystem sys(opt);
  sys.CreateAccounts(100, 10'000);
  for (uint64_t f = 1; f <= 10; ++f) {
    sys.SubmitTransaction(Transfer(f, f + 20, 1, 0));
  }
  sys.Run(10, net::FromSeconds(600));
  EXPECT_EQ(sys.metrics().committed_blocks(), 10u);
  EXPECT_GT(sys.metrics().committed_txs(), 0u);
  EXPECT_GT(Rejected(sys, "stale_round"), 0u);
  EXPECT_GT(sys.adversary()->actions(), 0u);
  EXPECT_EQ(sys.metrics().replay_mismatches(), 0u);
}

// --- Forged round starts ---------------------------------------------------

/// Runs the deployment for 3 rounds, has `inject` deliver a round start
/// forged by a non-OC stateless node (the committed tip, 50 rounds ahead),
/// then requires the next 5 rounds to commit with no OC member's round
/// moved past the chain.
void ExpectForgedRoundStartIgnored(
    const std::function<void(PorygonSystem&, const StatelessNodeActor&,
                             const Bytes&)>& inject) {
  PorygonSystem sys(Opts());
  sys.CreateAccounts(120, 10'000);
  for (uint64_t f = 1; f <= 12; ++f) {
    sys.SubmitTransaction(Transfer(f, f + 20, 1, 0));
  }
  sys.Run(3, net::FromSeconds(600));
  ASSERT_EQ(sys.metrics().committed_blocks(), 3u);

  const StatelessNodeActor* forger = nullptr;
  for (int i = 0; i < sys.num_stateless_nodes() && forger == nullptr; ++i) {
    if (!sys.stateless_node(i)->in_oc()) forger = sys.stateless_node(i);
  }
  ASSERT_NE(forger, nullptr);
  TipHeader forged = sys.tip();
  forged.round += 50;
  inject(sys, *forger, forged.Encode());

  sys.Run(5, sys.events()->now() + net::FromSeconds(120));
  EXPECT_EQ(sys.metrics().committed_blocks(), 8u);
  const uint64_t next_round = sys.chain().back().round + 1;
  for (int i = 0; i < sys.num_stateless_nodes(); ++i) {
    const StatelessNodeActor* node = sys.stateless_node(i);
    if (node->in_oc()) {
      EXPECT_LE(node->current_round(), next_round) << i;
    }
  }
}

TEST(AdversaryTest, StorageRelaysDropForgedRoundStarts) {
  // Relayed to the committee through the forger's own primary: storage
  // forwards only the kinds stateless nodes broadcast to the OC.
  ExpectForgedRoundStartIgnored([](PorygonSystem& sys,
                                   const StatelessNodeActor& forger,
                                   const Bytes& tip) {
    Relay relay;
    relay.target = Relay::kToOrderingCommittee;
    relay.round = forger.current_round();
    relay.inner_kind = kMsgNewRound;
    relay.inner = tip;
    sys.network()->Send(forger.net_id(), forger.primary_storage(), kMsgRelay,
                        relay.Encode());
  });
}

TEST(AdversaryTest, RoundStartsFromNonStorageSendersAreIgnored) {
  // Sent straight to every committee member: only a node's storage
  // connections may start its rounds.
  ExpectForgedRoundStartIgnored([](PorygonSystem& sys,
                                   const StatelessNodeActor& forger,
                                   const Bytes& tip) {
    const SharedBytes forged = Bytes(tip);
    for (int i = 0; i < sys.num_stateless_nodes(); ++i) {
      const StatelessNodeActor* member = sys.stateless_node(i);
      if (!member->in_oc()) continue;
      sys.network()->Send(forger.net_id(), member->net_id(), kMsgNewRound,
                          forged);
    }
  });
}

// --- Cross-shard update hardening -----------------------------------------

TEST(AdversaryCoordinatorTest, UnlockedUpdatesAreDroppedFromUpdateLists) {
  CrossShardCoordinator coord(/*shard_bits=*/1);
  obs::MetricsRegistry registry;
  obs::Counter* rejected =
      registry.GetCounter("core.rejected", {{"reason", "unlocked_update"}});
  coord.set_rejected_counter(rejected);

  // Lock {2, 5} via one accepted cross-shard transaction.
  const tx::Transaction t = Transfer(2, 5, 1, 0);
  auto filtered = coord.FilterAndLock(7, {ToAccess(t, t.Id())});
  ASSERT_EQ(filtered.accepted_cross, std::vector<uint32_t>{0});
  ASSERT_TRUE(coord.IsLocked(2));
  ASSERT_TRUE(coord.IsLocked(5));

  // An S set smuggling a write to account 9 (never locked) alongside the
  // legitimate updates: the forged write is dropped, the rest routed.
  tx::StateUpdate good_a;
  good_a.account = 2;
  good_a.value.balance = 99;
  tx::StateUpdate good_b;
  good_b.account = 5;
  good_b.value.balance = 101;
  tx::StateUpdate forged;
  forged.account = 9;
  forged.value.balance = 1'000'000;
  auto lists = coord.BuildUpdateList(7, {{good_a, forged}, {good_b}});
  size_t routed = 0;
  for (const auto& shard : lists) routed += shard.size();
  EXPECT_EQ(routed, 2u);
  EXPECT_EQ(rejected->value(), 1u);

  // With no batch locked at all, every update is a replay: all dropped.
  auto none = coord.BuildUpdateList(8, {{good_a}});
  routed = 0;
  for (const auto& shard : none) routed += shard.size();
  EXPECT_EQ(routed, 0u);
  EXPECT_EQ(rejected->value(), 2u);
}

// --- Determinism ----------------------------------------------------------

TEST(AdversaryTest, SameSeedSameSpecReplaysByteIdentically) {
  const std::string spec =
      "stateless:equivocate,alpha:0.25,storage:censor,beta:0.5,seed:11";
  auto a = RunAdversarial(spec, /*faithful=*/false, /*trace=*/true);
  auto b = RunAdversarial(spec, /*faithful=*/false, /*trace=*/true);
  EXPECT_EQ(a->canonical_state().GlobalRoot(), b->canonical_state().GlobalRoot());
  EXPECT_EQ(a->metrics().ToJson(), b->metrics().ToJson());
  EXPECT_EQ(a->tracer()->ExportChromeJson(), b->tracer()->ExportChromeJson());
}

TEST(AdversaryThreadInvarianceTest, AdversarialExportsAreThreadInvariant) {
  unsetenv("PORYGON_THREADS");
  const std::string spec = "stateless:tamper-exec,alpha:0.25,seed:11";
  auto serial = RunAdversarial(spec, /*faithful=*/false, /*trace=*/true,
                               /*threads=*/0);
  auto pooled = RunAdversarial(spec, /*faithful=*/false, /*trace=*/true,
                               /*threads=*/4);
  EXPECT_EQ(serial->canonical_state().GlobalRoot(),
            pooled->canonical_state().GlobalRoot());
  EXPECT_EQ(serial->metrics().ToJson(), pooled->metrics().ToJson());
  EXPECT_EQ(serial->tracer()->ExportChromeJson(),
            pooled->tracer()->ExportChromeJson());
}

// Forged copies that the prepared front halves reject, injected mid-run by
// a storage node: exec results with a forged signature and from an
// unregistered signer at every OC member, a tx block whose body no longer
// matches its header and a proposal that does not decode at every stateless
// node, all under forged witness uploads. Each copy's front half runs on
// the pool (or inside its handler at 0 workers); the handlers count every
// rejection, and the chain tip, GlobalRoot and metrics match at 0 and 2
// workers and at PORYGON_THREADS=4.
std::unique_ptr<PorygonSystem> RunWithForgedCopies(int threads) {
  SystemOptions opt = Opts();
  opt.worker_threads = threads;
  opt.adversary = MustParse("stateless:forge-witness,alpha:0.25,seed:5");
  auto sys = std::make_unique<PorygonSystem>(opt);
  sys->CreateAccounts(120, 10'000);
  for (uint64_t f = 1; f <= 12; ++f) {
    sys->SubmitTransaction(Transfer(f, f + 20, 1, 0));
    sys->SubmitTransaction(Transfer(f + 40, f + 101, 2, 0));
  }
  sys->Run(4, net::FromSeconds(600));

  net::SimNetwork* net = sys->network();
  const net::NodeId from = sys->storage_node(0)->net_id();
  ExecResultMsg forged;
  forged.exec_round = 2;
  forged.shard = 0;
  forged.new_root = crypto::Sha256::Hash(ToBytes("forged root"));
  forged.full = true;
  forged.s_set.push_back({7, state::Account{5, 1}});
  forged.s_hash = ExecResultMsg::HashSSet(forged.s_set);
  forged.signer = sys->stateless_node(3)->public_key();
  forged.signature.fill(0x5a);
  ExecResultMsg outsider = forged;
  outsider.signer.fill(0x77);  // Not a registered identity.
  for (net::NodeId oc : sys->oc().ids) {
    net->Send(from, oc, kMsgExecResult, forged.Encode());
    net->Send(from, oc, kMsgExecResult, outsider.Encode());
  }

  // The stored block with the smallest key, one record byte flipped.
  auto& store = sys->block_store();
  auto first = std::min_element(
      store.begin(), store.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  EXPECT_NE(first, store.end());
  Bytes tampered = first->second.block.Encode();
  tampered[tampered.size() - 70] ^= 0x01;
  EXPECT_TRUE(PreparedBody::Of(tampered, sys->prepare_context()).parsed);
  EXPECT_FALSE(PreparedBody::Of(tampered, sys->prepare_context()).body_ok);
  for (int i = 0; i < sys->num_stateless_nodes(); ++i) {
    const net::NodeId to = sys->stateless_node(i)->net_id();
    net->Send(from, to, kMsgTxBlock, Bytes(tampered));
    net->Send(from, to, kMsgProposal, ToBytes("not a proposal"));
  }
  sys->Run(6, net::FromSeconds(600));
  return sys;
}

TEST(AdversaryThreadInvarianceTest, PreparedRejectionsAreThreadInvariant) {
  unsetenv("PORYGON_THREADS");
  auto serial = RunWithForgedCopies(0);
  auto pooled = RunWithForgedCopies(2);
  setenv("PORYGON_THREADS", "4", 1);
  auto env = RunWithForgedCopies(0);
  unsetenv("PORYGON_THREADS");
  ASSERT_EQ(pooled->task_pool()->thread_count(), 2);
  ASSERT_EQ(env->task_pool()->thread_count(), 4);

  EXPECT_EQ(serial->metrics().committed_blocks(), 10u);
  EXPECT_EQ(Rejected(*serial, "bad_exec_sig"), serial->oc().ids.size());
  EXPECT_EQ(Rejected(*serial, "unknown_signer"), serial->oc().ids.size());
  EXPECT_GT(Rejected(*serial, "bad_witness_sig"), 0u);
  for (PorygonSystem* other : {pooled.get(), env.get()}) {
    EXPECT_EQ(serial->chain().back().Hash(), other->chain().back().Hash());
    EXPECT_EQ(serial->canonical_state().GlobalRoot(),
              other->canonical_state().GlobalRoot());
    EXPECT_EQ(serial->metrics().ToJson(), other->metrics().ToJson());
  }
}

}  // namespace
}  // namespace porygon::core
