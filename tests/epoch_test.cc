// Epoch-based committee reconfiguration (§III-B's periodic re-formation):
// every SystemOptions::epoch_length rounds the OC is re-drawn by VRF
// sortition over the committed tip, adversary placement is re-dealt, the
// coordinator's batch locks migrate to the new leader, and the members
// re-announce over the network. These tests pin down rotation, determinism
// across seeds and thread counts, adversary bounds at every epoch, and
// crash recovery straddling a boundary.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "core/adversary.h"
#include "core/system.h"
#include "crypto/sha256.h"
#include "net/fault.h"
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

/// A deployment with `epoch_length` run for `rounds` rounds under a mixed
/// intra/cross workload (same shape as the adversary suite's driver).
std::unique_ptr<PorygonSystem> RunWithEpochs(uint64_t epoch_length,
                                             int rounds,
                                             const std::string& adversary = "",
                                             int threads = 0,
                                             bool trace = false) {
  SystemOptions opt = Opts();
  opt.epoch_length = epoch_length;
  opt.worker_threads = threads;
  opt.trace.enabled = trace;
  if (!adversary.empty()) {
    auto spec = AdversarySpec::Parse(adversary);
    EXPECT_TRUE(spec.ok()) << adversary;
    opt.adversary = *spec;
  }
  auto sys = std::make_unique<PorygonSystem>(opt);
  sys->CreateAccounts(120, 10'000);
  for (uint64_t f = 1; f <= 12; ++f) {
    sys->SubmitTransaction(Transfer(f, f + 20, 1, 0));
    sys->SubmitTransaction(Transfer(f + 40, f + 101, 2, 0));
  }
  sys->Run(rounds, net::FromSeconds(60.0 * rounds));
  return sys;
}

std::set<int> OcMembers(PorygonSystem& sys) {
  std::set<int> members;
  for (int i = 0; i < sys.num_stateless_nodes(); ++i) {
    if (sys.stateless_node(i)->in_oc()) members.insert(i);
  }
  return members;
}

uint64_t Epochs(const PorygonSystem& sys) {
  const auto* c = sys.metrics_registry().FindCounter("core.epochs", {});
  return c == nullptr ? 0 : c->value();
}

TEST(EpochTest, ValidateRejectsEpochLengthOne) {
  SystemOptions opt = Opts();
  opt.epoch_length = 1;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt.epoch_length = 0;
  EXPECT_TRUE(opt.Validate().ok());
  opt.epoch_length = 2;
  EXPECT_TRUE(opt.Validate().ok());
}

TEST(EpochTest, CommitteeRotatesAtEpochBoundaries) {
  SystemOptions opt = Opts();
  PorygonSystem genesis_probe(opt);  // Epoch-free baseline membership.
  const std::set<int> genesis_oc = OcMembers(genesis_probe);

  auto sys = RunWithEpochs(/*epoch_length=*/4, /*rounds=*/12);
  // Boundaries at rounds 4 and 8 reconfigure during the run; the round-12
  // boundary fires at the final StartRound.
  EXPECT_EQ(Epochs(*sys), 3u);
  // Liveness across the churn: every round still closed, nothing diverged.
  EXPECT_EQ(sys->metrics().committed_blocks(), 12u);
  EXPECT_EQ(sys->metrics().replay_mismatches(), 0u);
  // Membership is a fresh VRF draw over the round-12 tip — with 26
  // candidates and a 4-seat committee the draw virtually never reproduces
  // the genesis committee (and this seed's doesn't).
  EXPECT_EQ(OcMembers(*sys).size(), 4u);
  EXPECT_NE(OcMembers(*sys), genesis_oc);
  // The epoch re-announces registered with the storage layer.
  EXPECT_EQ(sys->RegisteredOcMembers(12), 4u);
  // Every OC member still agrees on one consistent chain.
  workload::InvariantChecker checker;
  EXPECT_TRUE(checker.CheckChainIntegrity(*sys).ok());
  EXPECT_TRUE(checker.CheckBoundedCommitGap(*sys).ok());
  EXPECT_TRUE(checker.CheckSupplyConserved(*sys).ok());
}

TEST(EpochTest, SameSeedSameEpochsReplayByteIdentically) {
  auto a = RunWithEpochs(4, 12, "", 0, /*trace=*/true);
  auto b = RunWithEpochs(4, 12, "", 0, /*trace=*/true);
  EXPECT_EQ(a->canonical_state().GlobalRoot(),
            b->canonical_state().GlobalRoot());
  EXPECT_EQ(a->metrics().ToJson(), b->metrics().ToJson());
  EXPECT_EQ(a->tracer()->ExportChromeJson(), b->tracer()->ExportChromeJson());
}

TEST(EpochThreadInvarianceTest, EpochExportsAreThreadInvariant) {
  unsetenv("PORYGON_THREADS");
  auto serial = RunWithEpochs(4, 12, "", /*threads=*/0, /*trace=*/true);
  auto one = RunWithEpochs(4, 12, "", /*threads=*/1, /*trace=*/true);
  auto pooled = RunWithEpochs(4, 12, "", /*threads=*/4, /*trace=*/true);
  EXPECT_EQ(serial->canonical_state().GlobalRoot(),
            one->canonical_state().GlobalRoot());
  EXPECT_EQ(serial->canonical_state().GlobalRoot(),
            pooled->canonical_state().GlobalRoot());
  EXPECT_EQ(serial->metrics().ToJson(), one->metrics().ToJson());
  EXPECT_EQ(serial->metrics().ToJson(), pooled->metrics().ToJson());
  EXPECT_EQ(serial->tracer()->ExportChromeJson(),
            pooled->tracer()->ExportChromeJson());
}

TEST(EpochTest, LeaderHandOffUnderLoadIsPinned) {
  // Two-round epochs under steady intra- and cross-shard load, with an
  // alpha = 1/4 equivocator re-dealt at every boundary: each hand-off moves
  // in-flight batch locks and pooled bundles to a new leader. The replay and
  // thread-invariance tests compare two runs of the same code, so only
  // absolute digests catch a hand-off that changes what commits.
  unsetenv("PORYGON_THREADS");
  SystemOptions opt = Opts();
  opt.epoch_length = 2;
  auto spec = AdversarySpec::Parse("stateless:equivocate,alpha:0.25");
  ASSERT_TRUE(spec.ok());
  opt.adversary = *spec;
  PorygonSystem sys(opt);
  sys.CreateAccounts(120, 10'000);

  // The shard is the low account bit: s -> s + 40 stays in s's shard and
  // s + 40 -> s + 79 crosses to the other one.
  std::map<uint64_t, uint64_t> nonces;
  auto submit = [&](uint64_t from, uint64_t to) {
    if (sys.SubmitTransaction(Transfer(from, to, 1, nonces[from])).ok()) {
      ++nonces[from];
    }
  };
  uint64_t ticks = 0;
  std::function<void()> tick = [&] {
    for (uint64_t i = 0; i < 4; ++i) {
      const uint64_t s = 1 + (ticks * 4 + i) % 40;
      submit(s, s + 40);
      submit(s + 40, s + 79);
    }
    ++ticks;
    sys.events()->ScheduleAfter(net::FromMillis(400), tick);
  };
  tick();
  sys.Run(24, net::FromSeconds(60.0 * 24));

  EXPECT_EQ(sys.metrics().committed_blocks(), 24u);
  EXPECT_EQ(Epochs(sys), 12u);
  EXPECT_GT(sys.metrics().committed_cross_txs(), 0u);
  EXPECT_GT(sys.adversary()->actions(), 0u);
  workload::InvariantChecker checker;
  EXPECT_TRUE(checker.CheckChainIntegrity(sys).ok());
  EXPECT_TRUE(checker.CheckNoReplayMismatches(sys).ok());
  EXPECT_TRUE(checker.CheckSupplyConserved(sys).ok());
  EXPECT_TRUE(checker.CheckEvidenceOnlyAgainstMalicious(sys).ok());
  for (const std::string& v : checker.violations()) ADD_FAILURE() << v;

  // End-to-end digests, pinned: a change that moves a sim number, the
  // chain or the state must re-pin them and say why.
  EXPECT_EQ(HexEncode(sys.chain().back().Hash()),
            "f2b29209363788b182d2be1ed735f70ecf41f252a41612ef83d545c8df067ae3");
  EXPECT_EQ(HexEncode(sys.canonical_state().GlobalRoot()),
            "b4678bff663ee03331cabbe22f688d1d53f093c14f66beddc68617d27e30f4f7");
  EXPECT_EQ(HexEncode(crypto::Sha256::Hash(ToBytes(sys.metrics().ToJson()))),
            "7cc5b813ce98222f9c8f0e1d3356996825fcae1aca4638f53a099c6ab35d0fb3");
}

TEST(EpochAdversaryTest, PlacementIsRedrawnWithinBoundsEachEpoch) {
  // Unit level: PlaceStateless across epoch ordinals must respect the α
  // budget every time, keep the leader exempt, and actually re-deal.
  AdversarySpec spec;
  spec.stateless = AdvStrategy::kEquivocate;
  spec.alpha = 0.25;
  spec.seed = 9;
  AdversaryController adversary(spec, nullptr, nullptr);

  const int n = 26;
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;  // Identity sortition order.
  const int oc_size = 4;
  const int leader = order[0];

  std::vector<std::vector<AdvStrategy>> placements;
  for (uint64_t epoch = 0; epoch < 6; ++epoch) {
    auto placed = adversary.PlaceStateless(order, oc_size, leader, epoch);
    int corrupted = 0;
    for (int i = 0; i < n; ++i) {
      if (placed[static_cast<size_t>(i)] != AdvStrategy::kHonest) ++corrupted;
    }
    EXPECT_LE(corrupted, static_cast<int>(n * spec.alpha)) << epoch;
    EXPECT_GT(corrupted, 0) << epoch;
    EXPECT_EQ(placed[static_cast<size_t>(leader)], AdvStrategy::kHonest)
        << "leader corrupted in epoch " << epoch;
    placements.push_back(std::move(placed));
  }
  // Same epoch ordinal -> identical deal (determinism for replay)...
  EXPECT_EQ(adversary.PlaceStateless(order, oc_size, leader, 3),
            placements[3]);
  // ...but across epochs the non-OC remainder moves: at least one pair of
  // consecutive epochs must differ (all six identical would mean the epoch
  // ordinal never reached the placement stream).
  bool any_differ = false;
  for (size_t e = 1; e < placements.size(); ++e) {
    if (placements[e] != placements[e - 1]) any_differ = true;
  }
  EXPECT_TRUE(any_differ);
}

TEST(EpochAdversaryTest, AdversarialEpochRunMatchesCleanRun) {
  // System level: with epoch churn AND an α = 1/4 equivocator re-dealt at
  // every boundary, honest nodes still commit the clean run's exact chain.
  auto clean = RunWithEpochs(4, 12);
  auto adv = RunWithEpochs(4, 12, "stateless:equivocate,alpha:0.25,seed:11");
  EXPECT_EQ(Epochs(*adv), 3u);
  EXPECT_GT(adv->adversary()->actions(), 0u);
  workload::InvariantChecker checker;
  EXPECT_TRUE(checker.CheckSameChain(*adv, *clean).ok());
  EXPECT_TRUE(checker
                  .CheckRootsMatch(adv->canonical_state().GlobalRoot(),
                                   clean->canonical_state().GlobalRoot(),
                                   adv->metrics().committed_blocks())
                  .ok());
  EXPECT_TRUE(checker.CheckSupplyConserved(*adv).ok());
  EXPECT_TRUE(checker.CheckEvidenceOnlyAgainstMalicious(*adv).ok());
  for (const std::string& v : checker.violations()) ADD_FAILURE() << v;
}

TEST(EpochTest, StorageCrashStraddlingEpochBoundaryRecovers) {
  // A storage node crashes before an epoch boundary and recovers after it:
  // the reconfigured committee keeps closing rounds through the outage and
  // the node rejoins cleanly on the new committee's chain.
  SystemOptions opt = Opts();
  opt.epoch_length = 4;
  PorygonSystem sys(opt);
  sys.CreateAccounts(100, 10'000);
  for (uint64_t f = 1; f <= 10; ++f) {
    sys.SubmitTransaction(Transfer(f, f + 20, 1, 0));
  }
  sys.Run(2);  // Two rounds in; boundary at round 4 is ahead.

  net::FaultPlan plan;
  const net::SimTime now = sys.events()->now();
  const net::NodeId victim = sys.storage_node(0)->net_id();
  plan.crashes.push_back({victim, now + net::FromMillis(500), false});
  plan.crashes.push_back({victim, now + net::FromSeconds(20), true});
  ASSERT_TRUE(sys.InjectFaults(plan).ok());
  sys.Run(10, net::FromSeconds(600));

  EXPECT_EQ(sys.metrics().committed_blocks(), 12u);
  EXPECT_GE(Epochs(sys), 2u);  // Boundaries passed while crashed/recovered.
  const auto* rejoins =
      sys.metrics_registry()->FindCounter("core.storage_rejoins", {});
  ASSERT_NE(rejoins, nullptr);
  EXPECT_EQ(rejoins->value(), 1u);
  workload::InvariantChecker checker;
  EXPECT_TRUE(checker.CheckChainIntegrity(sys).ok());
  EXPECT_TRUE(checker.CheckNoReplayMismatches(sys).ok());
  EXPECT_TRUE(checker.CheckBoundedCommitGap(sys).ok());
  EXPECT_TRUE(checker.CheckSupplyConserved(sys).ok());
  for (const std::string& v : checker.violations()) ADD_FAILURE() << v;
}

// A deployment under steady intra- and cross-shard load, as in
// LeaderHandOffUnderLoadIsPinned: `loaded` turns the load off for a drain.
struct LoadedRun {
  explicit LoadedRun(const SystemOptions& opt)
      : sys(std::make_unique<PorygonSystem>(opt)) {
    sys->CreateAccounts(120, 10'000);
    tick = [this] {
      if (!loaded) return;
      for (uint64_t i = 0; i < 4; ++i) {
        const uint64_t s = 1 + (ticks * 4 + i) % 40;
        Submit(s, s + 40);
        Submit(s + 40, s + 79);
      }
      ++ticks;
      sys->events()->ScheduleAfter(net::FromMillis(400), tick);
    };
    tick();
  }
  void Submit(uint64_t from, uint64_t to) {
    if (sys->SubmitTransaction(Transfer(from, to, 1, nonces[from])).ok()) {
      ++nonces[from];
    }
  }
  const CrossShardCoordinator* LeaderCoordinator() const {
    for (int i = 0; i < sys->num_stateless_nodes(); ++i) {
      if (sys->stateless_node(i)->net_id() == sys->oc().leader) {
        return sys->stateless_node(i)->coordinator();
      }
    }
    return nullptr;
  }

  std::unique_ptr<PorygonSystem> sys;
  std::map<uint64_t, uint64_t> nonces;
  uint64_t ticks = 0;
  bool loaded = true;
  std::function<void()> tick;
};

// The node seated as leader at the round-8 boundary gets its inbound
// messages delayed by up to 8 s from round 7 on, so it is seated while its
// own round lags and then receives round 7's start late. Round 7 is
// committed by then, and proposing it again would re-lock batch 7 over its
// live entry, so the real batch's locks would never release (without the
// seat guard, each of these seeds leaks 6 to 26 locks).
// Checked after every round: only batches tip - 1 and later are in flight.
// After a drain with no traffic: no batch and no lock remains.
TEST(EpochTest, LaggingNewLeaderProposesNothingBeforeItsSeat) {
  unsetenv("PORYGON_THREADS");
  constexpr uint64_t kBoundary = 8;
  for (uint64_t seed : {1, 2, 4}) {
    SCOPED_TRACE(seed);
    SystemOptions opt = Opts();
    opt.seed = seed;
    opt.epoch_length = 4;
    // Who the boundary seats, from an undisturbed run.
    LoadedRun reference(opt);
    reference.sys->Run(kBoundary);
    const net::NodeId seated = reference.sys->oc().leader;

    LoadedRun run(opt);
    run.sys->Run(kBoundary - 2);
    net::FaultPlan plan;
    net::FaultPlan::LinkFault slow;
    slow.to = seated;
    slow.extra_delay_max = net::FromSeconds(8);
    slow.start = run.sys->events()->now();
    slow.end = slow.start + net::FromSeconds(30);
    plan.link_faults.push_back(slow);
    ASSERT_TRUE(run.sys->InjectFaults(plan).ok());
    for (int round = 0; round < 20; ++round) {
      if (round == 12) run.loaded = false;  // Drain.
      run.sys->Run(1, net::FromSeconds(120));
      if (round == 1) ASSERT_EQ(run.sys->oc().leader, seated);
      const CrossShardCoordinator* c = run.LeaderCoordinator();
      ASSERT_NE(c, nullptr);
      // Batch b is released when B_{b+2} is proposed, which precedes the
      // commit of B_{b+2}.
      const uint64_t tip = run.sys->chain().back().round;
      for (uint64_t r : c->InFlightRounds()) {
        EXPECT_GE(r + 1, tip) << "batch " << r << " in flight at tip " << tip;
      }
    }
    const CrossShardCoordinator* c = run.LeaderCoordinator();
    EXPECT_TRUE(c->InFlightRounds().empty());
    EXPECT_EQ(c->locked_accounts(), 0u);
    EXPECT_GT(run.sys->metrics().committed_cross_txs(), 0u);
    workload::InvariantChecker checker;
    EXPECT_TRUE(checker.CheckChainIntegrity(*run.sys).ok());
    EXPECT_TRUE(checker.CheckSupplyConserved(*run.sys).ok());
    for (const std::string& v : checker.violations()) ADD_FAILURE() << v;
  }
}

}  // namespace
}  // namespace porygon::core
