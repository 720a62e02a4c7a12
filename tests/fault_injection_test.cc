// Fault-injection coverage: network partitions and crashes against the
// protocol's liveness/safety claims (§V), plus witness-phase data
// availability (Challenge 2) at the message level.

#include <gtest/gtest.h>

#include <string>

#include "core/system.h"
#include "net/fault.h"
#include "net/network.h"
#include "workload/generator.h"
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

/// The safety/liveness sweep every faulty run must survive, routed through
/// the chaos-soak harness's shared InvariantChecker: bounded commit gaps,
/// intact hash links and aggregated roots along the whole chain, clean
/// storage replay and conserved total supply — the same checks bench/soak
/// asserts continuously.
void ExpectCoreInvariants(PorygonSystem& sys) {
  workload::InvariantChecker checker;
  EXPECT_TRUE(checker.CheckBoundedCommitGap(sys).ok());
  EXPECT_TRUE(checker.CheckChainIntegrity(sys).ok());
  EXPECT_TRUE(checker.CheckNoReplayMismatches(sys).ok());
  EXPECT_TRUE(checker.CheckSupplyConserved(sys).ok());
  for (const std::string& v : checker.violations()) ADD_FAILURE() << v;
}

// --- Plan grammar -----------------------------------------------------------

TEST(FaultInjectionTest, PlanParsesEveryClause) {
  auto plan = net::FaultPlan::Parse(
      "loss:0.05,dup:0.01,jitter:300,crash:0:6,recover:0:20,seed:9");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->link_faults.size(), 1u);
  const net::FaultPlan::LinkFault& all = plan->link_faults[0];
  EXPECT_EQ(all.from, net::kInvalidNode);  // One wildcard entry.
  EXPECT_EQ(all.to, net::kInvalidNode);
  EXPECT_DOUBLE_EQ(all.loss, 0.05);
  EXPECT_DOUBLE_EQ(all.duplicate, 0.01);
  EXPECT_EQ(all.extra_delay_max, 300);
  ASSERT_EQ(plan->crashes.size(), 2u);
  EXPECT_EQ(plan->crashes[0].node, 0u);
  EXPECT_EQ(plan->crashes[0].at, net::FromSeconds(6));
  EXPECT_FALSE(plan->crashes[0].recover);
  EXPECT_EQ(plan->crashes[1].at, net::FromSeconds(20));
  EXPECT_TRUE(plan->crashes[1].recover);
  EXPECT_TRUE(plan->partitions.empty());
  EXPECT_EQ(plan->seed, 9u);
}

TEST(FaultInjectionTest, PlanRejectsMalformedClauses) {
  for (const char* bad : {
           "loss:nan",      // Non-finite probability.
           "loss:1.5",      // Probabilities outside [0,1].
           "dup:-0.3",
           "jitter:-5",     // Signed delay.
           "crash:-1:5",    // Signed node id.
           "crash:0:nan",   // Non-finite crash time.
           "crash:0",       // Missing time.
           "seed:-1",       // Signed seed.
           "seed: 7",       // Whitespace.
           "bogus:1",       // Unknown key.
       }) {
    auto plan = net::FaultPlan::Parse(bad);
    EXPECT_TRUE(plan.status().IsInvalidArgument()) << bad;
  }
}

// --- Injection --------------------------------------------------------------

TEST(FaultInjectionTest, CrashedStatelessNodesDontStallRounds) {
  PorygonSystem sys(Opts());
  sys.CreateAccounts(100, 10'000);
  for (uint64_t f = 1; f <= 10; ++f) {
    tx::Transaction t;
    t.from = f;
    t.to = f + 20;
    t.amount = 1;
    t.nonce = 0;
    sys.SubmitTransaction(t);
  }
  // Crash a couple of non-OC nodes mid-run (harsher than Byzantine-silent:
  // they also stop ACKing network deliveries).
  sys.Run(3);
  int crashed = 0;
  for (int i = 0; i < sys.num_stateless_nodes() && crashed < 3; ++i) {
    if (!sys.stateless_node(i)->in_oc()) {
      sys.network()->SetCrashed(sys.stateless_node(i)->net_id(), true);
      ++crashed;
    }
  }
  sys.Run(9);
  EXPECT_EQ(sys.metrics().committed_blocks(), 12u);  // Rounds keep closing.
  EXPECT_GT(sys.metrics().committed_intra_txs(), 0u);
  ExpectCoreInvariants(sys);
}

TEST(FaultInjectionTest, WitnessPhaseBlocksUnavailableBodies) {
  // Half the storage nodes withhold bodies and drop routed traffic — the
  // paper's beta = 1/2 bound, which SystemOptions::Validate enforces as a
  // hard ceiling. Blocks packaged by the withholding node can never
  // be witnessed (their bodies are unavailable, Challenge 2), so their
  // transactions never commit; blocks from the honest node still flow,
  // and nothing *incorrect* commits.
  SystemOptions opt = Opts();
  opt.adversary.storage = AdvStrategy::kWithhold;
  opt.adversary.beta = 0.5;
  opt.adversary.seed = opt.seed;
  PorygonSystem sys(opt);
  sys.CreateAccounts(100, 10'000);
  for (uint64_t f = 1; f <= 20; ++f) {
    tx::Transaction t;
    t.from = f;
    t.to = f + 30;
    t.amount = 1;
    t.nonce = 0;
    sys.SubmitTransaction(t);
  }
  sys.Run(8, net::FromSeconds(300));
  // Liveness: the honest half keeps the chain moving.
  EXPECT_GT(sys.metrics().committed_blocks(), 0u);
  // Safety: whatever committed replays cleanly and the chain verifies.
  ExpectCoreInvariants(sys);
  // The withholding node really acted (bodies dropped at distribution).
  EXPECT_GT(sys.adversary()->actions(), 0u);
  // Transactions homed at the withholding node are stuck in unavailable
  // blocks, so not everything can commit.
  EXPECT_LT(sys.metrics().committed_txs(), 20u);
}

TEST(FaultInjectionTest, DropFilterCensorshipDegradesButDoesNotCorrupt) {
  // Randomly drop 20% of witness uploads at the network layer: some blocks
  // miss Tw and roll into later batches, but committed state stays
  // consistent (replay matches).
  PorygonSystem sys(Opts());
  sys.CreateAccounts(10'000, 100'000);
  Rng drop_rng(99);
  sys.network()->SetFaultHook([&drop_rng](const net::Message& m) {
    net::FaultDecision d;
    d.drop = m.kind == kMsgWitnessUpload && drop_rng.NextBernoulli(0.2);
    return d;
  });
  workload::WorkloadGenerator gen(
      {.num_accounts = 10'000, .shard_bits = 1, .seed = 17});
  for (int r = 0; r < 12; ++r) {
    for (const auto& t : gen.Batch(150)) sys.SubmitTransaction(t);
    sys.Run(1);
  }
  EXPECT_GT(sys.metrics().committed_intra_txs() +
                sys.metrics().committed_cross_txs(),
            0u);
  ExpectCoreInvariants(sys);

  uint64_t total = 0;
  for (uint64_t id = 1; id <= 10'000; ++id) {
    total += sys.canonical_state().GetOrDefault(id).balance;
  }
  EXPECT_EQ(total, 10'000ull * 100'000ull);  // Censorship never mints/burns.
}

TEST(FaultInjectionTest, CrashedStorageMinorityIsRoutedAround) {
  // One of four storage nodes crashes outright. Stateless nodes whose
  // primary died lose their round feed, but nodes served by live storage
  // keep the system committing.
  SystemOptions opt = Opts();
  opt.num_storage_nodes = 4;
  PorygonSystem sys(opt);
  sys.CreateAccounts(100, 10'000);
  for (uint64_t f = 1; f <= 16; ++f) {
    tx::Transaction t;
    t.from = f;
    t.to = f + 20;
    t.amount = 1;
    t.nonce = 0;
    sys.SubmitTransaction(t);
  }
  sys.Run(2);
  sys.network()->SetCrashed(sys.storage_node(3)->net_id(), true);
  sys.Run(10, net::FromSeconds(300));
  EXPECT_GT(sys.metrics().committed_blocks(), 8u);
  EXPECT_GT(sys.metrics().committed_intra_txs(), 0u);
  ExpectCoreInvariants(sys);
}

TEST(FaultInjectionTest, PrimaryStorageCrashFailsOverAndStillCommits) {
  // Connections are draw-ordered (no honest-first oracle), so with full
  // connectivity every stateless node starts on storage 0. Crashing it
  // mid-run must not end the chain: deadlines, strikes, and the round
  // watchdog rotate everyone onto storage 1 and rounds keep closing.
  SystemOptions opt = Opts();
  opt.trace.enabled = true;
  PorygonSystem sys(opt);
  sys.CreateAccounts(100, 10'000);
  for (uint64_t f = 1; f <= 10; ++f) {
    tx::Transaction t;
    t.from = f;
    t.to = f + 20;
    t.amount = 1;
    t.nonce = 0;
    sys.SubmitTransaction(t);
  }
  for (int i = 0; i < sys.num_stateless_nodes(); ++i) {
    ASSERT_EQ(sys.stateless_node(i)->primary_storage(),
              sys.storage_node(0)->net_id());
  }
  sys.Run(3);
  const uint64_t committed_before = sys.metrics().committed_intra_txs();

  net::FaultPlan plan;
  plan.crashes.push_back(
      {sys.storage_node(0)->net_id(), sys.events()->now() + net::FromMillis(500),
       /*recover=*/false});
  ASSERT_TRUE(sys.InjectFaults(plan).ok());
  for (uint64_t f = 11; f <= 18; ++f) {
    tx::Transaction t;
    t.from = f;
    t.to = f + 20;
    t.amount = 1;
    t.nonce = 0;
    sys.SubmitTransaction(t);
  }
  sys.Run(9, net::FromSeconds(600));

  EXPECT_EQ(sys.metrics().committed_blocks(), 12u);
  EXPECT_GT(sys.metrics().committed_intra_txs(), committed_before);
  ExpectCoreInvariants(sys);
  const auto* rotations =
      sys.metrics_registry()->FindCounter("core.failover.rotations", {});
  ASSERT_NE(rotations, nullptr);
  EXPECT_GT(rotations->value(), 0u);
  const auto* crash_events = sys.metrics_registry()->FindCounter(
      "net.fault.events", {{"type", "crash"}});
  ASSERT_NE(crash_events, nullptr);
  EXPECT_EQ(crash_events->value(), 1u);
  // The failover left its marks in the trace's fault lane.
  const std::string trace = sys.tracer()->ExportChromeJson();
  EXPECT_NE(trace.find("\"faults\""), std::string::npos);
  EXPECT_NE(trace.find("primary_rotation"), std::string::npos);
  // Everyone abandoned the dead primary.
  for (int i = 0; i < sys.num_stateless_nodes(); ++i) {
    EXPECT_EQ(sys.stateless_node(i)->primary_storage(),
              sys.storage_node(1)->net_id());
  }
}

TEST(FaultInjectionTest, StorageCrashRecoverRejoinsAndIsReadopted) {
  // Crash -> recover cycle: the node rejoins, catches up on the current
  // round, and recovery probes move its former primaries back onto it.
  PorygonSystem sys(Opts());
  sys.CreateAccounts(100, 10'000);
  for (uint64_t f = 1; f <= 10; ++f) {
    tx::Transaction t;
    t.from = f;
    t.to = f + 20;
    t.amount = 1;
    t.nonce = 0;
    sys.SubmitTransaction(t);
  }
  sys.Run(3);

  net::FaultPlan plan;
  const net::SimTime now = sys.events()->now();
  const net::NodeId victim = sys.storage_node(0)->net_id();
  plan.crashes.push_back({victim, now + net::FromMillis(500), false});
  plan.crashes.push_back({victim, now + net::FromSeconds(20), true});
  ASSERT_TRUE(sys.InjectFaults(plan).ok());
  sys.Run(9, net::FromSeconds(600));

  EXPECT_EQ(sys.metrics().committed_blocks(), 12u);
  ExpectCoreInvariants(sys);
  const auto* rejoins =
      sys.metrics_registry()->FindCounter("core.storage_rejoins", {});
  ASSERT_NE(rejoins, nullptr);
  EXPECT_EQ(rejoins->value(), 1u);
  const auto* readoptions =
      sys.metrics_registry()->FindCounter("core.failover.readoptions", {});
  ASSERT_NE(readoptions, nullptr);
  EXPECT_GT(readoptions->value(), 0u);
}

TEST(FaultInjectionTest, SameSeedSamePlanExportsAreByteIdentical) {
  // The injector draws from its own seeded streams, so two identical runs
  // under an active loss/dup/jitter plan inject the same faults at the same
  // points — and the metrics and trace exports match byte for byte.
  auto run = [] {
    SystemOptions opt = Opts();
    opt.trace.enabled = true;
    PorygonSystem sys(opt);
    sys.CreateAccounts(100, 10'000);
    auto plan = net::FaultPlan::Parse("loss:0.02,dup:0.02,jitter:300,seed:5");
    EXPECT_TRUE(plan.ok());
    EXPECT_TRUE(sys.InjectFaults(*plan).ok());
    for (uint64_t f = 1; f <= 10; ++f) {
      tx::Transaction t;
      t.from = f;
      t.to = f + 20;
      t.amount = 1;
      t.nonce = 0;
      sys.SubmitTransaction(t);
    }
    sys.Run(6, net::FromSeconds(600));
    const auto* losses = sys.metrics_registry()->FindCounter(
        "net.fault.injected", {{"type", "loss"}});
    EXPECT_NE(losses, nullptr);
    if (losses != nullptr) {
      EXPECT_GT(losses->value(), 0u);
    }
    return std::make_pair(sys.metrics().ToJson(),
                          sys.tracer()->ExportChromeJson());
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(FaultInjectionTest, LateJoinerSeesConsistentChainTip) {
  // A fresh observer can verify the whole committed chain by hash links and
  // aggregated roots alone (what a new stateless node checks on join).
  PorygonSystem sys(Opts());
  sys.CreateAccounts(100, 10'000);
  for (uint64_t f = 1; f <= 10; ++f) {
    tx::Transaction t;
    t.from = f;
    t.to = f + 20;
    t.amount = 2;
    t.nonce = 0;
    sys.SubmitTransaction(t);
  }
  sys.Run(10);
  // The whole-chain verification (hash links + aggregated roots) is what
  // InvariantChecker::CheckChainIntegrity codifies; replay agreement covers
  // the canonical state once the pipeline drains.
  ExpectCoreInvariants(sys);
}

}  // namespace
}  // namespace porygon::core
