// Dissemination strategies (net/dissemination + the tree-mode actor paths):
// spec grammar, deterministic relay election, safety (tree commits the
// byte-identical chain and GlobalRoot of the same-seed direct run),
// thread-invariance of tree exports, and Byzantine/crashed relay
// degradation back to direct paths.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "core/adversary.h"
#include "core/system.h"
#include "crypto/sha256.h"
#include "net/dissemination.h"
#include "net/fault.h"
#include "net/network.h"
#include "obs/metrics.h"

namespace porygon {
namespace {

using core::PorygonSystem;
using core::SystemOptions;
using net::DisseminationMode;
using net::DisseminationSpec;

DisseminationSpec MustParse(const std::string& spec) {
  auto parsed = DisseminationSpec::Parse(spec);
  EXPECT_TRUE(parsed.ok()) << spec << ": " << parsed.status().message();
  return parsed.ok() ? *parsed : DisseminationSpec{};
}

// --- Spec grammar ---------------------------------------------------------

TEST(DisseminationSpecTest, ParsesAndRoundTrips) {
  DisseminationSpec direct = MustParse("direct");
  EXPECT_EQ(direct.mode, DisseminationMode::kDirect);
  EXPECT_FALSE(direct.tree());
  EXPECT_EQ(direct, DisseminationSpec{});

  DisseminationSpec tree = MustParse("tree");
  EXPECT_TRUE(tree.tree());
  EXPECT_EQ(tree.chunk_k, 4);
  EXPECT_EQ(tree.chunk_n, 6);
  EXPECT_EQ(tree.relay_strikes, 2);

  DisseminationSpec tuned = MustParse("tree,chunks:3/5,strikes:1");
  EXPECT_EQ(tuned.chunk_k, 3);
  EXPECT_EQ(tuned.chunk_n, 5);
  EXPECT_EQ(tuned.relay_strikes, 1);

  for (const DisseminationSpec& s : {direct, tree, tuned}) {
    EXPECT_EQ(MustParse(s.ToString()), s) << s.ToString();
    EXPECT_TRUE(s.Validate().ok()) << s.ToString();
  }
}

TEST(DisseminationSpecTest, RejectsMalformedClauses) {
  for (const char* bad : {
           "star",                // Unknown mode head.
           "",                    // Empty spec.
           "tree,chunks:4",       // Missing /n.
           "tree,chunks:a/b",     // Non-numeric geometry.
           "tree,strikes:zero",   // Non-numeric strikes.
           "tree,bogus:1",        // Unknown clause.
           "direct,chunks:3/5",   // Direct has nothing to configure.
           "direct,strikes:1",
           "tree,chunks:1/4",     // Out-of-range geometry (k < 2)...
           "tree,chunks:5/5",     // ...k not < n...
           "tree,chunks:4/300",   // ...n past the GF(2^8) cap...
           "tree,strikes:0",      // ...and strikes below 1.
           "tree,strikes:4294967297",  // Past int, never truncated.
       }) {
    auto parsed = DisseminationSpec::Parse(bad);
    EXPECT_TRUE(parsed.status().IsInvalidArgument()) << bad;
  }
  // A spec built programmatically (bypassing Parse) is still range-checked
  // through SystemOptions::Validate.
  SystemOptions opt;
  opt.dissemination = MustParse("tree");
  opt.dissemination.chunk_k = 1;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
}

TEST(DisseminationSpecTest, RelayElectionIsDeterministicArithmetic) {
  // No member set of fewer than 2 elects a relay (aggregation through the
  // lone member would just add a hop).
  EXPECT_EQ(net::Dissemination::AggregatorIndex(0, 5, 0), -1);
  EXPECT_EQ(net::Dissemination::AggregatorIndex(1, 5, 0), -1);
  // Rotation by round, offset by stripe so co-resident flows (witness
  // stripe 0, exec stripe 1) land on different members.
  for (uint64_t round = 0; round < 12; ++round) {
    for (uint64_t stripe = 0; stripe < 2; ++stripe) {
      EXPECT_EQ(net::Dissemination::AggregatorIndex(5, round, stripe),
                static_cast<int>((round + stripe) % 5));
    }
  }
  const std::vector<net::NodeId> members = {10, 11, 12};
  EXPECT_EQ(net::Dissemination::AggregatorFor(members, 4, 0), 11u);
  EXPECT_EQ(net::Dissemination::AggregatorFor(members, 4, 1), 12u);
  EXPECT_EQ(net::Dissemination::AggregatorFor({}, 4, 0), net::kInvalidNode);
}

/// Committees of 0..7 members with ids 100, 101, ...
std::vector<std::vector<net::NodeId>> Committees() {
  std::vector<std::vector<net::NodeId>> out;
  for (net::NodeId size = 0; size <= 7; ++size) {
    std::vector<net::NodeId> members;
    for (net::NodeId i = 0; i < size; ++i) members.push_back(100 + i);
    out.push_back(members);
  }
  return out;
}

// Direct mode is the mode that elects no relay: every sender's no-relay
// fallback is the direct flow.
TEST(DisseminationSpecTest, DirectModeElectsNoRelayAndKeepsTheStar) {
  const net::Dissemination direct(MustParse("direct"));
  EXPECT_FALSE(direct.tree());
  auto skip_none = [](net::NodeId) { return false; };
  for (const auto& members : Committees()) {
    SCOPED_TRACE(members.size());
    for (uint64_t round = 0; round < 8; ++round) {
      const net::NodeId leader = members.empty() ? 0 : members[0];
      EXPECT_EQ(direct.VoteRelay(members, leader, round), net::kInvalidNode);
      EXPECT_EQ(direct.ExecRelay(members, round), net::kInvalidNode);
      EXPECT_EQ(direct.WitnessRelay(members, round), net::kInvalidNode);
      EXPECT_EQ(direct.WitnessRelay(members, round, skip_none),
                net::kInvalidNode);
    }
  }
  EXPECT_EQ(direct.FullResultSenders(), 2);
  for (size_t n : {0, 1, 6, 17, 255, 256}) {
    EXPECT_FALSE(direct.ChunksBodies(n)) << n;
  }
  for (size_t m : {0, 1, 2, 3, 8}) EXPECT_EQ(direct.CommitFanout(m), m);
  EXPECT_FALSE(direct.AcksOcRelays());
  // OC members download the full block; everyone else the compact header.
  EXPECT_EQ(direct.RoundStartBytes(true, 5'000), 5'000u);
  EXPECT_EQ(direct.RoundStartBytes(false, 5'000), 256u);
}

TEST(DisseminationSpecTest, TreeModeAnswersFollowTheElectionArithmetic) {
  const net::Dissemination tree(MustParse("tree"));
  for (const auto& members : Committees()) {
    SCOPED_TRACE(members.size());
    for (uint64_t round = 0; round < 8; ++round) {
      // Exec and witness relays: stripes 1 and 0 of the rotation.
      EXPECT_EQ(tree.ExecRelay(members, round),
                net::Dissemination::AggregatorFor(members, round, 1));
      EXPECT_EQ(tree.WitnessRelay(members, round),
                net::Dissemination::AggregatorFor(members, round, 0));
      // Vote relay: instance-rotated over the OC, stepping past the
      // leader; committees below 3 elect none.
      for (const net::NodeId leader : members) {
        const net::NodeId relay = tree.VoteRelay(members, leader, round);
        if (members.size() < 3) {
          EXPECT_EQ(relay, net::kInvalidNode);
          continue;
        }
        const size_t idx = round % members.size();
        const net::NodeId expected = members[idx] == leader
                                         ? members[(idx + 1) % members.size()]
                                         : members[idx];
        EXPECT_EQ(relay, expected);
        EXPECT_NE(relay, leader);
      }
    }
  }
  // The witness skip-scan walks the ring from the base election, in order.
  const std::vector<net::NodeId> ring = {100, 101, 102, 103, 104};
  ASSERT_EQ(tree.WitnessRelay(ring, 3), 103u);
  EXPECT_EQ(tree.WitnessRelay(ring, 3,
                              [](net::NodeId n) { return n == 103; }),
            104u);
  EXPECT_EQ(tree.WitnessRelay(
                ring, 3, [](net::NodeId n) { return n == 103 || n == 104; }),
            100u);
  EXPECT_EQ(tree.WitnessRelay(ring, 3,
                              [](net::NodeId n) { return n != 102; }),
            102u);
  // A fully skipped committee gets no relay.
  EXPECT_EQ(tree.WitnessRelay(ring, 3, [](net::NodeId) { return true; }),
            net::kInvalidNode);

  EXPECT_EQ(tree.FullResultSenders(), 1);
  // Chunking needs max(n, k + 2) members and at most kMaxChunks.
  EXPECT_FALSE(tree.ChunksBodies(5));
  EXPECT_TRUE(tree.ChunksBodies(6));
  EXPECT_TRUE(tree.ChunksBodies(255));
  EXPECT_FALSE(tree.ChunksBodies(256));
  const net::Dissemination wide_k(MustParse("tree,chunks:5/6"));
  EXPECT_FALSE(wide_k.ChunksBodies(6));
  EXPECT_TRUE(wide_k.ChunksBodies(7));
  for (size_t m : {0, 1, 2, 3, 8}) {
    EXPECT_EQ(tree.CommitFanout(m), std::min<size_t>(2, m)) << m;
  }
  EXPECT_TRUE(tree.AcksOcRelays());
  // Members already hold the decided block: everyone gets the header.
  EXPECT_EQ(tree.RoundStartBytes(true, 5'000), 256u);
  EXPECT_EQ(tree.RoundStartBytes(false, 5'000), 256u);
}

// --- System-level ---------------------------------------------------------

SystemOptions Opts() {
  SystemOptions opt;
  opt.params.shard_bits = 1;
  opt.params.witness_threshold = 2;
  opt.params.execution_threshold = 2;
  // Small blocks so every round carries two blocks per shard: multi-block
  // aggregates are what exercise relay merging (and what an equivocating
  // relay needs to tamper with).
  opt.params.block_tx_limit = 10;
  opt.params.storage_connections = 2;
  opt.num_storage_nodes = 2;
  // Per-shard EC cohorts of ~17: enough headroom for the 4/6 chunk mesh
  // and for honest majorities under alpha = 1/4.
  opt.num_stateless_nodes = 38;
  opt.oc_size = 4;
  opt.blocks_per_shard_round = 2;
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

/// One deployment with a mixed intra/cross workload for 10 rounds.
/// `continuous` feeds fresh-sender batches every round (sustained
/// multi-block aggregates, many relay elections); the default submits
/// everything up front, which keeps tx->round assignment — and therefore
/// the chain — independent of strategy timing.
std::unique_ptr<PorygonSystem> RunWith(const std::string& dissemination,
                                       const std::string& adversary = "",
                                       const std::string& faults = "",
                                       int threads = 0,
                                       bool continuous = false) {
  SystemOptions opt = Opts();
  opt.worker_threads = threads;
  if (!dissemination.empty()) opt.dissemination = MustParse(dissemination);
  if (!adversary.empty()) {
    auto spec = core::AdversarySpec::Parse(adversary);
    EXPECT_TRUE(spec.ok()) << adversary;
    opt.adversary = *spec;
  }
  auto sys = std::make_unique<PorygonSystem>(opt);
  if (!faults.empty()) {
    auto plan = net::FaultPlan::Parse(faults);
    EXPECT_TRUE(plan.ok()) << faults;
    EXPECT_TRUE(sys->InjectFaults(*plan).ok());
  }
  sys->CreateAccounts(600, 10'000);
  const int submit_rounds = continuous ? 10 : 1;
  for (int r = 0; r < submit_rounds; ++r) {
    // Fresh senders each round (nonce 0 everywhere); 12 txs per shard per
    // round = two blocks per shard at limit 10.
    const uint64_t base = 1 + static_cast<uint64_t>(r) * 24;
    for (uint64_t f = base; f < base + 12; ++f) {
      // Same parity = same shard under 1 shard bit; +101 flips it.
      sys->SubmitTransaction(Transfer(f, f + 300, 1, 0));
      sys->SubmitTransaction(Transfer(f + 12, f + 101, 2, 0));
    }
    sys->Run(1, net::FromSeconds(600));
  }
  sys->Run(continuous ? 3 : 9, net::FromSeconds(600));
  return sys;
}

std::vector<crypto::Hash256> ChainHashes(const PorygonSystem& sys) {
  std::vector<crypto::Hash256> hashes;
  for (const auto& block : sys.chain()) hashes.push_back(block.Hash());
  return hashes;
}

uint64_t Evidence(const PorygonSystem& sys, const char* type) {
  const auto* c = sys.metrics_registry().FindCounter("adversary.evidence",
                                                     {{"type", type}});
  return c == nullptr ? 0 : c->value();
}

/// SHA-256 of the run's metrics JSON: pins every sim number of a degraded
/// tree run, so a refactor of the relay paths cannot move one unnoticed.
std::string MetricsDigest(const PorygonSystem& sys) {
  return HexEncode(crypto::Sha256::Hash(ToBytes(sys.metrics().ToJson())));
}

// The tentpole's safety bar: routing witness bundles, bodies, exec
// attestations, and votes through relays must not change WHAT commits —
// same seed, same chain, same final GlobalRoot as the direct star.
TEST(DisseminationTest, TreeCommitsTheSameChainAsDirect) {
  unsetenv("PORYGON_THREADS");
  auto direct = RunWith("direct");
  auto tree = RunWith("tree");
  ASSERT_GT(direct->metrics().committed_blocks(), 0u);
  ASSERT_GT(direct->metrics().committed_txs(), 0u);
  EXPECT_EQ(tree->metrics().committed_blocks(),
            direct->metrics().committed_blocks());
  EXPECT_EQ(tree->metrics().committed_txs(),
            direct->metrics().committed_txs());
  EXPECT_EQ(ChainHashes(*tree), ChainHashes(*direct));
  EXPECT_EQ(tree->canonical_state().GlobalRoot(),
            direct->canonical_state().GlobalRoot());
  EXPECT_EQ(tree->metrics().replay_mismatches(), 0u);
  EXPECT_EQ(direct->metrics().replay_mismatches(), 0u);
}

// An explicit "direct" spec is the default: identical exports, identical
// sim clock (the strategy abstraction adds zero behavior to the star).
TEST(DisseminationTest, ExplicitDirectSpecIsByteIdenticalToDefault) {
  unsetenv("PORYGON_THREADS");
  auto implicit = RunWith("");
  auto explicit_direct = RunWith("direct");
  EXPECT_EQ(explicit_direct->metrics().ToJson(), implicit->metrics().ToJson());
  EXPECT_EQ(explicit_direct->sim_seconds(), implicit->sim_seconds());
  EXPECT_EQ(explicit_direct->canonical_state().GlobalRoot(),
            implicit->canonical_state().GlobalRoot());
}

// Aggregated exports stay byte-identical across compute-pool widths: relay
// flush order, chunk reconstruction, and cert assembly are all driven by
// sim time, never by worker scheduling.
TEST(DisseminationTest, TreeExportsAreThreadInvariant) {
  unsetenv("PORYGON_THREADS");
  auto serial = RunWith("tree");
  const std::string metrics = serial->metrics().ToJson();
  const std::string reports = serial->critical_path().ReportsJson();
  // End-to-end digests of the serial run, pinned: a change that moves a
  // sim number, the chain or the state must re-pin them and say why.
  EXPECT_EQ(HexEncode(serial->chain().back().Hash()),
            "2f170a5e6cb3afc03884145ba731d708808e310d875a10715b19e09eed0fa415");
  EXPECT_EQ(HexEncode(serial->canonical_state().GlobalRoot()),
            "36f412263b3a25ee820a27ea81dd0bacc9b250b2fd340d0ec07a3d5e698c2266");
  EXPECT_EQ(HexEncode(crypto::Sha256::Hash(ToBytes(metrics))),
            "c133ec38132a1b9ca1a0b0663d2530fb371c4deb5576cf5dc70a153a36c58a48");
  for (int threads : {1, 4}) {
    auto run = RunWith("tree", "", "", threads);
    EXPECT_EQ(run->metrics().ToJson(), metrics) << threads << " threads";
    EXPECT_EQ(run->critical_path().ReportsJson(), reports)
        << threads << " threads";
    EXPECT_EQ(run->sim_seconds(), serial->sim_seconds())
        << threads << " threads";
  }
}

// Byzantine relays that equivocate (ship two different aggregates for the
// same batch) are caught by the leader's content-hash cross-check, leave
// attributable evidence, and cannot change what commits. Continuous load
// keeps multi-block aggregates flowing so many round-rotated relay
// elections land on corrupted nodes; the extra adversary traffic shifts
// round timing, so the safety bar is the committed tx set and final
// GlobalRoot rather than per-round block identity.
TEST(DisseminationTest, EquivocatingRelayLeavesEvidenceWithoutBreakingSafety) {
  unsetenv("PORYGON_THREADS");
  auto clean = RunWith("tree", "", "", 0, /*continuous=*/true);
  auto adv = RunWith("tree", "stateless:equivocate,alpha:0.25", "", 0,
                     /*continuous=*/true);
  EXPECT_GT(Evidence(*adv, "relay_equivocation"), 0u);
  EXPECT_GT(adv->adversary()->evidence(), 0u);
  // Safety and liveness: every transaction the clean run commits still
  // commits, and the honest nodes converge on the same final state.
  ASSERT_GT(clean->metrics().committed_txs(), 0u);
  EXPECT_EQ(adv->metrics().committed_txs(), clean->metrics().committed_txs());
  EXPECT_EQ(adv->canonical_state().GlobalRoot(),
            clean->canonical_state().GlobalRoot());
  EXPECT_EQ(adv->metrics().replay_mismatches(), 0u);
  EXPECT_EQ(MetricsDigest(*adv),
            "416e74676181f6e17c3044032e9c8d52122e81a7742bad7a8dcf6f2f71a08e36");
}

// Withholding relays (silent strategy drops every message, including relay
// duties) degrade their paths back to direct fan-out: rounds keep closing
// and the honest chain still commits.
TEST(DisseminationTest, SilentRelaysDegradeToDirectWithoutStalling) {
  unsetenv("PORYGON_THREADS");
  auto direct = RunWith("direct", "stateless:silent,alpha:0.25");
  auto tree = RunWith("tree", "stateless:silent,alpha:0.25");
  ASSERT_GT(direct->metrics().committed_blocks(), 0u);
  EXPECT_EQ(tree->metrics().committed_blocks(),
            direct->metrics().committed_blocks());
  EXPECT_EQ(ChainHashes(*tree), ChainHashes(*direct));
  EXPECT_EQ(tree->canonical_state().GlobalRoot(),
            direct->canonical_state().GlobalRoot());
  EXPECT_EQ(tree->metrics().replay_mismatches(), 0u);
  EXPECT_EQ(MetricsDigest(*tree),
            "b2abd08492549ef0e9d4d8a09545af6a10e467f2989262d46c77efe0a15888d5");
}

// Crashed stateless nodes (which may hold relay elections for their shard)
// are skipped by the arithmetic election's crash check; the run stays live.
TEST(DisseminationTest, CrashedRelayFallsBackToDirectPaths) {
  unsetenv("PORYGON_THREADS");
  auto tree = RunWith("tree", "", "crash:4:1,crash:5:1");
  EXPECT_GT(tree->metrics().committed_blocks(), 0u);
  EXPECT_GT(tree->metrics().committed_txs(), 0u);
  EXPECT_EQ(tree->metrics().replay_mismatches(), 0u);
  EXPECT_EQ(MetricsDigest(*tree),
            "a7d1312edadee947c5d9048397fe99cbc8537e8d297675783a5a22edd543c9cd");
}

}  // namespace
}  // namespace porygon
