// Additional system-level coverage: churn, phase-traffic accounting,
// adversarial combinations, committee-formation messages, and the
// large-scale model's phase outputs.

#include <gtest/gtest.h>

#include "baselines/blockene.h"
#include "core/system.h"
#include "simulation/model.h"
#include "workload/generator.h"

namespace porygon::core {
namespace {

SystemOptions BaseOptions() {
  SystemOptions opt;
  opt.params.shard_bits = 1;
  opt.params.witness_threshold = 2;
  opt.params.execution_threshold = 2;
  opt.params.block_tx_limit = 50;
  opt.params.storage_connections = 2;
  opt.num_storage_nodes = 2;
  opt.num_stateless_nodes = 26;
  opt.oc_size = 4;
  opt.blocks_per_shard_round = 2;
  opt.seed = 7;
  return opt;
}

void SubmitUniform(PorygonSystem* sys, workload::WorkloadGenerator* gen,
                   size_t n) {
  for (const auto& t : gen->Batch(n)) sys->SubmitTransaction(t);
}

TEST(SystemChurnTest, SurvivesShortSessions) {
  SystemOptions opt = BaseOptions();
  opt.num_stateless_nodes = 40;
  opt.mean_session_s = 20.0;  // Much shorter than the run.
  PorygonSystem sys(opt);
  sys.CreateAccounts(10'000, 100'000);
  workload::WorkloadGenerator gen(
      {.num_accounts = 10'000, .shard_bits = 1, .seed = 3});
  for (int r = 0; r < 12; ++r) {
    SubmitUniform(&sys, &gen, 200);
    sys.Run(1);
  }
  // Progress despite constant churn (EC lifecycles are 3 rounds).
  EXPECT_GT(sys.metrics().committed_intra_txs() +
                sys.metrics().committed_cross_txs(),
            100u);
  EXPECT_EQ(sys.metrics().replay_mismatches(), 0u);
}

TEST(SystemTest, PhaseTrafficAccountingCoversAllPhases) {
  PorygonSystem sys(BaseOptions());
  sys.CreateAccounts(10'000, 100'000);
  workload::WorkloadGenerator gen(
      {.num_accounts = 10'000, .shard_bits = 1, .seed = 2});
  for (int r = 0; r < 10; ++r) {
    SubmitUniform(&sys, &gen, 150);
    sys.Run(1);
  }
  auto phases = sys.StatelessPhaseTraffic();
  // Witness (0), Ordering (1), Execution (2), Commit (3) all carry bytes.
  for (int p = 0; p < 4; ++p) {
    EXPECT_GT(phases[p], 0.0) << "phase " << p;
  }
  // Witness and execution dominate ordering for stateless nodes at this
  // scale (bulk data phases).
  EXPECT_GT(phases[0] + phases[2], phases[1]);
}

TEST(SystemTest, MaliciousStorageAndStatelessCombined) {
  SystemOptions opt = BaseOptions();
  opt.num_storage_nodes = 4;
  opt.num_stateless_nodes = 40;
  opt.adversary.storage = AdvStrategy::kWithhold;
  opt.adversary.beta = 0.25;  // 1 of 4 withholds bodies.
  opt.adversary.stateless = AdvStrategy::kSilent;
  opt.adversary.alpha = 0.15;  // Silent minority.
  opt.adversary.seed = opt.seed;
  PorygonSystem sys(opt);
  sys.CreateAccounts(10'000, 100'000);
  workload::WorkloadGenerator gen(
      {.num_accounts = 10'000, .shard_bits = 1, .seed = 11});
  for (int r = 0; r < 12; ++r) {
    SubmitUniform(&sys, &gen, 200);
    sys.Run(1);
  }
  EXPECT_GT(sys.metrics().committed_intra_txs() +
                sys.metrics().committed_cross_txs(),
            0u);
  EXPECT_EQ(sys.metrics().replay_mismatches(), 0u);
}

TEST(SystemTest, ChainExtendsByHashLinks) {
  PorygonSystem sys(BaseOptions());
  sys.CreateAccounts(100, 1'000);
  sys.Run(6);
  const auto& chain = sys.chain();
  ASSERT_GE(chain.size(), 6u);
  for (size_t i = 1; i < chain.size(); ++i) {
    EXPECT_EQ(chain[i].prev_hash, chain[i - 1].Hash()) << i;
    EXPECT_EQ(chain[i].height, i);
    EXPECT_EQ(chain[i].round, i);
  }
}

TEST(SystemTest, CommittedStateRootMatchesAggregatedShardRoots) {
  PorygonSystem sys(BaseOptions());
  sys.CreateAccounts(1'000, 10'000);
  workload::WorkloadGenerator gen(
      {.num_accounts = 1'000, .shard_bits = 1, .seed = 13});
  for (int r = 0; r < 8; ++r) {
    SubmitUniform(&sys, &gen, 100);
    sys.Run(1);
  }
  for (const auto& block : sys.chain()) {
    if (block.shard_roots.empty()) continue;
    EXPECT_EQ(block.state_root,
              state::ShardedState::AggregateRoots(block.shard_roots));
  }
}

TEST(SystemTest, DiscardedTransactionsAreAccountedNotCommitted) {
  PorygonSystem sys(BaseOptions());
  sys.CreateAccounts(100, 10'000);
  // Two cross-shard transfers touching the same receiver in one round: one
  // must be conflict-discarded (§IV-D2).
  tx::Transaction a;
  a.from = 2;
  a.to = 5;
  a.amount = 10;
  a.nonce = 0;
  tx::Transaction b;
  b.from = 4;
  b.to = 5;
  b.amount = 10;
  b.nonce = 0;
  sys.SubmitTransaction(a);
  sys.SubmitTransaction(b);
  sys.Run(10);
  const auto m = sys.metrics();
  EXPECT_EQ(m.committed_cross_txs(), 1u);
  EXPECT_GE(m.discarded_txs(), 1u);
  // Exactly one transfer landed on top of the initial funding.
  EXPECT_EQ(sys.canonical_state().GetOrDefault(5).balance, 10'010u);
}

TEST(SystemTest, SeedsChangeOutcomesDeterministically) {
  auto run = [](uint64_t seed) {
    SystemOptions opt = BaseOptions();
    opt.seed = seed;
    PorygonSystem sys(opt);
    sys.CreateAccounts(100, 1'000);
    sys.Run(4);
    return sys.chain().back().Hash();
  };
  EXPECT_EQ(run(1), run(1));
  EXPECT_NE(run(1), run(2));  // Different keys/topology -> different chain.
}

}  // namespace
}  // namespace porygon::core

namespace porygon::sim {
namespace {

TEST(ModelExtraTest, PhaseBytesArePopulatedAndOrdered) {
  ModelConfig cfg;
  cfg.shards = 10;
  auto r = EstimatePorygon(cfg);
  // Witness moves full blocks; execution moves states; both dwarf commit.
  EXPECT_GT(r.phase_bytes[0], 0.0);
  EXPECT_GT(r.phase_bytes[2], 0.0);
  EXPECT_GT(r.phase_bytes[0], r.phase_bytes[3]);
}

TEST(ModelExtraTest, ByshardLeaderUploadScalesWithShardSize) {
  ModelConfig small;
  small.nodes_per_shard = 10;
  small.txs_per_block = 1000;
  ModelConfig big = small;
  big.nodes_per_shard = 40;
  // Bigger shards = more replication time = lower throughput.
  EXPECT_GT(EstimateByshard(small).tps, EstimateByshard(big).tps);
}

TEST(ModelExtraTest, BlockeneRoundIsSequentialSum) {
  ModelConfig cfg;
  auto blockene = EstimateBlockene(cfg);
  ModelConfig pipelined = cfg;
  pipelined.sharding = false;
  auto porygon_1shard = EstimatePorygon(pipelined);
  // The sequential committee's round exceeds the pipelined round.
  EXPECT_GT(blockene.round_s, porygon_1shard.round_s);
}

}  // namespace
}  // namespace porygon::sim
