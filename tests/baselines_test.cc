// Baseline-system tests: Blockene (1D stateless) and ByShard (sharded full
// nodes) commit transactions correctly and expose the qualitative gaps the
// paper measures (no pipelining => lower throughput; full nodes => growing
// storage).

#include <gtest/gtest.h>

#include <map>

#include "baselines/blockene.h"
#include "baselines/byshard.h"
#include "simulation/model.h"
#include "workload/generator.h"

namespace porygon::baselines {
namespace {

tx::Transaction Transfer(uint64_t from, uint64_t to, uint64_t amount,
                         uint64_t nonce) {
  tx::Transaction t;
  t.from = from;
  t.to = to;
  t.amount = amount;
  t.nonce = nonce;
  return t;
}

TEST(BlockeneTest, CommitsTransactionsSequentially) {
  BlockeneOptions opt;
  opt.num_stateless_nodes = 20;
  opt.committee_size = 5;
  opt.block_tx_limit = 100;
  BlockeneSystem sys(opt);
  sys.CreateAccounts(50, 1'000);
  for (uint64_t i = 1; i <= 30; ++i) {
    ASSERT_TRUE(sys.SubmitTransaction(Transfer(i, i % 50 + 1, 3, 0)));
  }
  sys.Run(5);
  EXPECT_EQ(sys.metrics().committed_txs, 30u);
  EXPECT_GE(sys.metrics().committed_blocks, 1u);

  uint64_t total = 0;
  for (uint64_t id = 1; id <= 50; ++id) {
    total += sys.state().GetOrDefault(id).balance;
  }
  EXPECT_EQ(total, 50u * 1'000u);
}

TEST(BlockeneTest, RoundsAreLongBecausePhasesSerialize) {
  BlockeneOptions opt;
  opt.num_stateless_nodes = 20;
  opt.committee_size = 5;
  opt.block_tx_limit = 2000;
  BlockeneSystem sys(opt);
  sys.CreateAccounts(3000, 1'000);
  workload::WorkloadGenerator gen({.num_accounts = 3000, .shard_bits = 0});
  for (const auto& t : gen.Batch(6000)) sys.SubmitTransaction(t);
  sys.Run(3);
  // Round >= reconfig (2s) + download + order + execute + commit phases.
  double mean_block =
      BlockeneMetrics{}.Tps(1) == 0  // Silence unused-warning pattern.
          ? 0
          : 0;
  (void)mean_block;
  ASSERT_FALSE(sys.metrics().block_latencies_s.empty());
  double mean = 0;
  for (double v : sys.metrics().block_latencies_s) mean += v;
  mean /= sys.metrics().block_latencies_s.size();
  EXPECT_GT(mean, 5.0);  // Sequential phases: > 5 s per block.
}

TEST(BlockeneTest, ChurnCausesEmptyRounds) {
  BlockeneOptions opt;
  opt.num_stateless_nodes = 30;
  opt.committee_size = 10;
  opt.block_tx_limit = 50;
  opt.mean_session_s = 5.0;  // Much shorter than the 50-round tenure.
  BlockeneSystem sys(opt);
  sys.CreateAccounts(100, 1'000);
  workload::WorkloadGenerator gen({.num_accounts = 100, .shard_bits = 0});
  for (const auto& t : gen.Batch(2000)) sys.SubmitTransaction(t);
  sys.Run(12);
  EXPECT_GT(sys.metrics().empty_rounds, 0u);
}

TEST(ByshardTest, CommitsIntraAndCrossShard) {
  ByshardOptions opt;
  opt.shard_bits = 1;
  opt.nodes_per_shard = 4;
  opt.block_tx_limit = 100;
  ByshardSystem sys(opt);
  sys.CreateAccounts(40, 1'000);

  // 2->4 intra (both even), 1->4 cross.
  ASSERT_TRUE(sys.SubmitTransaction(Transfer(2, 4, 10, 0)));
  ASSERT_TRUE(sys.SubmitTransaction(Transfer(1, 4, 5, 0)));
  sys.Run(4);

  EXPECT_EQ(sys.metrics().committed_intra_txs, 1u);
  EXPECT_EQ(sys.metrics().committed_cross_txs, 1u);
  EXPECT_EQ(sys.state().GetOrDefault(2).balance, 990u);
  EXPECT_EQ(sys.state().GetOrDefault(4).balance, 1015u);
  EXPECT_EQ(sys.state().GetOrDefault(1).balance, 995u);
}

TEST(ByshardTest, CommitsBothCrossShardTransfersOfOneSenderInOneBlock) {
  ByshardOptions opt;
  opt.shard_bits = 1;
  opt.nodes_per_shard = 4;
  opt.block_tx_limit = 100;
  ByshardSystem sys(opt);
  sys.CreateAccounts(40, 1'000);

  // 2 -> 3 twice (shard 0 to shard 1), nonces 0 and 1, one block: the
  // second transfer's first phase reads the first one's debit.
  ASSERT_TRUE(sys.SubmitTransaction(Transfer(2, 3, 10, 0)));
  ASSERT_TRUE(sys.SubmitTransaction(Transfer(2, 3, 20, 1)));
  sys.Run(4);

  EXPECT_EQ(sys.metrics().committed_cross_txs, 2u);
  EXPECT_EQ(sys.state().GetOrDefault(2).nonce, 2u);
  EXPECT_EQ(sys.state().GetOrDefault(2).balance, 970u);
  EXPECT_EQ(sys.state().GetOrDefault(3).balance, 1030u);
}

TEST(ByshardTest, BalanceConservedUnderMixedLoad) {
  ByshardOptions opt;
  opt.shard_bits = 2;
  opt.nodes_per_shard = 4;
  opt.block_tx_limit = 200;
  ByshardSystem sys(opt);
  sys.CreateAccounts(100, 500);
  workload::WorkloadGenerator gen(
      {.num_accounts = 100, .shard_bits = 2, .seed = 9});
  for (const auto& t : gen.Batch(300)) sys.SubmitTransaction(t);
  sys.Run(6);
  uint64_t total = 0;
  for (uint64_t id = 1; id <= 100; ++id) {
    total += sys.state().GetOrDefault(id).balance;
  }
  EXPECT_EQ(total, 100u * 500u);
  EXPECT_GT(sys.metrics().committed_intra_txs +
                sys.metrics().committed_cross_txs,
            0u);
}

TEST(ByshardTest, FullNodeStorageGrowsWithHeight) {
  ByshardOptions opt;
  opt.shard_bits = 1;
  opt.nodes_per_shard = 4;
  opt.block_tx_limit = 500;
  ByshardSystem sys(opt);
  sys.CreateAccounts(2000, 1'000);
  workload::WorkloadGenerator gen(
      {.num_accounts = 2000, .shard_bits = 1, .seed = 4});
  for (const auto& t : gen.Batch(3000)) sys.SubmitTransaction(t);
  sys.Run(3);
  uint64_t early = sys.NodeStorageBytes(0);
  for (const auto& t : gen.Batch(3000)) sys.SubmitTransaction(t);
  sys.Run(3);
  uint64_t later = sys.NodeStorageBytes(0);
  EXPECT_GT(later, early);  // Chains grow; Porygon's stateless nodes don't.
}

}  // namespace
}  // namespace porygon::baselines

namespace porygon::workload {
namespace {

TEST(WorkloadTest, NoncesAreConsecutivePerSender) {
  WorkloadGenerator gen({.num_accounts = 10, .shard_bits = 1, .seed = 2});
  std::map<uint64_t, uint64_t> next_nonce;
  for (const auto& t : gen.Batch(500)) {
    EXPECT_EQ(t.nonce, next_nonce[t.from]++);
    EXPECT_NE(t.from, t.to);
    EXPECT_GE(t.from, 1u);
    EXPECT_LE(t.from, 10u);
  }
}

TEST(WorkloadTest, CrossShardRatioIsRespected) {
  Spec opt;
  opt.num_accounts = 10'000;
  opt.shard_bits = 2;
  opt.seed = 3;
  for (double ratio : {0.0, 0.3, 0.7, 1.0}) {
    opt.cross_shard_ratio = ratio;
    WorkloadGenerator gen(opt);
    int cross = 0;
    const int n = 4000;
    for (const auto& t : gen.Batch(n)) {
      if (t.IsCrossShard(2)) ++cross;
    }
    EXPECT_NEAR(static_cast<double>(cross) / n, ratio, 0.05) << ratio;
  }
}

TEST(WorkloadTest, ZipfSkewsSenders) {
  Spec opt;
  opt.num_accounts = 1000;
  opt.zipf_s = 1.1;
  opt.seed = 5;
  WorkloadGenerator gen(opt);
  std::map<uint64_t, int> counts;
  for (const auto& t : gen.Batch(5000)) counts[t.from]++;
  // The most popular sender appears far more often than the mean (5).
  int max_count = 0;
  for (const auto& [id, c] : counts) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, 100);
}

}  // namespace
}  // namespace porygon::workload

namespace porygon::sim {
namespace {

TEST(ModelTest, ThroughputScalesWithShards) {
  ModelConfig cfg;
  cfg.shards = 10;
  double tps10 = EstimatePorygon(cfg).tps;
  cfg.shards = 50;
  double tps50 = EstimatePorygon(cfg).tps;
  EXPECT_GT(tps50, 3.0 * tps10);  // Near-linear scaling (Fig 7b).
  EXPECT_LT(tps50, 5.5 * tps10);
}

TEST(ModelTest, PipeliningImprovesThroughput) {
  ModelConfig cfg;
  cfg.shards = 1;
  cfg.sharding = false;
  cfg.pipelining = false;
  double without = EstimatePorygon(cfg).tps;
  cfg.pipelining = true;
  double with = EstimatePorygon(cfg).tps;
  EXPECT_GT(with, without);  // Fig 7c/7d second bar.
}

TEST(ModelTest, CrossShardRatioDegradesGracefully) {
  ModelConfig cfg;
  cfg.shards = 10;
  cfg.cross_shard_ratio = 0.5;
  auto lo = EstimatePorygon(cfg);
  cfg.cross_shard_ratio = 1.0;
  auto hi = EstimatePorygon(cfg);
  // Table I: ~4% throughput drop, slight latency increase.
  EXPECT_LT(hi.tps, lo.tps);
  EXPECT_GT(hi.tps, 0.9 * lo.tps);
  EXPECT_GT(hi.block_latency_s, lo.block_latency_s);
  EXPECT_LT(hi.block_latency_s, lo.block_latency_s + 1.0);
}

TEST(ModelTest, PorygonBeatsBaselinesAtScale) {
  ModelConfig cfg;
  cfg.shards = 10;
  double porygon = EstimatePorygon(cfg).tps;
  double blockene = EstimateBlockene(cfg).tps;
  // ByShard at prototype scale: 10 full nodes per shard, 1,000-tx blocks
  // (§VI: "Blocks in both systems contain about 1,000 transactions").
  ModelConfig bys = cfg;
  bys.nodes_per_shard = 10;
  bys.txs_per_block = 1000;
  double byshard = EstimateByshard(bys).tps;
  EXPECT_GT(porygon, 2.0 * byshard);    // Paper: ~2.3x sharding systems.
  EXPECT_GT(porygon, 10.0 * blockene);  // Paper: ~20x stateless systems.
  EXPECT_GT(byshard, blockene);
}

TEST(ModelTest, OfferedLoadCapsThroughput) {
  ModelConfig cfg;
  cfg.shards = 10;
  cfg.offered_tps = 1000;
  EXPECT_DOUBLE_EQ(EstimatePorygon(cfg).tps, 1000);
}

}  // namespace
}  // namespace porygon::sim
