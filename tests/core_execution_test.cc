// Shard executor tests: transfer semantics, determinism, failure recording,
// cross-shard pre-execution, update application, and the one-list input
// (intra-shard records first, then cross-shard, each in list order).

#include <gtest/gtest.h>

#include "core/execution.h"

namespace porygon::core {
namespace {

using state::Account;
using state::ShardedState;
using tx::StateUpdate;
using tx::Transaction;
using tx::TxAccess;

// The access record of a transfer, under its real id.
TxAccess Transfer(uint64_t from, uint64_t to, uint64_t amount,
                  uint64_t nonce) {
  Transaction t;
  t.from = from;
  t.to = to;
  t.amount = amount;
  t.nonce = nonce;
  return tx::ToAccess(t, t.Id());
}

class ExecutionTest : public ::testing::Test {
 protected:
  ExecutionTest() : state_(1) {  // 2 shards: even ids -> 0, odd -> 1.
    state_.PutAccount(2, {1000, 0});   // Shard 0.
    state_.PutAccount(4, {500, 0});    // Shard 0.
    state_.PutAccount(3, {800, 0});    // Shard 1.
  }
  ShardedState state_;
};

TEST_F(ExecutionTest, IntraShardTransferApplies) {
  ExecutionInput in;
  in.shard = 0;
  in.txs = {Transfer(2, 4, 100, 0)};
  auto result = ShardExecutor::Execute(&state_, in);
  EXPECT_EQ(result.intra_applied, 1u);
  EXPECT_TRUE(result.failed.empty());
  EXPECT_EQ(state_.GetOrDefault(2).balance, 900u);
  EXPECT_EQ(state_.GetOrDefault(2).nonce, 1u);
  EXPECT_EQ(state_.GetOrDefault(4).balance, 600u);
  EXPECT_EQ(result.shard_root, state_.ShardRoot(0));
}

TEST_F(ExecutionTest, TransferToFreshAccountCreatesIt) {
  ExecutionInput in;
  in.shard = 0;
  in.txs = {Transfer(2, 100, 50, 0)};  // 100 is even: shard 0, new.
  auto result = ShardExecutor::Execute(&state_, in);
  EXPECT_EQ(result.intra_applied, 1u);
  EXPECT_EQ(state_.GetOrDefault(100).balance, 50u);
}

TEST_F(ExecutionTest, InsufficientBalanceFails) {
  ExecutionInput in;
  in.shard = 0;
  in.txs = {Transfer(4, 2, 10000, 0)};
  auto result = ShardExecutor::Execute(&state_, in);
  EXPECT_EQ(result.intra_applied, 0u);
  ASSERT_EQ(result.failed.size(), 1u);
  EXPECT_EQ(result.failed[0].reason, TxFailure::kInsufficientBalance);
  EXPECT_EQ(state_.GetOrDefault(4).balance, 500u);  // Unchanged.
}

TEST_F(ExecutionTest, ReplayRejectedByNonce) {
  ExecutionInput in;
  in.shard = 0;
  in.txs = {Transfer(2, 4, 100, 0), Transfer(2, 4, 100, 0)};
  auto result = ShardExecutor::Execute(&state_, in);
  EXPECT_EQ(result.intra_applied, 1u);  // Second is a duplicate.
  ASSERT_EQ(result.failed.size(), 1u);
  EXPECT_EQ(result.failed[0].reason, TxFailure::kBadNonce);
  EXPECT_EQ(state_.GetOrDefault(2).balance, 900u);  // Debited once.
}

TEST_F(ExecutionTest, SequentialNoncesChainWithinOneBlock) {
  ExecutionInput in;
  in.shard = 0;
  in.txs = {Transfer(2, 4, 100, 0), Transfer(2, 4, 100, 1)};
  auto result = ShardExecutor::Execute(&state_, in);
  EXPECT_EQ(result.intra_applied, 2u);
  EXPECT_EQ(state_.GetOrDefault(2).balance, 800u);
  EXPECT_EQ(state_.GetOrDefault(2).nonce, 2u);
}

TEST_F(ExecutionTest, WrongShardSenderRejected) {
  ExecutionInput in;
  in.shard = 0;
  in.txs = {Transfer(3, 2, 10, 0)};  // 3 lives in shard 1.
  auto result = ShardExecutor::Execute(&state_, in);
  EXPECT_EQ(result.intra_applied, 0u);
  ASSERT_EQ(result.failed.size(), 1u);
  EXPECT_EQ(result.failed[0].reason, TxFailure::kWrongShard);
}

TEST_F(ExecutionTest, CrossShardPreExecutionDoesNotMutateState) {
  auto root_before = state_.ShardRoot(0);
  ExecutionInput in;
  in.shard = 0;
  in.txs = {Transfer(2, 3, 200, 0)};  // 2 (shard 0) -> 3 (shard 1).
  auto result = ShardExecutor::Execute(&state_, in);
  EXPECT_EQ(result.cross_pre_executed, 1u);
  // No subtree mutation.
  EXPECT_EQ(state_.ShardRoot(0), root_before);
  EXPECT_EQ(state_.GetOrDefault(2).balance, 1000u);
  // S contains final values for both accounts.
  ASSERT_EQ(result.cross_updates.size(), 2u);
  EXPECT_EQ(result.cross_updates[0].account, 2u);
  EXPECT_EQ(result.cross_updates[0].value.balance, 800u);
  EXPECT_EQ(result.cross_updates[0].value.nonce, 1u);
  EXPECT_EQ(result.cross_updates[1].account, 3u);
  EXPECT_EQ(result.cross_updates[1].value.balance, 1000u);
}

TEST_F(ExecutionTest, SameRoundCrossShardTransactionsCompose) {
  ExecutionInput in;
  in.shard = 0;
  in.txs = {Transfer(2, 3, 100, 0), Transfer(2, 3, 100, 1)};
  auto result = ShardExecutor::Execute(&state_, in);
  EXPECT_EQ(result.cross_pre_executed, 2u);
  ASSERT_EQ(result.cross_updates.size(), 2u);
  EXPECT_EQ(result.cross_updates[0].value.balance, 800u);  // Sender 2.
  EXPECT_EQ(result.cross_updates[0].value.nonce, 2u);
  EXPECT_EQ(result.cross_updates[1].value.balance, 1000u);  // Receiver 3.
}

TEST_F(ExecutionTest, UpdateListAppliesDirectly) {
  ExecutionInput in;
  in.shard = 1;
  in.updates = {{3, {123, 9}}};
  auto result = ShardExecutor::Execute(&state_, in);
  EXPECT_EQ(state_.GetOrDefault(3).balance, 123u);
  EXPECT_EQ(state_.GetOrDefault(3).nonce, 9u);
  EXPECT_EQ(result.shard_root, state_.ShardRoot(1));
}

TEST_F(ExecutionTest, UpdatesForForeignShardIgnored) {
  ExecutionInput in;
  in.shard = 1;
  in.updates = {{2, {1, 1}}};  // Account 2 belongs to shard 0.
  ShardExecutor::Execute(&state_, in);
  EXPECT_EQ(state_.GetOrDefault(2).balance, 1000u);  // Untouched.
}

TEST_F(ExecutionTest, ExecutionIsDeterministicAcrossReplicas) {
  // Two replicas with identical state and inputs produce identical roots
  // and S sets (Lemma 3's premise).
  ShardedState replica(1);
  replica.PutAccount(2, {1000, 0});
  replica.PutAccount(4, {500, 0});
  replica.PutAccount(3, {800, 0});

  ExecutionInput in;
  in.shard = 0;
  in.txs = {Transfer(2, 4, 10, 0), Transfer(4, 2, 5, 0),
            Transfer(2, 3, 20, 1)};

  auto r1 = ShardExecutor::Execute(&state_, in);
  auto r2 = ShardExecutor::Execute(&replica, in);
  EXPECT_EQ(r1.shard_root, r2.shard_root);
  EXPECT_EQ(r1.cross_updates.size(), r2.cross_updates.size());
  for (size_t i = 0; i < r1.cross_updates.size(); ++i) {
    EXPECT_EQ(r1.cross_updates[i], r2.cross_updates[i]);
  }
}

TEST_F(ExecutionTest, InterleavedListAppliesIntraRecordsFirst) {
  // Block order lists a cross-shard transfer from sender 2 before the
  // intra-shard one that bumps its nonce; the executor still applies every
  // intra-shard record first, so the result equals that of the two
  // sub-lists run intra then cross.
  const TxAccess c1 = Transfer(2, 3, 300, 1);     // Cross; needs i1 first.
  const TxAccess i1 = Transfer(2, 4, 100, 0);     // Intra.
  const TxAccess c2 = Transfer(4, 3, 9'999, 0);   // Cross; balance fails.
  const TxAccess i2 = Transfer(4, 2, 10'000, 0);  // Intra; balance fails.
  const TxAccess i3 = Transfer(2, 4, 50, 5);      // Intra; nonce fails.

  ShardedState replica(1);
  replica.PutAccount(2, {1000, 0});
  replica.PutAccount(4, {500, 0});
  replica.PutAccount(3, {800, 0});

  ExecutionInput interleaved;
  interleaved.txs = {c1, i1, c2, i2, i3};
  ExecutionInput split;
  split.txs = {i1, i2, i3, c1, c2};
  const ExecutionResult r = ShardExecutor::Execute(&state_, interleaved);
  const ExecutionResult want = ShardExecutor::Execute(&replica, split);

  EXPECT_EQ(r.intra_applied, 1u);
  EXPECT_EQ(r.cross_pre_executed, 1u);
  EXPECT_EQ(state_.GetOrDefault(2), (Account{900, 1}));
  EXPECT_EQ(state_.GetOrDefault(4), (Account{600, 0}));
  EXPECT_EQ(r.cross_updates,
            (std::vector<StateUpdate>{{2, {600, 2}}, {3, {1100, 0}}}));
  ASSERT_EQ(r.failed.size(), 3u);
  EXPECT_EQ(r.failed[0].id, i2.id);
  EXPECT_EQ(r.failed[0].reason, TxFailure::kInsufficientBalance);
  EXPECT_EQ(r.failed[1].id, i3.id);
  EXPECT_EQ(r.failed[1].reason, TxFailure::kBadNonce);
  EXPECT_EQ(r.failed[2].id, c2.id);
  EXPECT_EQ(r.failed[2].reason, TxFailure::kInsufficientBalance);

  EXPECT_EQ(r.shard_root, want.shard_root);
  EXPECT_EQ(r.cross_updates, want.cross_updates);
  EXPECT_EQ(r.intra_applied, want.intra_applied);
  EXPECT_EQ(r.cross_pre_executed, want.cross_pre_executed);
  ASSERT_EQ(r.failed.size(), want.failed.size());
  for (size_t i = 0; i < r.failed.size(); ++i) {
    EXPECT_EQ(r.failed[i].id, want.failed[i].id) << i;
    EXPECT_EQ(r.failed[i].reason, want.failed[i].reason) << i;
  }
}

TEST_F(ExecutionTest, FailuresAreReportedUnderTheRecordsId) {
  // The executor never re-hashes a record: a failure carries the id the
  // record came with, here ids that are no hash of the fields at all.
  auto with_id = [](TxAccess a, uint8_t fill) {
    a.id.fill(fill);
    return a;
  };
  ExecutionInput in;
  in.txs = {
      with_id(Transfer(4, 2, 10'000, 0), 0xa1),  // Intra; balance fails.
      with_id(Transfer(3, 5, 1, 0), 0xa2),       // Intra in shard 1.
      with_id(Transfer(2, 3, 1, 7), 0xa3),       // Cross; nonce fails.
  };
  const ExecutionResult r = ShardExecutor::Execute(&state_, in);
  ASSERT_EQ(r.failed.size(), 3u);
  for (size_t i = 0; i < r.failed.size(); ++i) {
    EXPECT_EQ(r.failed[i].id, in.txs[i].id) << i;
  }
  EXPECT_EQ(r.failed[0].reason, TxFailure::kInsufficientBalance);
  EXPECT_EQ(r.failed[1].reason, TxFailure::kWrongShard);
  EXPECT_EQ(r.failed[2].reason, TxFailure::kBadNonce);
}

}  // namespace
}  // namespace porygon::core
