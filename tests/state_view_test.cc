// PartialState tests: a stateless node reconstructing a shard subtree from
// Merkle proofs must read the same values and, after identical writes,
// produce the same root as a full replica — the heart of stateless
// execution (§IV-C1(c)).

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/execution.h"
#include "state/sharded_state.h"
#include "state/view.h"

namespace porygon::state {
namespace {

TEST(PartialStateTest, InjectedAccountsReadBack) {
  ShardedState full(1);
  full.PutAccount(2, {100, 1});
  full.PutAccount(4, {200, 0});

  PartialState partial(1, 0, full.ShardRoot(0));
  ASSERT_TRUE(partial.AddOwnAccount(2, true, {100, 1}, full.ProveAccount(2))
                  .ok());
  ASSERT_TRUE(partial.AddOwnAccount(4, true, {200, 0}, full.ProveAccount(4))
                  .ok());
  EXPECT_EQ(partial.GetOrDefault(2).balance, 100u);
  EXPECT_EQ(partial.GetOrDefault(4).balance, 200u);
  EXPECT_EQ(partial.ShardRoot(0), full.ShardRoot(0));
}

TEST(PartialStateTest, BadProofRejected) {
  ShardedState full(1);
  full.PutAccount(2, {100, 1});
  PartialState partial(1, 0, full.ShardRoot(0));
  // Claim a different balance than proven.
  EXPECT_FALSE(
      partial.AddOwnAccount(2, true, {999, 1}, full.ProveAccount(2)).ok());
  // Claim presence of an absent account.
  EXPECT_FALSE(
      partial.AddOwnAccount(4, true, {5, 0}, full.ProveAccount(4)).ok());
}

TEST(PartialStateTest, AbsenceProofAllowsCreation) {
  ShardedState full(1);
  full.PutAccount(2, {100, 0});
  PartialState partial(1, 0, full.ShardRoot(0));
  ASSERT_TRUE(partial.AddOwnAccount(2, true, {100, 0}, full.ProveAccount(2))
                  .ok());
  ASSERT_TRUE(
      partial.AddOwnAccount(6, false, {}, full.ProveAccount(6)).ok());

  // Write the fresh account on both sides; roots must match.
  partial.PutAccountBatch(0, {{6, {42, 0}}});
  full.PutAccount(6, {42, 0});
  EXPECT_EQ(partial.ShardRoot(0), full.ShardRoot(0));
}

TEST(PartialStateTest, ForeignAccountsVerifiedAgainstTheirShardRoot) {
  ShardedState full(1);
  full.PutAccount(3, {700, 2});  // Shard 1.
  PartialState partial(1, 0, full.ShardRoot(0));
  ASSERT_TRUE(partial
                  .AddForeignAccount(3, true, {700, 2}, full.ProveAccount(3),
                                     full.ShardRoot(1))
                  .ok());
  EXPECT_EQ(partial.GetOrDefault(3).balance, 700u);
  // Wrong root rejected.
  PartialState p2(1, 0, full.ShardRoot(0));
  EXPECT_FALSE(p2.AddForeignAccount(3, true, {700, 2}, full.ProveAccount(3),
                                    crypto::ZeroHash())
                   .ok());
}

TEST(PartialStateTest, StatelessExecutionMatchesFullReplica) {
  // Drive the real ShardExecutor over both views with a mixed workload.
  Rng rng(4242);
  ShardedState full(1);
  for (uint64_t id = 0; id < 40; ++id) {
    full.PutAccount(id, {1000 + id, 0});
  }
  ShardedState replica(1);
  for (uint64_t id = 0; id < 40; ++id) {
    replica.PutAccount(id, {1000 + id, 0});
  }

  core::ExecutionInput in;
  in.shard = 0;
  for (int i = 0; i < 6; ++i) {
    tx::Transaction t;
    t.from = 2 * (i + 1);        // Even: shard 0.
    t.to = 2 * (i + 7);
    t.amount = 10;
    t.nonce = 0;
    in.txs.push_back(tx::ToAccess(t, t.Id()));
  }
  {
    tx::Transaction t;
    t.from = 8;   // Shard 0 (nonce advanced below by intra? no: 8 used once).
    t.to = 3;     // Shard 1: cross-shard.
    t.amount = 5;
    t.nonce = 1;  // Its intra tx above (from=8) runs first with nonce 0.
    in.txs.push_back(tx::ToAccess(t, t.Id()));
  }
  in.updates = {{20, {7777, 3}}};

  // Stateless view: proofs for every touched own-shard account + foreign.
  PartialState partial(1, 0, full.ShardRoot(0));
  for (uint64_t id : {2ull, 4ull, 6ull, 8ull, 10ull, 12ull, 14ull, 16ull,
                      18ull, 20ull, 22ull, 24ull, 26ull}) {
    auto acc = full.GetAccount(id);
    ASSERT_TRUE(
        partial.AddOwnAccount(id, acc.ok(), acc.ok() ? *acc : Account{},
                              full.ProveAccount(id))
            .ok())
        << id;
  }
  ASSERT_TRUE(partial
                  .AddForeignAccount(3, true, full.GetOrDefault(3),
                                     full.ProveAccount(3), full.ShardRoot(1))
                  .ok());

  auto r_full = core::ShardExecutor::Execute(&replica, in);
  auto r_partial = core::ShardExecutor::Execute(&partial, in);

  EXPECT_EQ(r_full.intra_applied, r_partial.intra_applied);
  EXPECT_EQ(r_full.cross_pre_executed, r_partial.cross_pre_executed);
  EXPECT_EQ(r_full.shard_root, r_partial.shard_root);
  ASSERT_EQ(r_full.cross_updates.size(), r_partial.cross_updates.size());
  for (size_t i = 0; i < r_full.cross_updates.size(); ++i) {
    EXPECT_EQ(r_full.cross_updates[i], r_partial.cross_updates[i]);
  }
}

}  // namespace
}  // namespace porygon::state
