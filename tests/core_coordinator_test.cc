// Cross-shard coordinator tests: conflict filtering, locking, update
// routing, and the release of each batch when its U is built (§IV-D2).

#include <gtest/gtest.h>

#include "core/coordinator.h"
#include "obs/metrics.h"

namespace porygon::core {
namespace {

using tx::StateUpdate;
using tx::Transaction;

Transaction Transfer(uint64_t from, uint64_t to, uint64_t amount = 1,
                     uint64_t nonce = 0) {
  Transaction t;
  t.from = from;
  t.to = to;
  t.amount = amount;
  t.nonce = nonce;
  return t;
}

TEST(CoordinatorTest, SplitsIntraAndCross) {
  CrossShardCoordinator coord(1);  // 2 shards.
  auto r = coord.FilterAndLock(1, {Transfer(2, 4), Transfer(6, 3)});
  // 2->4 same shard (even/even); 6->3 crosses.
  EXPECT_EQ(r.accepted_intra.size(), 1u);
  EXPECT_EQ(r.accepted_cross.size(), 1u);
  EXPECT_TRUE(r.discarded.empty());
}

TEST(CoordinatorTest, CrossShardTakesPriorityOverSameRoundIntra) {
  // An intra tx touching an account claimed by a same-round cross-shard tx
  // is discarded — otherwise the Multi-Shard Update would clobber the
  // intra-shard effect (lost update).
  CrossShardCoordinator coord(1);
  auto r = coord.FilterAndLock(1, {Transfer(2, 4), Transfer(2, 3)});
  EXPECT_EQ(r.accepted_cross.size(), 1u);   // 2->3 wins.
  EXPECT_EQ(r.accepted_intra.size(), 0u);   // 2->4 conflicts on account 2.
  EXPECT_EQ(r.discarded.size(), 1u);
}

TEST(CoordinatorTest, CrossShardAccountsLockUntilCommit) {
  CrossShardCoordinator coord(1);
  auto r1 = coord.FilterAndLock(1, {Transfer(2, 3)});
  ASSERT_EQ(r1.accepted_cross.size(), 1u);
  EXPECT_TRUE(coord.IsLocked(2));
  EXPECT_TRUE(coord.IsLocked(3));

  // A later round's transaction touching a locked account is abandoned.
  auto r2 = coord.FilterAndLock(2, {Transfer(2, 6), Transfer(8, 10)});
  EXPECT_EQ(r2.discarded.size(), 1u);
  EXPECT_EQ(r2.accepted_intra.size(), 1u);  // 8->10 is unrelated.

  // Complete the batch: S sets arrive, updates routed. Locks release as
  // soon as U is built (updates-first execution ordering makes later
  // transactions safe), not only at final commit.
  std::vector<std::vector<StateUpdate>> s_sets = {
      {{2, {900, 1}}, {3, {1100, 0}}}};
  auto u = coord.BuildUpdateList(1, s_sets);
  ASSERT_EQ(u.size(), 2u);
  ASSERT_EQ(u[0].size(), 1u);  // Account 2 -> shard 0.
  EXPECT_EQ(u[0][0].account, 2u);
  ASSERT_EQ(u[1].size(), 1u);  // Account 3 -> shard 1.
  EXPECT_FALSE(coord.IsLocked(2));
  EXPECT_FALSE(coord.IsLocked(3));
}

TEST(CoordinatorTest, SameRoundCrossShardConflictDiscarded) {
  CrossShardCoordinator coord(1);
  // Both cross-shard, both touch account 3 -> the second is discarded.
  auto r = coord.FilterAndLock(1, {Transfer(2, 3), Transfer(4, 3)});
  EXPECT_EQ(r.accepted_cross.size(), 1u);
  EXPECT_EQ(r.discarded.size(), 1u);
}

TEST(CoordinatorTest, SameRoundIntraShardConflictsAllowed) {
  CrossShardCoordinator coord(1);
  // Two intra-shard txs sharing account 2: the ESC resolves those, not the
  // OC ("conflicts within the same shard and in the same round do not have
  // to be detected by the OC").
  auto r = coord.FilterAndLock(1, {Transfer(2, 4), Transfer(2, 6)});
  EXPECT_EQ(r.accepted_intra.size(), 2u);
  EXPECT_TRUE(r.discarded.empty());
}

TEST(CoordinatorTest, BuildingUReleasesAndForgetsTheBatch) {
  CrossShardCoordinator coord(1);
  obs::MetricsRegistry registry;
  obs::Counter* rejected =
      registry.GetCounter("core.rejected", {{"reason", "unlocked_update"}});
  coord.set_rejected_counter(rejected);

  coord.FilterAndLock(1, {Transfer(2, 3)});
  const std::vector<std::vector<StateUpdate>> s_sets = {
      {{2, {900, 1}}, {3, {1100, 0}}}};
  auto u = coord.BuildUpdateList(1, s_sets);
  EXPECT_EQ(u[0].size() + u[1].size(), 2u);
  EXPECT_FALSE(coord.IsLocked(2));
  EXPECT_FALSE(coord.IsLocked(3));
  EXPECT_EQ(rejected->value(), 0u);

  // The batch is gone: the block carrying U is its only record, so a
  // replayed S set for the same round routes nothing.
  auto replay = coord.BuildUpdateList(1, s_sets);
  ASSERT_EQ(replay.size(), 2u);
  EXPECT_TRUE(replay[0].empty());
  EXPECT_TRUE(replay[1].empty());
  EXPECT_EQ(rejected->value(), 2u);

  // A batch whose S sets all missed Te is released all the same: its
  // accounts are free for the very next round.
  coord.FilterAndLock(2, {Transfer(4, 5)});
  EXPECT_TRUE(coord.IsLocked(4));
  auto none = coord.BuildUpdateList(2, {});
  EXPECT_TRUE(none[0].empty() && none[1].empty());
  EXPECT_FALSE(coord.IsLocked(4));
  EXPECT_FALSE(coord.IsLocked(5));
  EXPECT_EQ(coord.FilterAndLock(3, {Transfer(4, 5)}).accepted_cross.size(),
            1u);
}

}  // namespace
}  // namespace porygon::core
