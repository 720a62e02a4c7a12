// Cross-shard coordinator tests: conflict filtering, locking, update
// routing, and the release of each batch when its U is built (§IV-D2).

#include <gtest/gtest.h>

#include "core/coordinator.h"
#include "obs/metrics.h"

namespace porygon::core {
namespace {

using tx::StateUpdate;

// The access record of a transfer, as a bundle carries it to the leader.
TxAccess Transfer(uint64_t from, uint64_t to, uint64_t amount = 1,
                  uint64_t nonce = 0) {
  tx::Transaction t;
  t.from = from;
  t.to = to;
  t.amount = amount;
  t.nonce = nonce;
  return ToAccess(t, t.Id());
}

using Positions = std::vector<uint32_t>;
using Ids = std::vector<tx::TxId>;

TEST(CoordinatorTest, SplitsIntraAndCross) {
  CrossShardCoordinator coord(1);  // 2 shards.
  auto r = coord.FilterAndLock(1, {Transfer(2, 4), Transfer(6, 3)});
  // 2->4 same shard (even/even); 6->3 crosses.
  EXPECT_EQ(r.accepted_intra, Positions{0});
  EXPECT_EQ(r.accepted_cross, Positions{1});
  EXPECT_TRUE(r.discarded.empty());
}

TEST(CoordinatorTest, CrossShardTakesPriorityOverSameRoundIntra) {
  // An intra tx touching an account claimed by a same-round cross-shard tx
  // is discarded — otherwise the Multi-Shard Update would clobber the
  // intra-shard effect (lost update).
  CrossShardCoordinator coord(1);
  const TxAccess intra = Transfer(2, 4);
  auto r = coord.FilterAndLock(1, {intra, Transfer(2, 3)});
  EXPECT_EQ(r.accepted_cross, Positions{1});  // 2->3 wins.
  EXPECT_TRUE(r.accepted_intra.empty());      // 2->4 conflicts on account 2.
  EXPECT_EQ(r.discarded, Ids{intra.id});      // Named by the record's id.
}

TEST(CoordinatorTest, CrossShardAccountsLockUntilCommit) {
  CrossShardCoordinator coord(1);
  auto r1 = coord.FilterAndLock(1, {Transfer(2, 3)});
  ASSERT_EQ(r1.accepted_cross, Positions{0});
  EXPECT_TRUE(coord.IsLocked(2));
  EXPECT_TRUE(coord.IsLocked(3));

  // A later round's transaction touching a locked account is abandoned.
  const TxAccess blocked = Transfer(2, 6);
  auto r2 = coord.FilterAndLock(2, {blocked, Transfer(8, 10)});
  EXPECT_EQ(r2.discarded, Ids{blocked.id});
  EXPECT_EQ(r2.accepted_intra, Positions{1});  // 8->10 is unrelated.

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
  const TxAccess second = Transfer(4, 3);
  auto r = coord.FilterAndLock(1, {Transfer(2, 3), second});
  EXPECT_EQ(r.accepted_cross, Positions{0});
  EXPECT_EQ(r.discarded, Ids{second.id});
}

TEST(CoordinatorTest, SameRoundIntraShardConflictsAllowed) {
  CrossShardCoordinator coord(1);
  // Two intra-shard txs sharing account 2: the ESC resolves those, not the
  // OC ("conflicts within the same shard and in the same round do not have
  // to be detected by the OC").
  auto r = coord.FilterAndLock(1, {Transfer(2, 4), Transfer(2, 6)});
  EXPECT_EQ(r.accepted_intra, (Positions{0, 1}));
  EXPECT_TRUE(r.discarded.empty());
}

TEST(CoordinatorTest, DiscardsListCrossShardFirstThenIntraInInputOrder) {
  // The proposal's discarded list is read by every ESC and replica: its
  // order is part of the chain.
  CrossShardCoordinator coord(1);
  coord.FilterAndLock(1, {Transfer(2, 3)});  // Locks 2 and 3.
  const TxAccess intra_a = Transfer(2, 4);
  const TxAccess cross_a = Transfer(3, 6);
  const TxAccess intra_b = Transfer(8, 2);
  const TxAccess cross_b = Transfer(5, 2);
  auto r = coord.FilterAndLock(
      2, {intra_a, cross_a, intra_b, cross_b, Transfer(10, 12)});
  EXPECT_EQ(r.discarded, (Ids{cross_a.id, cross_b.id, intra_a.id,
                              intra_b.id}));
  EXPECT_EQ(r.accepted_intra, Positions{4});
  EXPECT_TRUE(r.accepted_cross.empty());
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
  EXPECT_EQ(coord.FilterAndLock(3, {Transfer(4, 5)}).accepted_cross,
            Positions{0});
}

}  // namespace
}  // namespace porygon::core
