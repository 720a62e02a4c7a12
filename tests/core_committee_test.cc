// Committee-formation (sortition) tests: self-selection, verification,
// shard assignment, and the empirical Lemma-1-style composition property.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "common/rng.h"
#include "core/committee.h"
#include "crypto/provider.h"

namespace porygon::core {
namespace {

using crypto::FastProvider;
using crypto::Hash256;
using crypto::KeyPair;

class SortitionTest : public ::testing::Test {
 protected:
  Hash256 PrevHash(uint64_t x) {
    Hash256 h{};
    h[0] = static_cast<uint8_t>(x);
    return h;
  }

  FastProvider provider_;
  Rng rng_{2024};
};

TEST_F(SortitionTest, AssignmentIsDeterministicPerRound) {
  KeyPair kp = provider_.GenerateKeyPair(&rng_);
  auto a1 = Sortition::Assign(&provider_, kp.private_key, 5, PrevHash(1),
                              0.1, 0.6, 2);
  auto a2 = Sortition::Assign(&provider_, kp.private_key, 5, PrevHash(1),
                              0.1, 0.6, 2);
  EXPECT_EQ(a1.role, a2.role);
  EXPECT_EQ(a1.shard, a2.shard);
  EXPECT_EQ(a1.sortition, a2.sortition);
}

TEST_F(SortitionTest, DifferentRoundsReshuffle) {
  // Over many rounds a node's sortition value varies across [0,1).
  KeyPair kp = provider_.GenerateKeyPair(&rng_);
  double min_v = 1.0, max_v = 0.0;
  for (uint64_t r = 0; r < 200; ++r) {
    auto a = Sortition::Assign(&provider_, kp.private_key, r, PrevHash(0),
                               0.1, 0.6, 2);
    min_v = std::min(min_v, a.sortition);
    max_v = std::max(max_v, a.sortition);
  }
  EXPECT_LT(min_v, 0.2);
  EXPECT_GT(max_v, 0.8);
}

TEST_F(SortitionTest, VerificationAcceptsHonestAndRejectsForged) {
  KeyPair kp = provider_.GenerateKeyPair(&rng_);
  auto a = Sortition::Assign(&provider_, kp.private_key, 9, PrevHash(3),
                             0.2, 0.7, 3);
  EXPECT_TRUE(Sortition::Verify(&provider_, kp.public_key, 9, PrevHash(3),
                                0.2, 0.7, 3, a));

  // Claiming a different role fails.
  Assignment forged = a;
  forged.role = (a.role == Role::kOrdering) ? Role::kExecution
                                            : Role::kOrdering;
  EXPECT_FALSE(Sortition::Verify(&provider_, kp.public_key, 9, PrevHash(3),
                                 0.2, 0.7, 3, forged));

  // Claiming another node's proof fails.
  KeyPair other = provider_.GenerateKeyPair(&rng_);
  EXPECT_FALSE(Sortition::Verify(&provider_, other.public_key, 9, PrevHash(3),
                                 0.2, 0.7, 3, a));

  // A proof for a different round fails.
  EXPECT_FALSE(Sortition::Verify(&provider_, kp.public_key, 10, PrevHash(3),
                                 0.2, 0.7, 3, a));

  // A tampered VRF output fails.
  Assignment tampered = a;
  tampered.proof.output[0] ^= 1;
  EXPECT_FALSE(Sortition::Verify(&provider_, kp.public_key, 9, PrevHash(3),
                                 0.2, 0.7, 3, tampered));
}

TEST_F(SortitionTest, CommitteeSizesMatchThresholds) {
  // With ordering fraction p over n nodes, the OC has ~p*n members —
  // the binomial concentration Lemma 1 relies on.
  const int n = 3000;
  const double ord = 0.05, exec = 0.55;
  std::vector<KeyPair> keys;
  keys.reserve(n);
  for (int i = 0; i < n; ++i) keys.push_back(provider_.GenerateKeyPair(&rng_));

  int oc = 0, ec = 0, idle = 0;
  for (const auto& kp : keys) {
    auto a = Sortition::Assign(&provider_, kp.private_key, 1, PrevHash(7),
                               ord, exec, 2);
    switch (a.role) {
      case Role::kOrdering:
        ++oc;
        break;
      case Role::kExecution:
        ++ec;
        break;
      case Role::kIdle:
        ++idle;
        break;
    }
  }
  EXPECT_NEAR(oc, n * ord, 4 * std::sqrt(n * ord * (1 - ord)));
  EXPECT_NEAR(ec, n * exec, 4 * std::sqrt(n * exec * (1 - exec)));
  EXPECT_EQ(oc + ec + idle, n);
}

TEST_F(SortitionTest, ShardsAreBalanced) {
  const int n = 4000;
  const int shard_bits = 2;
  std::map<uint32_t, int> per_shard;
  for (int i = 0; i < n; ++i) {
    KeyPair kp = provider_.GenerateKeyPair(&rng_);
    auto a = Sortition::Assign(&provider_, kp.private_key, 2, PrevHash(9),
                               0.0, 1.0, shard_bits);
    ASSERT_EQ(a.role, Role::kExecution);
    ASSERT_LT(a.shard, 4u);
    per_shard[a.shard]++;
  }
  for (const auto& [shard, count] : per_shard) {
    EXPECT_NEAR(count, n / 4.0, 4 * std::sqrt(n * 0.25 * 0.75)) << shard;
  }
}

TEST_F(SortitionTest, LeaderIsLowestSortitionAndUnpredictable) {
  // The OC member with the smallest sortition value leads; changing the
  // previous block hash changes the leader (grinding resistance comes from
  // the VRF).
  const int n = 50;
  std::vector<KeyPair> keys;
  for (int i = 0; i < n; ++i) keys.push_back(provider_.GenerateKeyPair(&rng_));

  auto leader_for = [&](const Hash256& prev) {
    int best = -1;
    double best_v = 2.0;
    for (int i = 0; i < n; ++i) {
      auto a = Sortition::Assign(&provider_, keys[i].private_key, 4, prev,
                                 1.0, 0.0, 0);
      if (a.sortition < best_v) {
        best_v = a.sortition;
        best = i;
      }
    }
    return best;
  };
  // Not a hard guarantee per pair, but across several prev-hashes the
  // leader must change at least once.
  int first = leader_for(PrevHash(0));
  bool changed = false;
  for (uint64_t h = 1; h < 8 && !changed; ++h) {
    changed = leader_for(PrevHash(h)) != first;
  }
  EXPECT_TRUE(changed);
}

}  // namespace
}  // namespace porygon::core
