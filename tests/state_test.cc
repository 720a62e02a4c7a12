// Sparse Merkle tree and sharded-state tests: proofs, roots, determinism,
// shard routing, and the OC's stateless root aggregation. The naive
// reference below pins the tree's definition independently of its storage.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.h"
#include "state/account.h"
#include "state/sharded_state.h"
#include "state/smt.h"
#include "state/view.h"

namespace porygon::state {
namespace {

using crypto::Hash256;
using crypto::Sha256;

// The tree's definition written from scratch: leaf = H(0x00 || key_le ||
// value), empty leaf = H(0x02), inner = H(0x01 || left || right), and an
// empty subtree at any level is the inner hash of two empty children. The
// root is computed by recursion over the live leaves alone.
class NaiveSmt {
 public:
  using Leaves = std::map<uint64_t, Bytes>;

  NaiveSmt() {
    const uint8_t empty_tag = 0x02;
    empty_[64] = Sha256::Hash(ByteView(&empty_tag, 1));
    for (int level = 63; level >= 0; --level) {
      empty_[level] = Inner(empty_[level + 1], empty_[level + 1]);
    }
  }

  Hash256 Root(const Leaves& leaves) const {
    return Node(0, 0, leaves.begin(), leaves.end());
  }

 private:
  static Hash256 Inner(const Hash256& left, const Hash256& right) {
    const uint8_t tag = 0x01;
    Sha256 h;
    h.Update(ByteView(&tag, 1));
    h.Update(left);
    h.Update(right);
    return h.Finish();
  }

  static Hash256 Leaf(uint64_t key, const Bytes& value) {
    const uint8_t tag = 0x00;
    uint8_t le_key[8];
    for (int i = 0; i < 8; ++i) {
      le_key[i] = static_cast<uint8_t>(key >> (8 * i));
    }
    Sha256 h;
    h.Update(ByteView(&tag, 1));
    h.Update(ByteView(le_key, 8));
    h.Update(value);
    return h.Finish();
  }

  // Hash of the subtree at `level` whose first key is `lo`; [first, last)
  // are exactly the live leaves under it.
  Hash256 Node(int level, uint64_t lo, Leaves::const_iterator first,
               Leaves::const_iterator last) const {
    if (first == last) return empty_[level];
    if (level == 64) return Leaf(first->first, first->second);
    const uint64_t mid = lo + (uint64_t{1} << (63 - level));
    auto split = std::partition_point(
        first, last, [&](const auto& leaf) { return leaf.first < mid; });
    return Inner(Node(level + 1, lo, first, split),
                 Node(level + 1, mid, split, last));
  }

  Hash256 empty_[65];
};

TEST(AccountTest, EncodeDecodeRoundTrip) {
  Account a{12345, 67};
  auto decoded = DecodeAccount(EncodeAccount(a));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, a);
}

TEST(AccountTest, DecodeRejectsBadSizes) {
  EXPECT_FALSE(DecodeAccount(ToBytes("short")).ok());
  Bytes too_long(17, 0);
  EXPECT_FALSE(DecodeAccount(too_long).ok());
}

TEST(AccountTest, ShardAssignmentUsesLastBits) {
  EXPECT_EQ(ShardOfAccount(0b10110, 2), 0b10u);
  EXPECT_EQ(ShardOfAccount(0b10110, 3), 0b110u);
  EXPECT_EQ(ShardOfAccount(12345, 0), 0u);
}

TEST(SmtTest, EmptyTreeHasDeterministicRoot) {
  SparseMerkleTree a, b;
  EXPECT_EQ(a.Root(), b.Root());
  EXPECT_EQ(a.LeafCount(), 0u);
}

TEST(SmtTest, PutChangesRootDeleteRestoresIt) {
  SparseMerkleTree tree;
  Hash256 empty_root = tree.Root();
  tree.Put(42, ToBytes("value"));
  EXPECT_NE(tree.Root(), empty_root);
  tree.Delete(42);
  EXPECT_EQ(tree.Root(), empty_root);
  EXPECT_EQ(tree.LeafCount(), 0u);
}

TEST(SmtTest, RootIsOrderIndependent) {
  SparseMerkleTree a, b;
  a.Put(1, ToBytes("one"));
  a.Put(2, ToBytes("two"));
  a.Put(3, ToBytes("three"));
  b.Put(3, ToBytes("three"));
  b.Put(1, ToBytes("one"));
  b.Put(2, ToBytes("two"));
  EXPECT_EQ(a.Root(), b.Root());
}

TEST(SmtTest, MembershipProofVerifies) {
  SparseMerkleTree tree;
  tree.Put(100, ToBytes("alpha"));
  tree.Put(200, ToBytes("beta"));
  auto proof = tree.Prove(100);
  EXPECT_TRUE(
      SparseMerkleTree::Verify(tree.Root(), 100, ToBytes("alpha"), proof));
  // Wrong value fails.
  EXPECT_FALSE(
      SparseMerkleTree::Verify(tree.Root(), 100, ToBytes("gamma"), proof));
  // Wrong key fails.
  EXPECT_FALSE(
      SparseMerkleTree::Verify(tree.Root(), 101, ToBytes("alpha"), proof));
}

TEST(SmtTest, AbsenceProofVerifies) {
  SparseMerkleTree tree;
  tree.Put(100, ToBytes("alpha"));
  auto proof = tree.Prove(555);
  EXPECT_TRUE(SparseMerkleTree::Verify(tree.Root(), 555, ByteView(), proof));
  // Claiming a value for an absent key fails.
  EXPECT_FALSE(
      SparseMerkleTree::Verify(tree.Root(), 555, ToBytes("x"), proof));
}

TEST(SmtTest, TamperedProofRejected) {
  SparseMerkleTree tree;
  for (uint64_t k = 0; k < 50; ++k) {
    tree.Put(k * 977, ToBytes("v" + std::to_string(k)));
  }
  auto proof = tree.Prove(977);
  proof.siblings[30][5] ^= 0x01;
  EXPECT_FALSE(
      SparseMerkleTree::Verify(tree.Root(), 977, ToBytes("v1"), proof));
}

TEST(SmtTest, AdjacentKeysDoNotCollide) {
  // Keys differing in the lowest bit share all but the last sibling.
  SparseMerkleTree tree;
  tree.Put(8, ToBytes("even"));
  tree.Put(9, ToBytes("odd"));
  EXPECT_TRUE(SparseMerkleTree::Verify(tree.Root(), 8, ToBytes("even"),
                                       tree.Prove(8)));
  EXPECT_TRUE(SparseMerkleTree::Verify(tree.Root(), 9, ToBytes("odd"),
                                       tree.Prove(9)));
}

class SmtRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SmtRandomTest, MatchesReferenceAndProofsHold) {
  Rng rng(GetParam());
  SparseMerkleTree tree;
  // The same writes as accounts: the values the state reads back must be
  // the ones the tree proves.
  ShardedState state(0);
  std::map<uint64_t, Account> reference;

  for (int op = 0; op < 500; ++op) {
    uint64_t key = rng.NextU64() % 1000;
    if (rng.NextBernoulli(0.3)) {
      tree.Delete(key);
      state.DeleteAccount(key);
      reference.erase(key);
    } else {
      Account value{rng.NextU64() % 10000, rng.NextU64() % 100};
      tree.Put(key, EncodeAccount(value));
      state.PutAccount(key, value);
      reference[key] = value;
    }
  }

  EXPECT_EQ(tree.LeafCount(), reference.size());
  EXPECT_EQ(state.TotalAccountCount(), reference.size());
  Hash256 root = tree.Root();
  EXPECT_EQ(state.ShardRoot(0), root);
  for (uint64_t key = 0; key < 1000; ++key) {
    auto stored = state.GetAccount(key);
    auto it = reference.find(key);
    if (it == reference.end()) {
      EXPECT_TRUE(stored.status().IsNotFound()) << key;
      continue;
    }
    ASSERT_TRUE(stored.ok()) << key;
    EXPECT_EQ(*stored, it->second);
    EXPECT_TRUE(SparseMerkleTree::Verify(root, key, EncodeAccount(it->second),
                                         tree.Prove(key)));
  }
  // A rebuilt tree from the reference has the same root.
  SparseMerkleTree rebuilt;
  for (const auto& [key, value] : reference) {
    rebuilt.Put(key, EncodeAccount(value));
  }
  EXPECT_EQ(rebuilt.Root(), root);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmtRandomTest, ::testing::Values(5, 6, 7));

class SmtBatchTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SmtBatchTest, PutBatchMatchesSequentialPuts) {
  Rng rng(GetParam());
  SparseMerkleTree sequential, batched;
  // Pre-populate both identically.
  for (int i = 0; i < 50; ++i) {
    uint64_t k = rng.NextU64() % 400;
    Bytes v = ToBytes("init" + std::to_string(i));
    sequential.Put(k, v);
    batched.Put(k, v);
  }
  // Random batch with duplicates and deletions.
  std::vector<std::pair<uint64_t, Bytes>> writes;
  for (int i = 0; i < 200; ++i) {
    uint64_t k = rng.NextU64() % 400;
    Bytes v = rng.NextBernoulli(0.2) ? Bytes()
                                     : ToBytes("w" + std::to_string(i));
    writes.emplace_back(k, v);
  }
  for (const auto& [k, v] : writes) sequential.Put(k, v);
  batched.PutBatch(writes);

  EXPECT_EQ(sequential.Root(), batched.Root());
  EXPECT_EQ(sequential.LeafCount(), batched.LeafCount());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmtBatchTest, ::testing::Values(41, 42, 43));

TEST(SmtTest, MatchesNaiveReferenceRoot) {
  Rng rng(31337);
  // Keys spread over all 64 bits, so every level branches: random keys,
  // each with its sibling leaf and a key that diverges from it at a random
  // level, plus the extreme keys.
  std::vector<uint64_t> keys{0, 1, ~uint64_t{0}, ~uint64_t{0} - 1,
                             uint64_t{1} << 63};
  while (keys.size() < 200) {
    const uint64_t base = rng.NextU64();
    keys.push_back(base);
    keys.push_back(base ^ 1);
    keys.push_back(base ^ (uint64_t{1} << rng.NextBelow(64)));
  }
  auto pick = [&] { return keys[rng.NextBelow(keys.size())]; };
  auto account = [&] {
    return Account{rng.NextU64() % 1'000'000, rng.NextU64() % 100};
  };

  const NaiveSmt naive;
  NaiveSmt::Leaves reference;
  SparseMerkleTree by_put, by_batch;
  ASSERT_EQ(by_put.Root(), naive.Root(reference));

  // Applies `writes` (empty value = delete) to the reference and both
  // trees, then checks all three agree.
  auto apply = [&](const std::vector<std::pair<uint64_t, Bytes>>& writes) {
    for (const auto& [key, value] : writes) {
      by_put.Put(key, value);
      if (value.empty()) {
        reference.erase(key);
      } else {
        reference[key] = value;
      }
    }
    by_batch.PutBatch(writes);
    const Hash256 expected = naive.Root(reference);
    EXPECT_EQ(by_put.Root(), expected);
    EXPECT_EQ(by_batch.Root(), expected);
    EXPECT_EQ(by_put.LeafCount(), reference.size());
    EXPECT_EQ(by_batch.LeafCount(), reference.size());
  };

  for (int round = 0; round < 12; ++round) {
    std::vector<std::pair<uint64_t, Bytes>> writes;
    for (int i = 0; i < 60; ++i) {
      writes.emplace_back(pick(), rng.NextBernoulli(0.25)
                                      ? Bytes()
                                      : EncodeAccount(account()));
    }
    // Duplicate keys in one batch: the last write wins, delete or not.
    for (int i = 0; i < 6; ++i) {
      const uint64_t key = writes[rng.NextBelow(writes.size())].first;
      writes.emplace_back(key, Bytes());
      writes.emplace_back(key, EncodeAccount(account()));
      if (i % 2 == 0) writes.emplace_back(key, Bytes());
    }
    apply(writes);
  }
  ASSERT_FALSE(reference.empty());

  // A stateless view rebuilt from proofs of present and absent keys, then
  // written (repeated ids included), lands on the same root.
  std::vector<uint64_t> touched;
  for (int i = 0; i < 40; ++i) touched.push_back(pick());
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  PartialState partial(/*shard_bits=*/0, /*own_shard=*/0, by_batch.Root());
  for (uint64_t key : touched) {
    auto it = reference.find(key);
    const bool present = it != reference.end();
    const Account value = present ? *DecodeAccount(it->second) : Account{};
    ASSERT_TRUE(
        partial.AddOwnAccount(key, present, value, by_batch.Prove(key)).ok());
  }
  ASSERT_EQ(partial.ShardRoot(0), by_batch.Root());
  std::vector<std::pair<AccountId, Account>> account_writes;
  for (uint64_t key : touched) account_writes.emplace_back(key, account());
  account_writes.emplace_back(touched.front(), account());
  partial.PutAccountBatch(0, account_writes);
  std::vector<std::pair<uint64_t, Bytes>> writes;
  for (const auto& [key, value] : account_writes) {
    writes.emplace_back(key, EncodeAccount(value));
  }
  apply(writes);
  EXPECT_EQ(partial.ShardRoot(0), naive.Root(reference));
  for (uint64_t key : touched) {
    EXPECT_EQ(partial.GetOrDefault(key), *DecodeAccount(reference.at(key)));
  }

  // Delete every leaf, one at a time and in one batch: back to the empty
  // root.
  writes.clear();
  for (const auto& [key, value] : reference) writes.emplace_back(key, Bytes());
  apply(writes);
  EXPECT_TRUE(reference.empty());
  EXPECT_EQ(by_batch.Root(), SparseMerkleTree().Root());
}

// The benchmark's key shapes: ids up to 1M in one shard of 8 or 32, so
// every key shares its low 3 or 5 bits. The top 44 levels are one chain,
// every leaf hangs below a chain of at least `shard_bits` single children,
// and absent keys routinely leave a chain halfway down.
class SmtDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(SmtDifferentialTest, MatchesNaiveReferenceAtBenchmarkShapes) {
  const int shard_bits = GetParam();
  Rng rng(9000 + static_cast<uint64_t>(shard_bits));
  const uint64_t shard = rng.NextBelow(uint64_t{1} << shard_bits);
  auto own_id = [&] {
    return (rng.NextBelow(1'000'001 >> shard_bits) << shard_bits) | shard;
  };
  auto account = [&] {
    return Account{rng.NextU64() % 1'000'000, rng.NextU64() % 100};
  };

  const NaiveSmt naive;
  NaiveSmt::Leaves reference;
  SparseMerkleTree tree;
  auto apply = [&](const std::vector<std::pair<uint64_t, Bytes>>& writes) {
    tree.PutBatch(writes);
    for (const auto& [key, value] : writes) {
      if (value.empty()) {
        reference.erase(key);
      } else {
        reference[key] = value;
      }
    }
    ASSERT_EQ(tree.Root(), naive.Root(reference));
    ASSERT_EQ(tree.LeafCount(), reference.size());
    ASSERT_EQ(tree.NodeCount(),
              reference.empty() ? 0 : 2 * reference.size() - 1);
  };
  auto live_key = [&] {
    auto it = reference.begin();
    std::advance(it, rng.NextBelow(reference.size()));
    return it->first;
  };

  for (int round = 0; round < 8; ++round) {
    // Inserts and updates, deletes of live keys (collapsing their parent
    // branches) and of absent keys (no-ops), and repeated keys.
    std::vector<std::pair<uint64_t, Bytes>> writes;
    for (int i = 0; i < 300; ++i) {
      const double r = rng.NextDouble();
      if (r < 0.15 && !reference.empty()) {
        writes.emplace_back(live_key(), Bytes());
      } else if (r < 0.2) {
        writes.emplace_back(own_id(), Bytes());
      } else if (r < 0.35 && !reference.empty()) {
        writes.emplace_back(live_key(), EncodeAccount(account()));
      } else {
        writes.emplace_back(own_id(), EncodeAccount(account()));
      }
    }
    writes.emplace_back(writes.front().first, EncodeAccount(account()));
    apply(writes);
    ASSERT_FALSE(reference.empty());

    // Proofs against the checked root: live keys, absent own-shard keys
    // (next to live ones and at random), keys of the other shards (they
    // leave a leaf's low-bit chain) and keys past 1M (they leave the top
    // chain).
    const Hash256 root = tree.Root();
    for (int i = 0; i < 40; ++i) {
      const uint64_t key = live_key();
      EXPECT_TRUE(SparseMerkleTree::Verify(root, key, reference.at(key),
                                           tree.Prove(key)));
      std::vector<uint64_t> absent{key + (uint64_t{1} << shard_bits),
                                   key ^ (uint64_t{1} << shard_bits),
                                   key ^ 1, own_id(), rng.NextU64(),
                                   uint64_t{1} << 40 | shard};
      for (uint64_t a : absent) {
        if (reference.count(a) > 0) continue;
        EXPECT_TRUE(SparseMerkleTree::Verify(root, a, ByteView(),
                                             tree.Prove(a)))
            << a;
      }
    }
  }

  // A stateless view: present and absent keys whose proofs overlap (pairs
  // one shard stride apart share all but their last levels), injected in
  // random order so later proofs expand earlier proofs' stubs.
  std::vector<uint64_t> touched;
  for (int i = 0; i < 60; ++i) {
    const uint64_t key = live_key();
    touched.push_back(key);
    touched.push_back(key + (uint64_t{1} << shard_bits));
    touched.push_back(key ^ (uint64_t{4} << shard_bits));
    touched.push_back(own_id());
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (size_t i = touched.size(); i > 1; --i) {
    std::swap(touched[i - 1], touched[rng.NextBelow(i)]);
  }
  const Hash256 root = tree.Root();
  PartialState partial(shard_bits, static_cast<uint32_t>(shard), root);
  SparseMerkleTree proven;
  for (uint64_t key : touched) {
    auto it = reference.find(key);
    const bool present = it != reference.end();
    const Bytes value = present ? it->second : Bytes();
    const MerkleProof proof = tree.Prove(key);
    ASSERT_TRUE(partial
                    .AddOwnAccount(key, present,
                                   present ? *DecodeAccount(value) : Account{},
                                   proof)
                    .ok())
        << key;
    ASSERT_TRUE(proven.InjectProof(key, value, proof, root).ok()) << key;
  }
  ASSERT_EQ(partial.ShardRoot(static_cast<uint32_t>(shard)), root);
  ASSERT_EQ(proven.Root(), root);
  // The partial tree proves every injected key exactly as the full one.
  for (uint64_t key : touched) {
    EXPECT_EQ(proven.Prove(key).siblings, tree.Prove(key).siblings) << key;
  }

  // Write every touched key (creating the absent ones), one twice.
  std::vector<std::pair<AccountId, Account>> account_writes;
  for (uint64_t key : touched) account_writes.emplace_back(key, account());
  account_writes.emplace_back(touched.front(), account());
  std::vector<std::pair<uint64_t, Bytes>> writes;
  for (const auto& [key, value] : account_writes) {
    writes.emplace_back(key, EncodeAccount(value));
  }
  partial.PutAccountBatch(static_cast<uint32_t>(shard), account_writes);
  proven.PutBatch(writes);
  apply(writes);
  EXPECT_EQ(partial.ShardRoot(static_cast<uint32_t>(shard)), tree.Root());
  EXPECT_EQ(proven.Root(), tree.Root());

  // Delete everything in one batch: back to the empty root and no records.
  writes.clear();
  for (const auto& [key, value] : reference) writes.emplace_back(key, Bytes());
  apply(writes);
  EXPECT_EQ(tree.Root(), SparseMerkleTree().Root());
}

// The level sweep against the reference at frontier sizes around the hash
// kernel's 16 lanes (1, 15, 16, 17) and at a block's size (8,000). On a
// full tree of sibling pairs (keys one shard stride apart): inserts that
// split chains, updates, and deletes of one key of a pair (its branch
// collapses and the survivor's chain re-lifts to the grandparent) or of
// both (two levels collapse). On a partial tree built from proofs of the
// written keys: the same writes, where an insert of an absent key splits
// the chain of the stub that stood in its place, and a delete next to a
// stub leaves the stub's chain to re-lift. Put, a one-entry frontier,
// takes the same path and must agree.
TEST_P(SmtDifferentialTest, LevelSweepMatchesNaiveReferenceAtFrontierSizes) {
  const int shard_bits = GetParam();
  const uint64_t stride = uint64_t{1} << shard_bits;
  for (size_t frontier : {1, 15, 16, 17, 8000}) {
    SCOPED_TRACE(frontier);
    Rng rng(frontier * 31 + static_cast<uint64_t>(shard_bits));
    const uint64_t shard = rng.NextBelow(stride);
    auto own_id = [&] {
      return (rng.NextBelow(1'000'001 >> shard_bits) << shard_bits) | shard;
    };
    auto value = [&] {
      return EncodeAccount(
          Account{rng.NextU64() % 1'000'000, rng.NextU64() % 100});
    };

    const NaiveSmt naive;
    NaiveSmt::Leaves reference;
    SparseMerkleTree tree;
    std::vector<std::pair<uint64_t, Bytes>> pairs;
    for (int i = 0; i < 2000; ++i) {
      const uint64_t key = own_id();
      pairs.emplace_back(key, value());
      pairs.emplace_back(key ^ stride, value());
    }
    tree.PutBatch(pairs);
    for (const auto& [key, v] : pairs) reference[key] = v;
    ASSERT_EQ(tree.Root(), naive.Root(reference));
    std::vector<uint64_t> live;
    for (const auto& [key, v] : reference) live.push_back(key);

    // `frontier` distinct keys: deletes of live keys and of both keys of a
    // pair, updates, and inserts.
    std::vector<std::pair<uint64_t, Bytes>> writes;
    std::map<uint64_t, bool> written;
    auto add = [&](uint64_t key, Bytes v) {
      if (writes.size() < frontier && written.emplace(key, true).second) {
        writes.emplace_back(key, std::move(v));
      }
    };
    while (writes.size() < frontier) {
      const double r = rng.NextDouble();
      const uint64_t key = live[rng.NextBelow(live.size())];
      if (r < 0.2) {
        add(key, Bytes());
      } else if (r < 0.3) {
        add(key, Bytes());
        add(key ^ stride, Bytes());
      } else if (r < 0.5) {
        add(key, value());
      } else {
        add(own_id(), value());
      }
    }
    ASSERT_EQ(writes.size(), frontier);

    // The partial tree proves every written key against the old root.
    const Hash256 old_root = tree.Root();
    SparseMerkleTree proven;
    for (const auto& [key, v] : writes) {
      auto it = reference.find(key);
      const Bytes old = it != reference.end() ? it->second : Bytes();
      ASSERT_TRUE(proven.InjectProof(key, old, tree.Prove(key), old_root).ok());
    }
    ASSERT_EQ(proven.Root(), old_root);
    SparseMerkleTree by_put;
    by_put.PutBatch(pairs);

    tree.PutBatch(writes);
    proven.PutBatch(writes);
    for (const auto& [key, v] : writes) {
      by_put.Put(key, v);
      if (v.empty()) {
        reference.erase(key);
      } else {
        reference[key] = v;
      }
    }
    const Hash256 want = naive.Root(reference);
    EXPECT_EQ(tree.Root(), want);
    EXPECT_EQ(proven.Root(), want);
    EXPECT_EQ(by_put.Root(), want);
    EXPECT_EQ(tree.LeafCount(), reference.size());
    EXPECT_EQ(tree.NodeCount(), 2 * reference.size() - 1);
    for (int i = 0; i < 20; ++i) {
      const uint64_t key = writes[rng.NextBelow(writes.size())].first;
      auto it = reference.find(key);
      const Bytes v = it != reference.end() ? it->second : Bytes();
      EXPECT_TRUE(SparseMerkleTree::Verify(want, key, v, tree.Prove(key)));
      EXPECT_EQ(proven.Prove(key).siblings, tree.Prove(key).siblings);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ShardBits, SmtDifferentialTest,
                         ::testing::Values(3, 5));

TEST(SmtTest, FullTreeHoldsTwoRecordsPerLeaf) {
  // A full tree of n leaves stores n leaf and n - 1 branch records, however
  // it got there: batched inserts, single puts and collapsing deletes.
  Rng rng(404);
  SparseMerkleTree tree;
  std::vector<std::pair<uint64_t, Bytes>> writes;
  for (int i = 0; i < 20'000; ++i) {
    writes.emplace_back((rng.NextBelow(1'000'001 >> 3) << 3) | 5,
                        ToBytes("v"));
  }
  tree.PutBatch(writes);
  ASSERT_GT(tree.LeafCount(), 18'000u);
  EXPECT_EQ(tree.NodeCount(), 2 * tree.LeafCount() - 1);
  for (size_t i = 0; i < writes.size(); i += 3) {
    tree.Delete(writes[i].first);
  }
  tree.Put(~uint64_t{0}, ToBytes("far"));
  EXPECT_EQ(tree.NodeCount(), 2 * tree.LeafCount() - 1);
  // Freed records are reused, so the allocation stays near its peak.
  const size_t bytes = tree.MemoryBytes();
  tree.PutBatch(writes);
  EXPECT_EQ(tree.NodeCount(), 2 * tree.LeafCount() - 1);
  EXPECT_LE(tree.MemoryBytes(), bytes + bytes / 2);
}

TEST(ShardedStateTest, AccountsRouteToTheirShard) {
  ShardedState st(2);  // 4 shards.
  st.PutAccount(0b100, {10, 0});  // Shard 0.
  st.PutAccount(0b101, {20, 0});  // Shard 1.
  st.PutAccount(0b110, {30, 0});  // Shard 2.
  EXPECT_EQ(st.ShardAccountCount(0), 1u);
  EXPECT_EQ(st.ShardAccountCount(1), 1u);
  EXPECT_EQ(st.ShardAccountCount(2), 1u);
  EXPECT_EQ(st.ShardAccountCount(3), 0u);
  EXPECT_EQ(st.TotalAccountCount(), 3u);
  EXPECT_EQ(st.GetOrDefault(0b101).balance, 20u);
  EXPECT_EQ(st.GetOrDefault(0xdead00).balance, 0u);  // Default.
}

TEST(ShardedStateTest, TotalSupplyCountsUntouchedImplicitIds) {
  ShardedState st(1);
  st.SetImplicitAccounts(100, 50);  // Ids 1..100 hold 50 until written.
  EXPECT_EQ(st.TotalSupply(), 5'000u);
  st.PutAccount(3, {20, 1});   // Written implicit ids count as stored.
  st.PutAccount(4, {80, 0});
  st.PutAccount(500, {7, 0});  // Beyond the declared range.
  EXPECT_EQ(st.TotalSupply(), 98u * 50 + 20 + 80 + 7);
}

TEST(ShardedStateTest, GetAccountReturnsStoredValue) {
  ShardedState st(1);
  st.PutAccount(7, {70, 1});
  auto v = st.GetAccount(7);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, (Account{70, 1}));
  EXPECT_TRUE(st.GetAccount(8).status().IsNotFound());  // Other shard.
  EXPECT_TRUE(st.GetAccount(9).status().IsNotFound());  // Same shard.
  st.DeleteAccount(7);
  EXPECT_TRUE(st.GetAccount(7).status().IsNotFound());
}

TEST(ShardedStateTest, ValuesAndProofsAgree) {
  Rng rng(2718);
  ShardedState st(2);
  std::vector<AccountId> ids{0, 1, ~AccountId{0}};
  while (ids.size() < 400) ids.push_back(rng.NextU64());
  auto pick = [&] { return ids[rng.NextBelow(ids.size())]; };
  auto account = [&] { return Account{rng.NextU64(), rng.NextU64() % 1000}; };
  std::map<AccountId, Account> reference;

  for (int op = 0; op < 1500; ++op) {
    const double r = rng.NextDouble();
    if (r < 0.4) {
      const AccountId id = pick();
      const Account a = account();
      st.PutAccount(id, a);
      reference[id] = a;
    } else if (r < 0.6) {
      const AccountId id = pick();
      st.DeleteAccount(id);
      reference.erase(id);
    } else {
      // One shard's batch: ids of other shards are skipped, and a repeated
      // id takes its last write.
      const uint32_t shard = static_cast<uint32_t>(rng.NextBelow(4));
      std::vector<std::pair<AccountId, Account>> ws;
      for (int i = 0; i < 12; ++i) ws.emplace_back(pick(), account());
      ws.emplace_back(ws[rng.NextBelow(ws.size())].first, account());
      st.PutAccountBatch(shard, ws);
      for (const auto& [id, a] : ws) {
        if (st.ShardOf(id) == shard) reference[id] = a;
      }
    }
  }

  std::vector<size_t> per_shard(4, 0);
  for (AccountId id : ids) {
    const Hash256 root = st.ShardRoot(st.ShardOf(id));
    const MerkleProof proof = st.ProveAccount(id);
    auto stored = st.GetAccount(id);
    auto it = reference.find(id);
    if (it == reference.end()) {
      EXPECT_TRUE(stored.status().IsNotFound()) << id;
      EXPECT_TRUE(ShardedState::VerifyAbsence(root, id, proof)) << id;
      EXPECT_EQ(st.GetOrDefault(id), Account{}) << id;
      continue;
    }
    ASSERT_TRUE(stored.ok()) << id;
    EXPECT_EQ(*stored, it->second);
    EXPECT_EQ(st.GetOrDefault(id), it->second);
    EXPECT_TRUE(ShardedState::VerifyAccount(root, id, *stored, proof)) << id;
    EXPECT_FALSE(ShardedState::VerifyAbsence(root, id, proof)) << id;
  }
  for (const auto& [id, a] : reference) ++per_shard[st.ShardOf(id)];
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(st.ShardAccountCount(s), per_shard[s]) << s;
  }
  EXPECT_EQ(st.TotalAccountCount(), reference.size());

  // The same accounts written once each, in key order, give the same root.
  ShardedState rebuilt(2);
  for (const auto& [id, a] : reference) rebuilt.PutAccount(id, a);
  EXPECT_EQ(rebuilt.GlobalRoot(), st.GlobalRoot());
}

TEST(ShardedStateTest, GlobalRootMatchesAggregatedShardRoots) {
  ShardedState st(3);
  Rng rng(77);
  for (int i = 0; i < 100; ++i) {
    st.PutAccount(rng.NextU64() % 5000, {rng.NextU64() % 1000, 0});
  }
  std::vector<Hash256> roots;
  for (int s = 0; s < st.shard_count(); ++s) roots.push_back(st.ShardRoot(s));
  EXPECT_EQ(ShardedState::AggregateRoots(roots), st.GlobalRoot());
}

TEST(ShardedStateTest, UpdateInOneShardOnlyChangesThatShardRoot) {
  ShardedState st(2);
  st.PutAccount(4, {1, 0});   // Shard 0.
  st.PutAccount(5, {1, 0});   // Shard 1.
  auto root0_before = st.ShardRoot(0);
  auto root1_before = st.ShardRoot(1);
  st.PutAccount(8, {99, 0});  // Shard 0 again.
  EXPECT_NE(st.ShardRoot(0), root0_before);
  EXPECT_EQ(st.ShardRoot(1), root1_before);
}

TEST(ShardedStateTest, AccountProofsVerifyAgainstShardRoot) {
  ShardedState st(2);
  Account acc{500, 3};
  st.PutAccount(42, acc);
  auto proof = st.ProveAccount(42);
  uint32_t shard = st.ShardOf(42);
  EXPECT_TRUE(ShardedState::VerifyAccount(st.ShardRoot(shard), 42, acc, proof));
  Account wrong{501, 3};
  EXPECT_FALSE(
      ShardedState::VerifyAccount(st.ShardRoot(shard), 42, wrong, proof));
  // Absence of another account in the same shard.
  auto absent = st.ProveAccount(42 + 4);  // Same shard (same last 2 bits).
  EXPECT_TRUE(
      ShardedState::VerifyAbsence(st.ShardRoot(shard), 42 + 4, absent));
}

TEST(ShardedStateTest, AggregateRootsHandlesOddCounts) {
  std::vector<Hash256> one{crypto::Sha256::Hash(ToBytes("a"))};
  EXPECT_EQ(ShardedState::AggregateRoots(one), one[0]);
  std::vector<Hash256> three{crypto::Sha256::Hash(ToBytes("a")),
                             crypto::Sha256::Hash(ToBytes("b")),
                             crypto::Sha256::Hash(ToBytes("c"))};
  // Just determinism and no crash.
  EXPECT_EQ(ShardedState::AggregateRoots(three),
            ShardedState::AggregateRoots(three));
}

}  // namespace
}  // namespace porygon::state
