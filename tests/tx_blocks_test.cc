// Transaction / block / pool tests.

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "crypto/sha256.h"
#include "tx/blocks.h"
#include "tx/transaction.h"
#include "tx/txpool.h"

namespace porygon::tx {
namespace {

Transaction Make(uint64_t from, uint64_t to, uint64_t amount,
                 uint64_t nonce) {
  Transaction t;
  t.from = from;
  t.to = to;
  t.amount = amount;
  t.nonce = nonce;
  t.submitted_at = 123456;
  return t;
}

TEST(TransactionTest, EncodeDecodeRoundTrip) {
  Transaction t = Make(10, 20, 500, 3);
  t.signature.fill(0xCD);
  auto decoded = Transaction::Decode(t.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, t);
}

TEST(TransactionTest, IdCoversBodyNotSignature) {
  Transaction a = Make(1, 2, 3, 4);
  Transaction b = a;
  b.signature.fill(0xFF);
  EXPECT_EQ(a.Id(), b.Id());  // Signature excluded.
  b.amount = 99;
  EXPECT_NE(a.Id(), b.Id());  // Body included.
}

TEST(TransactionTest, CrossShardDetection) {
  EXPECT_FALSE(Make(2, 4, 1, 0).IsCrossShard(1));  // Even/even.
  EXPECT_TRUE(Make(2, 3, 1, 0).IsCrossShard(1));
  EXPECT_FALSE(Make(2, 3, 1, 0).IsCrossShard(0));  // One shard: never.
}

TEST(BlockTest, SealAndVerifyHeader) {
  TransactionBlock block;
  block.header.shard = 1;
  block.header.round_created = 7;
  for (int i = 0; i < 5; ++i) {
    block.transactions.push_back(Make(i, i + 1, 10, 0));
  }
  block.SealHeader();
  EXPECT_EQ(block.header.tx_count, 5u);
  EXPECT_TRUE(block.BodyMatchesHeader());

  // Tampering with the body breaks the seal.
  block.transactions[2].amount = 999;
  EXPECT_FALSE(block.BodyMatchesHeader());
}

TEST(BlockTest, EncodeDecodeRoundTrip) {
  TransactionBlock block;
  block.header.creator_storage_node = 3;
  block.header.round_created = 9;
  block.header.shard = 2;
  block.transactions = {Make(1, 2, 3, 0), Make(4, 5, 6, 1)};
  block.SealHeader();

  auto decoded = TransactionBlock::Decode(block.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->header.Id(), block.header.Id());
  EXPECT_EQ(decoded->transactions.size(), 2u);
  EXPECT_TRUE(decoded->BodyMatchesHeader());
}

TEST(ProposalBlockTest, EncodeDecodeRoundTrip) {
  ProposalBlock b;
  b.height = 12;
  b.round = 12;
  b.prev_hash = crypto::Sha256::Hash(ToBytes("prev"));
  b.shard_tx_blocks = {{crypto::Sha256::Hash(ToBytes("b1"))}, {}};
  b.shard_updates = {{}, {{42, {100, 1}}}};
  b.discarded = {crypto::Sha256::Hash(ToBytes("bad"))};
  b.shard_roots = {crypto::Sha256::Hash(ToBytes("r0")),
                   crypto::Sha256::Hash(ToBytes("r1"))};
  b.state_root = crypto::Sha256::Hash(ToBytes("root"));
  b.ordering_threshold = 0.1;
  b.execution_threshold = 0.7;

  auto decoded = ProposalBlock::Decode(b.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->Hash(), b.Hash());
  EXPECT_EQ(decoded->shard_updates[1][0].account, 42u);
  EXPECT_EQ(decoded->discarded.size(), 1u);
  EXPECT_EQ(decoded->ordering_threshold, 0.1);
}

TEST(ProposalBlockTest, HashChangesWithContent) {
  ProposalBlock a;
  a.height = 1;
  ProposalBlock b = a;
  b.height = 2;
  EXPECT_NE(a.Hash(), b.Hash());
}

TEST(TxPoolTest, DeduplicatesAndBucketsByShard) {
  TxPool pool(1);
  Transaction t = Make(2, 4, 10, 0);  // Shard 0 (even sender).
  EXPECT_TRUE(pool.Add(t));
  EXPECT_FALSE(pool.Add(t));  // Duplicate id.
  EXPECT_TRUE(pool.Add(Make(3, 4, 10, 0)));  // Shard 1.
  EXPECT_EQ(pool.PendingInShard(0), 1u);
  EXPECT_EQ(pool.PendingInShard(1), 1u);
  EXPECT_EQ(pool.PendingTotal(), 2u);
}

// The admission set compares whole ids: ids that share their first eight
// bytes (the bits it hashes) stay distinct, the all-zero id (its empty-slot
// marker) is admitted once like any other, and every id is still known
// after the set has doubled ten times. Only admission is checked here, so
// the ids need not be the transaction's own.
TEST(TxPoolTest, AdmissionComparesWholeIdsAcrossGrowth) {
  TxPool pool(0);
  const Transaction t = Make(1, 2, 3, 0);
  TxId a;
  a.fill(0x5a);
  TxId b = a;
  b[31] ^= 1;
  EXPECT_TRUE(pool.Add(t, a));
  EXPECT_TRUE(pool.Add(t, b));
  EXPECT_FALSE(pool.Add(t, a));
  EXPECT_FALSE(pool.Add(t, b));
  const TxId zero{};
  EXPECT_TRUE(pool.Add(t, zero));
  EXPECT_FALSE(pool.Add(t, zero));

  std::vector<TxId> ids;
  for (uint64_t i = 0; i < 2000; ++i) {
    uint8_t seed[8];
    StoreLittleEndian64(seed, i);
    TxId id = crypto::Sha256::Hash(ByteView(seed, sizeof(seed)));
    ids.push_back(id);
    id[16] ^= 0x80;  // Same first eight bytes.
    ids.push_back(id);
  }
  for (const TxId& id : ids) EXPECT_TRUE(pool.Add(t, id));
  for (const TxId& id : ids) EXPECT_FALSE(pool.Add(t, id));
  EXPECT_FALSE(pool.Add(t, a));
  EXPECT_FALSE(pool.Add(t, zero));
  EXPECT_EQ(pool.PendingTotal(), ids.size() + 3);
}

// An EC member checks a body from its wire records (BlockView): the ids it
// hashes from the records' body prefixes are the transactions' Id()s, and
// a body with one flipped body byte in any record fails the header check,
// so it is never witnessed. 37 records: two full 16-lane groups and a
// partial one.
TEST(TxBlocksTest, RecordIdsMatchBodiesAndFlippedBytesFailTheCheck) {
  Rng rng(31);
  TransactionBlock block;
  block.header.shard = 1;
  for (int i = 0; i < 37; ++i) {
    Transaction t;
    t.from = rng.NextU64();
    t.to = rng.NextU64();
    t.amount = rng.NextU64();
    t.nonce = rng.NextU64();
    t.submitted_at = rng.NextU64();
    for (auto& b : t.signature) b = static_cast<uint8_t>(rng.NextU64());
    block.transactions.push_back(t);
  }
  block.SealHeader();
  const Bytes wire = block.Encode();

  auto view = BlockView::Parse(wire);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->header.Id(), block.header.Id());
  ASSERT_EQ(view->size(), block.transactions.size());
  std::vector<TxId> ids;
  ASSERT_TRUE(view->BodyMatchesHeader(&ids));
  ASSERT_EQ(ids.size(), block.transactions.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    const Transaction& t = block.transactions[i];
    EXPECT_EQ(ids[i], t.Id()) << "tx " << i;
    Transaction unsigned_t = t;
    unsigned_t.signature = {};
    EXPECT_EQ(view->Body(i), unsigned_t) << "tx " << i;
  }

  // The records start after the header blob and the varint count.
  const size_t first = wire.size() - ids.size() * Transaction::kMinWireSize;
  for (size_t i = 0; i < ids.size(); ++i) {
    for (size_t byte = 0; byte < Transaction::kBodySize; ++byte) {
      Bytes flipped = wire;
      flipped[first + i * Transaction::kMinWireSize + byte] ^= 0x01;
      auto bad = BlockView::Parse(flipped);
      ASSERT_TRUE(bad.ok());
      std::vector<TxId> bad_ids;
      EXPECT_FALSE(bad->BodyMatchesHeader(&bad_ids))
          << "tx " << i << " byte " << byte;
    }
  }
  // A record short of its count, or a body with records missing, fails.
  EXPECT_FALSE(BlockView::Parse(ByteView(wire.data(), wire.size() - 1)).ok());
  TransactionBlock header_only;
  header_only.header = block.header;
  auto bodyless = BlockView::Parse(header_only.Encode());
  ASSERT_TRUE(bodyless.ok());
  EXPECT_FALSE(bodyless->BodyMatchesHeader(&ids));
}

TEST(TxPoolTest, PackBlockDrainsFifoUpToLimit) {
  TxPool pool(0);
  for (int i = 0; i < 10; ++i) pool.Add(Make(1, 2, 100 + i, i));
  TransactionBlock block = pool.PackBlock(0, 4, /*creator=*/7, /*round=*/3);
  EXPECT_EQ(block.transactions.size(), 4u);
  EXPECT_EQ(block.transactions[0].amount, 100u);  // FIFO order.
  EXPECT_EQ(block.header.creator_storage_node, 7u);
  EXPECT_TRUE(block.BodyMatchesHeader());
  EXPECT_EQ(pool.PendingTotal(), 6u);
}

// PackBlock seals from the ids computed at admission; they must give the
// same root as re-hashing the body, and the ids it hands back must be the
// bodies' ids in block order.
TEST(TxBlocksTest, PackedBlockSealMatchesFreshSeal) {
  TxPool pool(1);
  for (int i = 0; i < 12; ++i) {
    Transaction t = Make(2 * i + 2, 2 * i + 4, 10 + i, i);
    if (i % 3 == 0) {
      ASSERT_TRUE(pool.Add(t, t.Id()));
    } else {
      ASSERT_TRUE(pool.Add(t));
    }
  }
  std::vector<TxId> ids;
  TransactionBlock packed = pool.PackBlock(0, 8, /*creator=*/1, /*round=*/2,
                                           &ids);
  ASSERT_EQ(packed.transactions.size(), 8u);
  ASSERT_EQ(ids.size(), 8u);
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], packed.transactions[i].Id()) << "tx " << i;
  }
  TransactionBlock fresh = packed;
  fresh.header.tx_root = crypto::ZeroHash();
  fresh.header.tx_count = 0;
  fresh.SealHeader();
  EXPECT_EQ(packed.header.tx_root, fresh.header.tx_root);
  EXPECT_EQ(packed.header.tx_count, fresh.header.tx_count);
  EXPECT_TRUE(packed.BodyMatchesHeader());

  std::vector<TxId> verified;
  EXPECT_TRUE(packed.BodyMatchesHeader(&verified));
  EXPECT_EQ(verified, ids);
}

}  // namespace
}  // namespace porygon::tx
