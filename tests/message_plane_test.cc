// Message plane and retention: a storage node's OC relay fans one shared
// inner buffer out to the whole committee, and every actor keeps only what
// it can still read (OC bundles of batch r-1, EC bodies as access records
// until their execution, storage witness bookkeeping with the block store).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "consensus/ba_star.h"
#include "core/system.h"
#include "net/dissemination.h"

namespace porygon::core {
namespace {

SystemOptions Opts(const std::string& dissemination) {
  SystemOptions opt;
  opt.params.shard_bits = 1;
  opt.params.witness_threshold = 2;
  opt.params.execution_threshold = 2;
  // Two blocks per shard per round at this load.
  opt.params.block_tx_limit = 10;
  opt.params.storage_connections = 2;
  opt.num_storage_nodes = 2;
  // EC cohorts large enough for the tree mode's 4/6 chunk mesh.
  opt.num_stateless_nodes = 38;
  opt.oc_size = 4;
  opt.blocks_per_shard_round = 2;
  opt.seed = 7;
  auto spec = net::DisseminationSpec::Parse(dissemination);
  EXPECT_TRUE(spec.ok()) << dissemination;
  if (spec.ok()) opt.dissemination = *spec;
  return opt;
}

// Fresh senders each round (nonce 0 everywhere), half of them cross-shard.
void SubmitRound(PorygonSystem* sys, int round) {
  const uint64_t base = 1 + static_cast<uint64_t>(round) * 24;
  for (uint64_t f = base; f < base + 12; ++f) {
    // Same parity = same shard under 1 shard bit; +601 flips it.
    for (uint64_t offset : {uint64_t{0}, uint64_t{12}}) {
      tx::Transaction t;
      t.from = f + offset;
      t.to = f + offset + 600 + offset / 12;
      t.amount = 1;
      ASSERT_TRUE(sys->SubmitTransaction(t).ok());
    }
  }
}

TEST(MessagePlaneTest, RelayFanOutSharesOneInnerBuffer) {
  PorygonSystem sys(Opts("direct"));
  sys.CreateAccounts(1200, 10'000);
  SubmitRound(&sys, 0);
  sys.Run(2, net::FromSeconds(600));
  ASSERT_EQ(sys.chain().size(), 3u);

  const StatelessNodeActor* sender = nullptr;
  for (int i = 0; i < sys.num_stateless_nodes() && sender == nullptr; ++i) {
    if (sys.stateless_node(i)->in_oc()) sender = sys.stateless_node(i);
  }
  ASSERT_NE(sender, nullptr);
  consensus::Vote vote;
  vote.instance = 999;  // No live instance: nothing acts on it.
  vote.step = 1;
  vote.value = crypto::Sha256::Hash(ToBytes("relayed vote"));
  vote.voter = sender->public_key();
  const Bytes inner = vote.Encode();

  // The fault hook sees every send: record the storage node's forwards.
  std::vector<net::Message> forwards;
  sys.network()->SetFaultHook([&](const net::Message& m) {
    if (m.from == sender->primary_storage() && m.kind == kMsgVote &&
        ByteView(m.payload) == ByteView(inner)) {
      forwards.push_back(m);
    }
    return net::FaultDecision{};
  });
  Relay relay;
  relay.target = Relay::kToOrderingCommittee;
  relay.round = sender->current_round();
  relay.inner_kind = kMsgVote;
  relay.inner = inner;
  sys.network()->Send(sender->net_id(), sender->primary_storage(), kMsgRelay,
                      relay.Encode());
  sys.events()->RunUntil(sys.events()->now() + net::FromSeconds(1));

  // Direct mode echoes to the sender too: one forward per OC member.
  std::set<net::NodeId> recipients;
  for (const net::Message& m : forwards) recipients.insert(m.to);
  const std::set<net::NodeId> members(sys.oc().ids.begin(),
                                      sys.oc().ids.end());
  EXPECT_EQ(recipients, members);
  ASSERT_EQ(forwards.size(), members.size());
  for (const net::Message& m : forwards) {
    EXPECT_EQ(m.payload.data(), forwards.front().payload.data()) << m.to;
    auto decoded = consensus::Vote::Decode(m.payload);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->Encode(), inner);
  }
}

class RetentionTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RetentionTest, ActorsKeepOnlyWhatTheyStillRead) {
  PorygonSystem sys(Opts(GetParam()));
  sys.CreateAccounts(1200, 10'000);
  size_t bundle_batches = 0;
  size_t held_records = 0;
  // The payloads OC members' bundles hold their access records in, by
  // batch: alive while some member can still list the batch.
  std::vector<std::pair<uint64_t, std::weak_ptr<const Bytes>>> payloads;
  size_t expired_payloads = 0;
  for (int r = 0; r < 20; ++r) {
    SubmitRound(&sys, r);
    sys.Run(1, net::FromSeconds(600));
    for (int i = 0; i < sys.num_stateless_nodes(); ++i) {
      const StatelessNodeActor* node = sys.stateless_node(i);
      const uint64_t now = node->current_round();
      // OC members: only batch r-1 can still be listed.
      for (const auto& [batch, blocks] : node->bundles()) {
        EXPECT_GE(batch + 1, now) << "node " << i << " round " << now;
        ++bundle_batches;
        for (const auto& [key, block] : blocks) {
          EXPECT_EQ(block.records.size(), block.header.tx_count);
          const std::weak_ptr<const Bytes> watch =
              block.records.buffer().Watch();
          EXPECT_FALSE(watch.expired());
          payloads.emplace_back(batch, watch);
        }
      }
      if (!node->in_oc()) {
        EXPECT_TRUE(node->bundles().empty()) << i;
      }
      // EC members: bodies as access records, from the witness round until
      // the execution two rounds later, each id the one hashed at
      // admission.
      for (const auto& [key, held] : node->held_blocks()) {
        EXPECT_GE(held.witnessed_round + 2, now) << "node " << i;
        EXPECT_EQ(held.txs.size(), held.header.tx_count);
        auto stored = sys.block_store().find(key);
        ASSERT_NE(stored, sys.block_store().end()) << "node " << i;
        ASSERT_EQ(stored->second.tx_ids.size(), held.txs.size());
        for (size_t j = 0; j < held.txs.size(); ++j) {
          EXPECT_EQ(held.txs[j].id, stored->second.tx_ids[j]);
          EXPECT_EQ(held.txs[j],
                    ToAccess(stored->second.block.transactions[j],
                             stored->second.tx_ids[j]));
          ++held_records;
        }
      }
    }
    // Once no OC member can list a batch, its payloads are gone.
    uint64_t oldest_round = UINT64_MAX;
    for (net::NodeId id : sys.oc().ids) {
      oldest_round =
          std::min(oldest_round, sys.StatelessByNetId(id)->current_round());
    }
    for (const auto& [batch, watch] : payloads) {
      if (batch + 1 >= oldest_round) continue;
      EXPECT_TRUE(watch.expired()) << "batch " << batch << " round " << r;
      ++expired_payloads;
    }
    // Storage nodes: witness bookkeeping only for blocks still stored.
    for (int s = 0; s < sys.num_storage_nodes(); ++s) {
      const StorageNodeActor* storage = sys.storage_node(s);
      for (const std::string& key : storage->WitnessedBlockKeys()) {
        EXPECT_EQ(sys.block_store().count(key), 1u) << "storage " << s;
      }
    }
  }
  ASSERT_EQ(sys.chain().size(), 21u);
  EXPECT_GT(sys.metrics().committed_txs(), 0u);
  EXPECT_GT(bundle_batches, 0u);
  EXPECT_GT(expired_payloads, 0u);
  EXPECT_GT(held_records, 0u);
  // The store pruned the early batches; the bookkeeping kept its blocks.
  EXPECT_FALSE(sys.storage_node(0)->WitnessedBlockKeys().empty());
}

INSTANTIATE_TEST_SUITE_P(Modes, RetentionTest,
                         ::testing::Values("direct", "tree"));

}  // namespace
}  // namespace porygon::core
