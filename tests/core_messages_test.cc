// Wire-format round-trip tests for every protocol message, plus the
// phase-accounting map (Fig 9b's buckets).

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/wire.h"
#include "core/messages.h"
#include "crypto/provider.h"

namespace porygon::core {
namespace {

crypto::Hash256 H(uint8_t tag) {
  crypto::Hash256 h{};
  h[0] = tag;
  return h;
}

TEST(MessagesTest, RoleAnnounceRoundTrip) {
  crypto::FastProvider provider;
  Rng rng(1);
  auto kp = provider.GenerateKeyPair(&rng);
  RoleAnnounce a;
  a.round = 42;
  a.role = static_cast<uint8_t>(Role::kExecution);
  a.shard = 3;
  a.sortition = 0.125;
  a.node_key = kp.public_key;
  a.proof = provider.Prove(kp.private_key, ToBytes("seed"));
  a.node_id = 17;

  auto d = RoleAnnounce::Decode(a.Encode());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->round, 42u);
  EXPECT_EQ(d->shard, 3u);
  EXPECT_EQ(d->sortition, 0.125);
  EXPECT_EQ(d->node_key, kp.public_key);
  EXPECT_EQ(d->proof.output, a.proof.output);
  EXPECT_EQ(d->node_id, 17u);
}

TEST(MessagesTest, WitnessUploadRoundTrip) {
  WitnessUpload w;
  w.round = 5;
  w.shard = 2;
  w.proof.block_id = H(1);
  w.proof.witness.fill(0xAA);
  w.proof.signature.fill(0xBB);
  auto d = WitnessUpload::Decode(w.Encode());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->round, 5u);
  EXPECT_EQ(d->proof.block_id, H(1));
  EXPECT_EQ(d->proof.signature, w.proof.signature);
}

TEST(MessagesTest, WitnessBundleRoundTripAndWireSize) {
  WitnessBundle bundle;
  bundle.batch_round = 9;
  WitnessedBlock wb;
  wb.header.shard = 1;
  wb.header.tx_count = 2;
  tx::WitnessProof proof;
  proof.block_id = H(2);
  wb.proofs.push_back(proof);
  const std::vector<TxAccess> accesses = {{H(3), 10, 20, 5, 0, 1000},
                                          {H(4), 11, 21, 6, 1, 1001}};
  wb.records = AccessRecords(accesses);
  bundle.blocks.push_back(wb);

  auto d = WitnessBundle::Decode(bundle.Encode());
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(d->blocks.size(), 1u);
  EXPECT_EQ(d->blocks[0].records.size(), 2u);
  EXPECT_EQ(d->blocks[0].records.At(1).to, 21u);
  EXPECT_EQ(d->blocks[0].records.At(0), accesses[0]);
  EXPECT_EQ(d->blocks[0].records.At(1), accesses[1]);
  std::vector<TxAccess> decoded;
  d->blocks[0].records.DecodeTo(&decoded);
  EXPECT_EQ(decoded, accesses);

  // A received payload keeps the records: decoding with the payload as
  // owner shares its buffer instead of copying them out.
  const SharedBytes payload = bundle.Encode();
  auto shared = WitnessBundle::Decode(payload, payload);
  ASSERT_TRUE(shared.ok());
  EXPECT_EQ(shared->blocks[0].records.buffer().data(), payload.data());
  EXPECT_EQ(shared->blocks[0].records.At(1), accesses[1]);
  EXPECT_EQ(shared->blocks[0].Encode(), wb.Encode());

  // Wire size charges the compressed encoding (6 B/access), far below the
  // in-memory payload.
  EXPECT_LT(bundle.WireSize(), bundle.Encode().size());
}

TEST(MessagesTest, ExecRequestRoundTrip) {
  ExecRequest req;
  req.round = 7;
  req.shard = 1;
  req.block_ids = {H(5), H(6)};
  req.updates = {{100, {2000, 3}}};
  req.discarded = {H(7)};
  req.shard_root = H(8);
  req.all_roots = {H(9), H(10)};
  req.members = {4, 8, 15};

  auto d = ExecRequest::Decode(req.Encode());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->block_ids.size(), 2u);
  EXPECT_EQ(d->updates[0].account, 100u);
  EXPECT_EQ(d->updates[0].value.balance, 2000u);
  EXPECT_EQ(d->discarded[0], H(7));
  EXPECT_EQ(d->all_roots[1], H(10));
  EXPECT_EQ(d->members, (std::vector<net::NodeId>{4, 8, 15}));
}

TEST(MessagesTest, StateRequestResponseRoundTrip) {
  StateRequest req;
  req.round = 3;
  req.shard = 0;
  req.accounts = {1, 2, 3};
  auto dreq = StateRequest::Decode(req.Encode());
  ASSERT_TRUE(dreq.ok());
  EXPECT_EQ(dreq->accounts, req.accounts);

  StateResponse resp;
  resp.round = 3;
  resp.shard = 0;
  resp.entries = {{1, true, {500, 2}}, {2, false, {}}};
  resp.billed_bytes = 256;
  resp.proofs = {ToBytes("proof-one"), ToBytes("proof-two")};
  auto dresp = StateResponse::Decode(resp.Encode());
  ASSERT_TRUE(dresp.ok());
  EXPECT_EQ(dresp->entries.size(), 2u);
  EXPECT_TRUE(dresp->entries[0].present);
  EXPECT_FALSE(dresp->entries[1].present);
  EXPECT_EQ(dresp->billed_bytes, 256u);
  EXPECT_EQ(dresp->proofs[1], ToBytes("proof-two"));
}

TEST(MessagesTest, ExecResultAttestationOmitsPayload) {
  crypto::FastProvider provider;
  Rng rng(2);
  auto kp = provider.GenerateKeyPair(&rng);

  ExecResultMsg full;
  full.exec_round = 4;
  full.shard = 1;
  full.new_root = H(11);
  full.s_set = {{7, {70, 1}}, {8, {80, 0}}};
  full.s_hash = ExecResultMsg::HashSSet(full.s_set);
  full.full = true;
  full.signer = kp.public_key;
  full.signature = provider.Sign(kp.private_key, full.SigningBytes());

  ExecResultMsg attest = full;
  attest.full = false;
  attest.s_set.clear();

  // Attestations are much smaller but sign the same content.
  EXPECT_LT(attest.Encode().size(), full.Encode().size());
  EXPECT_EQ(attest.SigningBytes(), full.SigningBytes());

  auto dfull = ExecResultMsg::Decode(full.Encode());
  ASSERT_TRUE(dfull.ok());
  EXPECT_EQ(dfull->s_set.size(), 2u);
  EXPECT_EQ(ExecResultMsg::HashSSet(dfull->s_set), dfull->s_hash);

  auto dattest = ExecResultMsg::Decode(attest.Encode());
  ASSERT_TRUE(dattest.ok());
  EXPECT_TRUE(dattest->s_set.empty());
  EXPECT_EQ(dattest->s_hash, full.s_hash);
}

TEST(MessagesTest, RelayRoundTrip) {
  Relay r;
  r.target = Relay::kToShardCommittee;
  r.round = 12;
  r.shard = 3;
  r.dest = 77;
  r.inner_kind = kMsgExecResult;
  r.inner = ToBytes("inner-bytes");
  auto d = Relay::Decode(r.Encode());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->target, Relay::kToShardCommittee);
  EXPECT_EQ(d->round, 12u);
  EXPECT_EQ(d->inner_kind, kMsgExecResult);
  EXPECT_EQ(d->inner, ToBytes("inner-bytes"));
}

TEST(MessagesTest, TipHeaderSummarizesItsBlock) {
  tx::ProposalBlock block;
  block.height = 6;
  block.prev_hash = H(1);
  block.round = 9;
  block.shard_tx_blocks = {{H(2)}, {}};
  block.shard_updates = {{}, {}};
  block.discarded = {H(3), H(4)};
  block.shard_roots = {H(5), H(6)};
  block.state_root = H(7);
  const TipHeader tip = TipHeader::Of(block);
  EXPECT_EQ(tip.height, 6u);
  EXPECT_EQ(tip.round, 9u);
  EXPECT_EQ(tip.hash, block.Hash());
  EXPECT_EQ(tip.shard_roots, block.shard_roots);
  EXPECT_EQ(tip.encoded_size, block.WireSize());

  auto d = TipHeader::Decode(tip.Encode());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->height, tip.height);
  EXPECT_EQ(d->round, tip.round);
  EXPECT_EQ(d->hash, tip.hash);
  EXPECT_EQ(d->shard_roots, tip.shard_roots);
  EXPECT_EQ(d->encoded_size, tip.encoded_size);

  // A node that never heard a round start counts an empty block.
  EXPECT_EQ(TipHeader().encoded_size, tx::ProposalBlock().WireSize());
}

TEST(MessagesTest, PhaseMapCoversProtocolKinds) {
  EXPECT_EQ(PhaseOfKind(kMsgTxBlock), 0);
  EXPECT_EQ(PhaseOfKind(kMsgWitnessUpload), 0);
  EXPECT_EQ(PhaseOfKind(kMsgWitnessBundle), 1);
  EXPECT_EQ(PhaseOfKind(kMsgVote), 1);
  EXPECT_EQ(PhaseOfKind(kMsgStateResponse), 2);
  EXPECT_EQ(PhaseOfKind(kMsgExecResult), 2);
  EXPECT_EQ(PhaseOfKind(kMsgCommit), 3);
  EXPECT_EQ(PhaseOfKind(kMsgNewRound), 3);
  EXPECT_EQ(PhaseOfKind(kMsgRoleAnnounce), -1);
  EXPECT_EQ(PhaseOfKind(kMsgGossip), -1);
}

TEST(MessagesTest, CorruptInputsRejected) {
  EXPECT_FALSE(RoleAnnounce::Decode(ToBytes("short")).ok());
  EXPECT_FALSE(WitnessBundle::Decode(ToBytes("x")).ok());
  EXPECT_FALSE(ExecRequest::Decode(ToBytes("")).ok());
  EXPECT_FALSE(ExecResultMsg::Decode(ToBytes("??")).ok());
  EXPECT_FALSE(Relay::Decode(ToBytes("")).ok());
}

// A forged element count must be Corruption before anything is allocated
// for it. Each row writes a valid prefix up to one decoder's count field,
// then the forged count and a little padding.
TEST(MessagesTest, OversizedCountsAreCorruption) {
  using Prefix = std::function<void(wire::Writer*)>;
  const Bytes header = tx::TransactionBlockHeader().Encode();
  const crypto::Hash256 h{};
  struct Row {
    std::string name;
    Prefix prefix;
    std::function<Status(ByteView)> decode;
  };
  const std::vector<Row> rows = {
      {"ProposalBlock",
       [&](wire::Writer* w) { w->U64(1).Array(h).U64(2).Array(h); },
       [](ByteView v) { return tx::ProposalBlock::Decode(v).status(); }},
      {"TipHeader", [&](wire::Writer* w) { w->U64(1).U64(2).Array(h); },
       [](ByteView v) { return TipHeader::Decode(v).status(); }},
      {"TransactionBlock", [&](wire::Writer* w) { w->Blob(header); },
       [](ByteView v) { return tx::TransactionBlock::Decode(v).status(); }},
      {"ExecRequest",
       [&](wire::Writer* w) {
         w->U64(1).U32(0).Varint(0).Varint(0).Varint(0).Array(h);
       },
       [](ByteView v) { return ExecRequest::Decode(v).status(); }},
      {"WitnessBundle", [](wire::Writer* w) { w->U64(1); },
       [](ByteView v) { return WitnessBundle::Decode(v).status(); }},
      {"WitnessedBlock", [&](wire::Writer* w) { w->Blob(header); },
       [](ByteView v) { return WitnessedBlock::Decode(v).status(); }},
      {"AggregatedWitness", [](wire::Writer* w) { w->U64(1).U32(0).U32(2); },
       [](ByteView v) { return AggregatedWitness::Decode(v).status(); }},
      {"ExecResultMsg",
       [&](wire::Writer* w) { w->U64(1).U32(0).Array(h).Array(h).Bool(true); },
       [](ByteView v) { return ExecResultMsg::Decode(v).status(); }},
      {"AggregatedExecResult",
       [&](wire::Writer* w) {
         w->U64(1).U32(0).Array(h).Array(h).U32(3).U32(4).Bool(false).U32(5);
       },
       [](ByteView v) { return AggregatedExecResult::Decode(v).status(); }},
      {"CompactVoteCert",
       [&](wire::Writer* w) { w->U64(1).U32(0).U8(0).Array(h).U64(7); },
       [](ByteView v) { return CompactVoteCert::Decode(v).status(); }},
      {"BodyChunk",
       [&](wire::Writer* w) {
         w->U64(1).U32(0).Blob(header).U16(0).U16(1).U16(2);
       },
       [](ByteView v) { return BodyChunk::Decode(v).status(); }},
  };
  for (const Row& row : rows) {
    for (uint64_t count : {uint64_t{1} << 26, uint64_t{1} << 60}) {
      wire::Writer w;
      row.prefix(&w);
      const Bytes forged = w.Varint(count).Raw(Bytes(64, 0)).Take();
      Status st = Status::Ok();
      EXPECT_NO_THROW(st = row.decode(forged)) << row.name << " " << count;
      EXPECT_TRUE(st.IsCorruption()) << row.name << " " << count;
    }
  }
}

TEST(MessagesTest, SharedKeysAndSigningBytesKeepTheirLayout) {
  tx::TransactionBlockHeader header;
  header.shard = 3;
  header.tx_count = 9;
  const Bytes enc = header.Encode();
  Bytes expected = ToBytes("porygon.witness");
  expected.insert(expected.end(), enc.begin(), enc.end());
  EXPECT_EQ(WitnessSigningBytes(header), expected);

  const crypto::Hash256 root = H(1), s_hash = H(2);
  EXPECT_EQ(IdKey(root), std::string(root.begin(), root.end()));
  // The OC leader reads the root from the first half, the S hash from the
  // second.
  EXPECT_EQ(ExecResultMsg::ResultKey(root, s_hash),
            IdKey(root) + IdKey(s_hash));
}

}  // namespace
}  // namespace porygon::core
