// Golden wire bytes: one fixed, non-trivial instance of every encoded type,
// compared with hex pinned from the codec as it stood before the move onto
// the single wire::Writer/Reader pair. These layouts feed chain hashes,
// block and tx ids, signing bytes, the GlobalRoot and the bandwidth model,
// so a drift here silently changes every downstream number.
//
// The sweep feeds every strict prefix and one appended byte of each row
// that decodes from a ByteView back to its decoder: all must fail cleanly
// (a non-OK status, no throw). Under the ASan/UBSan build this also checks
// that no decoder reads past its input.

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "core/committee.h"
#include "core/messages.h"
#include "core/system.h"
#include "state/account.h"
#include "state/smt.h"
#include "storage/env.h"
#include "storage/sstable.h"
#include "storage/wal.h"

namespace porygon::core {
namespace {

template <size_t N>
std::array<uint8_t, N> Pat(uint8_t seed) {
  std::array<uint8_t, N> a{};
  for (size_t i = 0; i < N; ++i) a[i] = static_cast<uint8_t>(seed + 7 * i);
  return a;
}

crypto::Hash256 H(uint8_t seed) { return Pat<32>(seed); }

struct Row {
  std::string name;
  Bytes bytes;
  /// Decode function for the sweep; empty for encode-only layouts
  /// (signing bytes, hash inputs, file records).
  std::function<Status(ByteView)> decode;
  /// A prefix length that legitimately decodes: a traced Relay cut where
  /// its optional trace tail starts. 0 = none.
  size_t optional_cut = 0;
};

template <typename T>
std::function<Status(ByteView)> DecodeWith() {
  return [](ByteView v) { return T::Decode(v).status(); };
}

tx::TransactionBlockHeader Header() {
  tx::TransactionBlockHeader h;
  h.creator_storage_node = 3;
  h.round_created = 0x0102030405;
  h.shard = 5;
  h.tx_count = 2;
  h.tx_root = H(0x10);
  return h;
}

tx::Transaction Tx(uint64_t from) {
  tx::Transaction t;
  t.from = from;
  t.to = from * 31 + 7;
  t.amount = 1000 + from;
  t.nonce = from % 5;
  t.submitted_at = 123456789 + from;
  t.signature = Pat<64>(static_cast<uint8_t>(from));
  return t;
}

tx::WitnessProof Proof(uint8_t seed) {
  tx::WitnessProof p;
  p.block_id = H(seed);
  p.witness = Pat<32>(seed + 1);
  p.signature = Pat<64>(seed + 2);
  return p;
}

consensus::Vote MakeVote(uint8_t seed, uint8_t kind) {
  consensus::Vote v;
  v.instance = 77;
  v.step = 3;
  v.kind = kind;
  v.value = H(seed);
  v.voter = Pat<32>(seed + 1);
  v.signature = Pat<64>(seed + 2);
  return v;
}

WitnessedBlock Witnessed(uint8_t seed) {
  WitnessedBlock b;
  b.header = Header();
  b.header.shard = seed;
  b.proofs = {Proof(seed), Proof(seed + 1)};
  b.records = AccessRecords({{H(seed + 2), 10, 20, 5, 0, 1000},
                             {H(seed + 3), 300, 70000, 1 << 20, 9, 1001}});
  return b;
}

// Updates whose varints span one to several bytes.
const std::vector<tx::StateUpdate> kUpdates = {
    {7, {70, 1}}, {1 << 20, {uint64_t{1} << 40, 300}}, {0, {0, 0}}};

ExecResultMsg ExecResult(bool full) {
  ExecResultMsg m;
  m.exec_round = 12;
  m.shard = 2;
  m.new_root = H(0x30);
  m.s_hash = ExecResultMsg::HashSSet(kUpdates);
  m.full = full;
  if (full) m.s_set = kUpdates;
  m.intra_applied = 40;
  m.cross_pre_executed = 6;
  m.signer = Pat<32>(0x31);
  m.signature = Pat<64>(0x32);
  return m;
}

Relay MakeRelay(bool traced) {
  Relay r;
  r.target = Relay::kToShardCommittee;
  r.round = 12;
  r.shard = 3;
  r.dest = 77;
  r.inner_kind = kMsgExecResult;
  r.inner = ToBytes("inner-bytes");
  if (traced) r.trace = {0x1122334455667788ULL, 0x99};
  return r;
}

// The storage-to-storage gossip wrapper is built inside the storage actor,
// so its row is the first gossip payload of a small seeded run.
Bytes FirstGossipPayload() {
  SystemOptions opt;
  opt.params.shard_bits = 1;
  opt.params.witness_threshold = 2;
  opt.params.execution_threshold = 2;
  opt.params.block_tx_limit = 50;
  opt.params.storage_connections = 2;
  opt.num_storage_nodes = 2;
  opt.num_stateless_nodes = 26;
  opt.oc_size = 4;
  opt.blocks_per_shard_round = 2;
  opt.seed = 7;
  PorygonSystem sys(opt);
  sys.CreateAccounts(100, 1000);
  Bytes first;
  sys.network()->SetDropFilter([&first](const net::Message& m) {
    if (m.kind == kMsgGossip && first.empty()) {
      first = ByteView(m.payload).ToBytes();
    }
    return false;
  });
  sys.Run(1);
  return first;
}

Bytes WalRecordBytes() {
  storage::MemEnv env;
  auto wal = storage::WalWriter::Open(&env, "wal");
  EXPECT_TRUE(wal.ok());
  EXPECT_TRUE((*wal)->AddRecord(0x0A0B, storage::ValueType::kValue,
                                ToBytes("key-1"), ToBytes("value-one"))
                  .ok());
  return *env.ReadFile("wal");
}

Bytes SstableFooterBytes() {
  storage::MemEnv env;
  storage::SstableBuilder b(&env, "t.sst");
  EXPECT_TRUE(
      b.Add(ToBytes("a"), 5, storage::ValueType::kValue, ToBytes("x")).ok());
  EXPECT_TRUE(
      b.Add(ToBytes("b"), 6, storage::ValueType::kDeletion, ByteView()).ok());
  EXPECT_TRUE(b.Finish().ok());
  Bytes file = *env.ReadFile("t.sst");
  constexpr size_t kFooter = 5 * 8 + 4 + 8;
  return Bytes(file.end() - kFooter, file.end());
}

// Hex captured from the encoders before the port; one entry per row of
// GoldenTable(), in the same order.
const std::pair<const char*, const char*> kPinned[] = {
    {"Transaction",
     "09000000000000001e01000000000000f1030000000000000400000000000000"
     "1ecd5b07000000000910171e252c333a41484f565d646b727980878e959ca3aa"
     "b1b8bfc6cdd4dbe2e9f0f7fe050c131a21282f363d444b525960676e757c838a"
     "91989fa6adb4bbc2"},
    {"TransactionBlockHeader",
     "030000000504030201000000050000000200000010171e252c333a41484f565d"
     "646b727980878e959ca3aab1b8bfc6cdd4dbe2e9"},
    {"TransactionBlock",
     "34030000000504030201000000050000000200000010171e252c333a41484f56"
     "5d646b727980878e959ca3aab1b8bfc6cdd4dbe2e90201000000000000002600"
     "000000000000e903000000000000010000000000000016cd5b07000000000108"
     "0f161d242b323940474e555c636a71787f868d949ba2a9b0b7bec5ccd3dae1e8"
     "eff6fd040b121920272e353c434a51585f666d747b828990979ea5acb3ba0200"
     "0000000000004500000000000000ea03000000000000020000000000000017cd"
     "5b0700000000020910171e252c333a41484f565d646b727980878e959ca3aab1"
     "b8bfc6cdd4dbe2e9f0f7fe050c131a21282f363d444b525960676e757c838a91"
     "989fa6adb4bb"},
    {"WitnessProof",
     "20272e353c434a51585f666d747b828990979ea5acb3bac1c8cfd6dde4ebf2f9"
     "21282f363d444b525960676e757c838a91989fa6adb4bbc2c9d0d7dee5ecf3fa"
     "222930373e454c535a61686f767d848b9299a0a7aeb5bcc3cad1d8dfe6edf4fb"
     "020910171e252c333a41484f565d646b727980878e959ca3aab1b8bfc6cdd4db"},
    {"ProposalBlock",
     "290000000000000040474e555c636a71787f868d949ba2a9b0b7bec5ccd3dae1"
     "e8eff6fd040b12192c0000000000000041484f565d646b727980878e959ca3aa"
     "b1b8bfc6cdd4dbe2e9f0f7fe050c131a0202424950575e656c737a81888f969d"
     "a4abb2b9c0c7ced5dce3eaf1f8ff060d141b434a51585f666d747b828990979e"
     "a5acb3bac1c8cfd6dde4ebf2f900070e151c0002000307460180804080808080"
     "8020ac0200000001444b525960676e757c838a91989fa6adb4bbc2c9d0d7dee5"
     "ecf3fa01080f161d02454c535a61686f767d848b9299a0a7aeb5bcc3cad1d8df"
     "e6edf4fb020910171e464d545b626970777e858c939aa1a8afb6bdc4cbd2d9e0"
     "e7eef5fc030a11181f474e555c636a71787f868d949ba2a9b0b7bec5ccd3dae1"
     "e8eff6fd040b121920000000000000903f555555555555d53f"},
    {"Vote",
     "4d00000000000000030000000150575e656c737a81888f969da4abb2b9c0c7ce"
     "d5dce3eaf1f8ff060d141b222951585f666d747b828990979ea5acb3bac1c8cf"
     "d6dde4ebf2f900070e151c232a525960676e757c838a91989fa6adb4bbc2c9d0"
     "d7dee5ecf3fa01080f161d242b323940474e555c636a71787f868d949ba2a9b0"
     "b7bec5ccd3dae1e8eff6fd040b"},
    {"Vote::SigningBytes",
     "0c706f7279676f6e2e766f74654d00000000000000030000000150575e656c73"
     "7a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d141b2229"},
    {"DecisionCert",
     "4d0000000000000050575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1"
     "f8ff060d141b2229020000004d00000000000000030000000150575e656c737a"
     "81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d141b222951585f666d747b"
     "828990979ea5acb3bac1c8cfd6dde4ebf2f900070e151c232a525960676e757c"
     "838a91989fa6adb4bbc2c9d0d7dee5ecf3fa01080f161d242b323940474e555c"
     "636a71787f868d949ba2a9b0b7bec5ccd3dae1e8eff6fd040b4d000000000000"
     "000300000000585f666d747b828990979ea5acb3bac1c8cfd6dde4ebf2f90007"
     "0e151c232a315960676e757c838a91989fa6adb4bbc2c9d0d7dee5ecf3fa0108"
     "0f161d242b325a61686f767d848b9299a0a7aeb5bcc3cad1d8dfe6edf4fb0209"
     "10171e252c333a41484f565d646b727980878e959ca3aab1b8bfc6cdd4dbe2e9"
     "f0f7fe050c13"},
    {"RoleAnnounce",
     "2a000000000000000203000000000000000000c03f60676e757c838a91989fa6"
     "adb4bbc2c9d0d7dee5ecf3fa01080f161d242b323961686f767d848b9299a0a7"
     "aeb5bcc3cad1d8dfe6edf4fb020910171e252c333a41484f565d646b72798087"
     "8e959ca3aab1b8bfc6cdd4dbe2e9f0f7fe050c131a626970777e858c939aa1a8"
     "afb6bdc4cbd2d9e0e7eef5fc030a11181f262d343b11000000"},
    {"ResyncRequest",
     "8967452301000000"},
    {"TipHeader",
     "29000000000000002c00000000000000484f565d646b727980878e959ca3aab1"
     "b8bfc6cdd4dbe2e9f0f7fe050c131a2102454c535a61686f767d848b9299a0a7"
     "aeb5bcc3cad1d8dfe6edf4fb020910171e464d545b626970777e858c939aa1a8"
     "afb6bdc4cbd2d9e0e7eef5fc030a11181f0102000000000000"},
    {"WitnessUpload",
     "050000000000000002000000636a71787f868d949ba2a9b0b7bec5ccd3dae1e8"
     "eff6fd040b121920272e353c646b727980878e959ca3aab1b8bfc6cdd4dbe2e9"
     "f0f7fe050c131a21282f363d656c737a81888f969da4abb2b9c0c7ced5dce3ea"
     "f1f8ff060d141b222930373e454c535a61686f767d848b9299a0a7aeb5bcc3ca"
     "d1d8dfe6edf4fb020910171e"},
    {"WitnessedBlock",
     "34030000000504030201000000640000000200000010171e252c333a41484f56"
     "5d646b727980878e959ca3aab1b8bfc6cdd4dbe2e902646b727980878e959ca3"
     "aab1b8bfc6cdd4dbe2e9f0f7fe050c131a21282f363d656c737a81888f969da4"
     "abb2b9c0c7ced5dce3eaf1f8ff060d141b222930373e666d747b828990979ea5"
     "acb3bac1c8cfd6dde4ebf2f900070e151c232a31383f464d545b626970777e85"
     "8c939aa1a8afb6bdc4cbd2d9e0e7eef5fc030a11181f656c737a81888f969da4"
     "abb2b9c0c7ced5dce3eaf1f8ff060d141b222930373e666d747b828990979ea5"
     "acb3bac1c8cfd6dde4ebf2f900070e151c232a31383f676e757c838a91989fa6"
     "adb4bbc2c9d0d7dee5ecf3fa01080f161d242b323940474e555c636a71787f86"
     "8d949ba2a9b0b7bec5ccd3dae1e8eff6fd040b12192002666d747b828990979e"
     "a5acb3bac1c8cfd6dde4ebf2f900070e151c232a31383f0a0000000000000014"
     "0000000000000005000000000000000000000000000000e80300000000000067"
     "6e757c838a91989fa6adb4bbc2c9d0d7dee5ecf3fa01080f161d242b3239402c"
     "01000000000000701101000000000000001000000000000900000000000000e9"
     "03000000000000"},
    {"WitnessBundle",
     "090000000000000002c703340300000005040302010000006500000002000000"
     "10171e252c333a41484f565d646b727980878e959ca3aab1b8bfc6cdd4dbe2e9"
     "02656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d141b22293037"
     "3e666d747b828990979ea5acb3bac1c8cfd6dde4ebf2f900070e151c232a3138"
     "3f676e757c838a91989fa6adb4bbc2c9d0d7dee5ecf3fa01080f161d242b3239"
     "40474e555c636a71787f868d949ba2a9b0b7bec5ccd3dae1e8eff6fd040b1219"
     "20666d747b828990979ea5acb3bac1c8cfd6dde4ebf2f900070e151c232a3138"
     "3f676e757c838a91989fa6adb4bbc2c9d0d7dee5ecf3fa01080f161d242b3239"
     "40686f767d848b9299a0a7aeb5bcc3cad1d8dfe6edf4fb020910171e252c333a"
     "41484f565d646b727980878e959ca3aab1b8bfc6cdd4dbe2e9f0f7fe050c131a"
     "2102676e757c838a91989fa6adb4bbc2c9d0d7dee5ecf3fa01080f161d242b32"
     "39400a0000000000000014000000000000000500000000000000000000000000"
     "0000e803000000000000686f767d848b9299a0a7aeb5bcc3cad1d8dfe6edf4fb"
     "020910171e252c333a412c010000000000007011010000000000000010000000"
     "00000900000000000000e903000000000000c703340300000005040302010000"
     "00660000000200000010171e252c333a41484f565d646b727980878e959ca3aa"
     "b1b8bfc6cdd4dbe2e902666d747b828990979ea5acb3bac1c8cfd6dde4ebf2f9"
     "00070e151c232a31383f676e757c838a91989fa6adb4bbc2c9d0d7dee5ecf3fa"
     "01080f161d242b323940686f767d848b9299a0a7aeb5bcc3cad1d8dfe6edf4fb"
     "020910171e252c333a41484f565d646b727980878e959ca3aab1b8bfc6cdd4db"
     "e2e9f0f7fe050c131a21676e757c838a91989fa6adb4bbc2c9d0d7dee5ecf3fa"
     "01080f161d242b323940686f767d848b9299a0a7aeb5bcc3cad1d8dfe6edf4fb"
     "020910171e252c333a416970777e858c939aa1a8afb6bdc4cbd2d9e0e7eef5fc"
     "030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dc"
     "e3eaf1f8ff060d141b2202686f767d848b9299a0a7aeb5bcc3cad1d8dfe6edf4"
     "fb020910171e252c333a410a0000000000000014000000000000000500000000"
     "0000000000000000000000e8030000000000006970777e858c939aa1a8afb6bd"
     "c4cbd2d9e0e7eef5fc030a11181f262d343b422c010000000000007011010000"
     "00000000001000000000000900000000000000e903000000000000"},
    {"ExecRequest",
     "0700000000000000010000000270777e858c939aa1a8afb6bdc4cbd2d9e0e7ee"
     "f5fc030a11181f262d343b424971787f868d949ba2a9b0b7bec5ccd3dae1e8ef"
     "f6fd040b121920272e353c434a03074601808040808080808020ac0200000001"
     "727980878e959ca3aab1b8bfc6cdd4dbe2e9f0f7fe050c131a21282f363d444b"
     "737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d141b222930373e454c"
     "02747b828990979ea5acb3bac1c8cfd6dde4ebf2f900070e151c232a31383f46"
     "4d757c838a91989fa6adb4bbc2c9d0d7dee5ecf3fa01080f161d242b32394047"
     "4e03040000000800000070110100"},
    {"StateRequest",
     "0300000000000000010000000301000000000000002c01000000000000000000"
     "0000010000"},
    {"StateResponse",
     "03000000000000000100000002010000000000000001f4010000000000000200"
     "0000000000000200000000000000000000000000000000000000000000000000"
     "01000000000000020970726f6f662d6f6e650970726f6f662d74776f"},
    {"ExecResultMsg/full",
     "0c000000000000000200000030373e454c535a61686f767d848b9299a0a7aeb5"
     "bcc3cad1d8dfe6edf4fb02092d6901b12fda722f86e7c75cd335cc7b7de88a8b"
     "de1afcf15a38bd4433c8884b0103074601808040808080808020ac0200000028"
     "0000000600000031383f464d545b626970777e858c939aa1a8afb6bdc4cbd2d9"
     "e0e7eef5fc030a323940474e555c636a71787f868d949ba2a9b0b7bec5ccd3da"
     "e1e8eff6fd040b121920272e353c434a51585f666d747b828990979ea5acb3ba"
     "c1c8cfd6dde4eb"},
    {"ExecResultMsg/attestation",
     "0c000000000000000200000030373e454c535a61686f767d848b9299a0a7aeb5"
     "bcc3cad1d8dfe6edf4fb02092d6901b12fda722f86e7c75cd335cc7b7de88a8b"
     "de1afcf15a38bd4433c8884b00280000000600000031383f464d545b62697077"
     "7e858c939aa1a8afb6bdc4cbd2d9e0e7eef5fc030a323940474e555c636a7178"
     "7f868d949ba2a9b0b7bec5ccd3dae1e8eff6fd040b121920272e353c434a5158"
     "5f666d747b828990979ea5acb3bac1c8cfd6dde4eb"},
    {"ExecResultMsg::SigningBytes",
     "13706f7279676f6e2e657865632d726573756c740c0000000000000002000000"
     "30373e454c535a61686f767d848b9299a0a7aeb5bcc3cad1d8dfe6edf4fb0209"
     "2d6901b12fda722f86e7c75cd335cc7b7de88a8bde1afcf15a38bd4433c8884b"
     "2800000006000000"},
    {"ExecResultMsg::HashSSet",
     "2d6901b12fda722f86e7c75cd335cc7b7de88a8bde1afcf15a38bd4433c8884b"},
    {"Relay",
     "020c00000000000000030000004d0000000b000b696e6e65722d6279746573"},
    {"Relay/traced",
     "020c00000000000000030000004d0000000b000b696e6e65722d627974657388"
     "776655443322119900000000000000"},
    {"BodyChunk",
     "0800000000000000010000003403000000050403020100000005000000020000"
     "0010171e252c333a41484f565d646b727980878e959ca3aab1b8bfc6cdd4dbe2"
     "e9020003000500030a0000000b000000701101000d6368756e6b2d7061796c6f"
     "6164"},
    {"AggregatedWitness",
     "0900000000000000010000002100000001c70334030000000504030201000000"
     "800000000200000010171e252c333a41484f565d646b727980878e959ca3aab1"
     "b8bfc6cdd4dbe2e90280878e959ca3aab1b8bfc6cdd4dbe2e9f0f7fe050c131a"
     "21282f363d444b525981888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d141b"
     "222930373e454c535a828990979ea5acb3bac1c8cfd6dde4ebf2f900070e151c"
     "232a31383f464d545b626970777e858c939aa1a8afb6bdc4cbd2d9e0e7eef5fc"
     "030a11181f262d343b81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d141b"
     "222930373e454c535a828990979ea5acb3bac1c8cfd6dde4ebf2f900070e151c"
     "232a31383f464d545b838a91989fa6adb4bbc2c9d0d7dee5ecf3fa01080f161d"
     "242b323940474e555c636a71787f868d949ba2a9b0b7bec5ccd3dae1e8eff6fd"
     "040b121920272e353c02828990979ea5acb3bac1c8cfd6dde4ebf2f900070e15"
     "1c232a31383f464d545b0a000000000000001400000000000000050000000000"
     "00000000000000000000e803000000000000838a91989fa6adb4bbc2c9d0d7de"
     "e5ecf3fa01080f161d242b323940474e555c2c01000000000000701101000000"
     "000000001000000000000900000000000000e903000000000000"},
    {"AggregatedExecResult",
     "0c000000000000000200000090979ea5acb3bac1c8cfd6dde4ebf2f900070e15"
     "1c232a31383f464d545b626991989fa6adb4bbc2c9d0d7dee5ecf3fa01080f16"
     "1d242b323940474e555c636a2800000006000000010307460180804080808080"
     "8020ac0200000022000000029299a0a7aeb5bcc3cad1d8dfe6edf4fb02091017"
     "1e252c333a41484f565d646b949ba2a9b0b7bec5ccd3dae1e8eff6fd040b1219"
     "20272e353c434a51585f666d747b828990979ea5acb3bac1c8cfd6dde4ebf2f9"
     "00070e151c232a31383f464d939aa1a8afb6bdc4cbd2d9e0e7eef5fc030a1118"
     "1f262d343b424950575e656c959ca3aab1b8bfc6cdd4dbe2e9f0f7fe050c131a"
     "21282f363d444b525960676e757c838a91989fa6adb4bbc2c9d0d7dee5ecf3fa"
     "01080f161d242b323940474e"},
    {"CompactVoteCert",
     "4d000000000000000300000000a0a7aeb5bcc3cad1d8dfe6edf4fb020910171e"
     "252c333a41484f565d646b72790b0000000000000003a1a8afb6bdc4cbd2d9e0"
     "e7eef5fc030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0"
     "c7ced5dce3eaf1f8ff060d141b222930373e454c535aa2a9b0b7bec5ccd3dae1"
     "e8eff6fd040b121920272e353c434a51585f666d747b828990979ea5acb3bac1"
     "c8cfd6dde4ebf2f900070e151c232a31383f464d545ba3aab1b8bfc6cdd4dbe2"
     "e9f0f7fe050c131a21282f363d444b525960676e757c838a91989fa6adb4bbc2"
     "c9d0d7dee5ecf3fa01080f161d242b323940474e555c"},
    {"RelayAck",
     "1500000000000000b0b7bec5ccd3dae1e8eff6fd040b121920272e353c434a51"
     "585f666d747b8289"},
    {"EncodeAccount",
     "87d61200000000005900000000000000"},
    {"AccountKey",
     "0807060504030201"},
    {"Sortition::SeedFor",
     "11706f7279676f6e2e736f72746974696f6e1300000000000000c0c7ced5dce3"
     "eaf1f8ff060d141b222930373e454c535a61686f767d848b9299"},
    {"SparseMerkleTree leaf root",
     "35ce647e8b6d35d066a8327694d261e61193fc2878fa7322b34cb39c4056daa5"},
    {"Storage gossip wrapper",
     "0e00990101000000000000000100000000cdc1edb7c383e43fb6f76f0cb5b7f5"
     "b54f92ed302ee5e804ecbdf91562825bc1e497809a1fe3ffd2a6ca8c8a102b41"
     "cf03f6952bd676cff289c3e6865eeb4d59bc3bab1dd5b2f90bcca6efc9fb47f6"
     "1d0bc6e409e084935000659a9778f7091e792e1a806b605583a41e1dbf6e0e69"
     "53ba06ef7a2bab080b1a08da5e3c91124c63222440b8e1b73003000000"},
    {"WAL record",
     "2471e9b8190000000b0a00000000000001056b65792d310976616c75652d6f6e"
     "65"},
    {"SSTable footer",
     "19000000000000000a0000000000000023000000000000000900000000000000"
     "02000000000000006b3b1509316e6f6779726f70"},
};

std::vector<Row> BuildRows() {
  std::vector<Row> rows;
  auto add = [&rows](std::string name, Bytes bytes,
                     std::function<Status(ByteView)> decode = {},
                     size_t optional_cut = 0) {
    rows.push_back(
        {std::move(name), std::move(bytes), std::move(decode), optional_cut});
  };

  // --- Transactions, blocks, proposals.
  add("Transaction", Tx(9).Encode(), DecodeWith<tx::Transaction>());
  add("TransactionBlockHeader", Header().Encode(),
      DecodeWith<tx::TransactionBlockHeader>());
  tx::TransactionBlock block;
  block.header = Header();
  block.transactions = {Tx(1), Tx(2)};
  add("TransactionBlock", block.Encode(),
      DecodeWith<tx::TransactionBlock>());
  add("WitnessProof", Proof(0x20).Encode(),
      DecodeWith<tx::WitnessProof>());
  tx::ProposalBlock p;
  p.height = 41;
  p.prev_hash = H(0x40);
  p.round = 44;
  p.leader = Pat<32>(0x41);
  p.shard_tx_blocks = {{H(0x42), H(0x43)}, {}};
  p.shard_updates = {{}, kUpdates};
  p.discarded = {H(0x44)};
  p.shard_roots = {H(0x45), H(0x46)};
  p.state_root = H(0x47);
  p.ordering_threshold = 0.015625;
  p.execution_threshold = 1.0 / 3.0;
  add("ProposalBlock", p.Encode(), DecodeWith<tx::ProposalBlock>());

  // --- BA*.
  const consensus::Vote vote = MakeVote(0x50, consensus::Vote::kCert);
  add("Vote", vote.Encode(), DecodeWith<consensus::Vote>());
  add("Vote::SigningBytes", vote.SigningBytes());
  consensus::DecisionCert cert;
  cert.instance = 77;
  cert.value = H(0x50);
  cert.votes = {vote, MakeVote(0x58, consensus::Vote::kSoft)};
  add("DecisionCert", cert.Encode(), DecodeWith<consensus::DecisionCert>());

  // --- Core messages.
  RoleAnnounce a;
  a.round = 42;
  a.role = 2;
  a.shard = 3;
  a.sortition = 0.125;
  a.node_key = Pat<32>(0x60);
  a.proof.proof = Pat<64>(0x61);
  a.proof.output = Pat<32>(0x62);
  a.node_id = 17;
  add("RoleAnnounce", a.Encode(), DecodeWith<RoleAnnounce>());
  add("ResyncRequest", ResyncRequest{0x0123456789}.Encode(),
      DecodeWith<ResyncRequest>());
  TipHeader tip;
  tip.height = 41;
  tip.round = 44;
  tip.hash = H(0x48);
  tip.shard_roots = {H(0x45), H(0x46)};
  tip.encoded_size = 0x201;
  add("TipHeader", tip.Encode(), DecodeWith<TipHeader>());
  add("WitnessUpload", WitnessUpload{5, 2, Proof(0x63)}.Encode(),
      DecodeWith<WitnessUpload>());
  add("WitnessedBlock", Witnessed(0x64).Encode(),
      DecodeWith<WitnessedBlock>());
  WitnessBundle bundle;
  bundle.batch_round = 9;
  bundle.blocks = {Witnessed(0x65), Witnessed(0x66)};
  add("WitnessBundle", bundle.Encode(), DecodeWith<WitnessBundle>());
  ExecRequest req;
  req.round = 7;
  req.shard = 1;
  req.block_ids = {H(0x70), H(0x71)};
  req.updates = kUpdates;
  req.discarded = {H(0x72)};
  req.shard_root = H(0x73);
  req.all_roots = {H(0x74), H(0x75)};
  req.members = {4, 8, 70000};
  add("ExecRequest", req.Encode(), DecodeWith<ExecRequest>());
  StateRequest sreq;
  sreq.round = 3;
  sreq.shard = 1;
  sreq.accounts = {1, 300, uint64_t{1} << 40};
  add("StateRequest", sreq.Encode(), DecodeWith<StateRequest>());
  StateResponse sresp;
  sresp.round = 3;
  sresp.shard = 1;
  sresp.entries = {{1, true, {500, 2}}, {2, false, {}}};
  sresp.billed_bytes = 256;
  sresp.proofs = {ToBytes("proof-one"), ToBytes("proof-two")};
  add("StateResponse", sresp.Encode(), DecodeWith<StateResponse>());
  add("ExecResultMsg/full", ExecResult(true).Encode(),
      DecodeWith<ExecResultMsg>());
  add("ExecResultMsg/attestation", ExecResult(false).Encode(),
      DecodeWith<ExecResultMsg>());
  add("ExecResultMsg::SigningBytes", ExecResult(true).SigningBytes());
  add("ExecResultMsg::HashSSet",
      ByteView(ExecResultMsg::HashSSet(kUpdates)).ToBytes());
  add("Relay", MakeRelay(false).Encode(), DecodeWith<Relay>());
  const Bytes untraced = MakeRelay(false).Encode();
  add("Relay/traced", MakeRelay(true).Encode(), DecodeWith<Relay>(),
      untraced.size());
  BodyChunk chunk;
  chunk.round = 8;
  chunk.shard = 1;
  chunk.header = Header();
  chunk.index = 2;
  chunk.k = 3;
  chunk.n = 5;
  chunk.peers = {10, 11, 70000};
  chunk.payload = ToBytes("chunk-payload");
  add("BodyChunk", chunk.Encode(), DecodeWith<BodyChunk>());
  AggregatedWitness agg_w;
  agg_w.batch_round = 9;
  agg_w.shard = 1;
  agg_w.aggregator = 33;
  agg_w.blocks = {Witnessed(0x80)};
  add("AggregatedWitness", agg_w.Encode(),
      DecodeWith<AggregatedWitness>());
  AggregatedExecResult agg_e;
  agg_e.exec_round = 12;
  agg_e.shard = 2;
  agg_e.new_root = H(0x90);
  agg_e.s_hash = H(0x91);
  agg_e.intra_applied = 40;
  agg_e.cross_pre_executed = 6;
  agg_e.has_payload = true;
  agg_e.s_set = kUpdates;
  agg_e.aggregator = 34;
  agg_e.signers = {Pat<32>(0x92), Pat<32>(0x93)};
  agg_e.signatures = {Pat<64>(0x94), Pat<64>(0x95)};
  add("AggregatedExecResult", agg_e.Encode(),
      DecodeWith<AggregatedExecResult>());
  CompactVoteCert vc;
  vc.instance = 77;
  vc.step = 3;
  vc.kind = consensus::Vote::kSoft;
  vc.value = H(0xA0);
  vc.bitmap = 0b1011;
  vc.signatures = {Pat<64>(0xA1), Pat<64>(0xA2), Pat<64>(0xA3)};
  add("CompactVoteCert", vc.Encode(), DecodeWith<CompactVoteCert>());
  add("RelayAck", RelayAck{21, H(0xB0)}.Encode(), DecodeWith<RelayAck>());

  // --- State, sortition, storage.
  add("EncodeAccount", state::EncodeAccount({1234567, 89}),
      [](ByteView v) { return state::DecodeAccount(v).status(); });
  add("AccountKey", state::AccountKey(0x0102030405060708ULL),
      [](ByteView v) { return state::DecodeAccountKey(v).status(); });
  add("Sortition::SeedFor", Sortition::SeedFor(19, H(0xC0)));
  // The leaf hash is private to the tree; a one-leaf root pins it.
  state::SparseMerkleTree smt;
  smt.Put(0x0102030405060708ULL, ToBytes("leaf-value"));
  add("SparseMerkleTree leaf root", ByteView(smt.Root()).ToBytes());
  add("Storage gossip wrapper", FirstGossipPayload());
  add("WAL record", WalRecordBytes());
  add("SSTable footer", SstableFooterBytes());
  return rows;
}

const std::vector<Row>& GoldenTable() {
  static const std::vector<Row> rows = BuildRows();
  return rows;
}

TEST(WireGoldenTest, EveryLayoutMatchesItsPinnedBytes) {
  const std::vector<Row>& rows = GoldenTable();
  ASSERT_EQ(rows.size(), std::size(kPinned));
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(rows[i].name, kPinned[i].first);
    EXPECT_EQ(HexEncode(rows[i].bytes), kPinned[i].second) << rows[i].name;
    if (rows[i].decode) {
      EXPECT_TRUE(rows[i].decode(rows[i].bytes).ok()) << rows[i].name;
    }
  }
}

TEST(WireGoldenTest, PrefixesAndTrailingBytesAreRejected) {
  for (const Row& row : GoldenTable()) {
    if (!row.decode) continue;
    for (size_t len = 0; len < row.bytes.size(); ++len) {
      // An exact-size copy, so sanitizers see any read past the prefix.
      const Bytes prefix(row.bytes.begin(), row.bytes.begin() + len);
      Status st = Status::Ok();
      EXPECT_NO_THROW(st = row.decode(prefix)) << row.name << " @" << len;
      if (len == row.optional_cut && len > 0) {
        EXPECT_TRUE(st.ok()) << row.name << " @" << len;
      } else {
        EXPECT_FALSE(st.ok()) << row.name << " @" << len;
      }
    }
    Bytes longer = row.bytes;
    longer.push_back(0);
    Status st = Status::Ok();
    EXPECT_NO_THROW(st = row.decode(longer)) << row.name;
    EXPECT_FALSE(st.ok()) << row.name << " + 1 byte";
  }
}

}  // namespace
}  // namespace porygon::core
