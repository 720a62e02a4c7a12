#include "tx/blocks.h"

#include <cstring>

#include "common/codec.h"
#include "common/wire.h"
#include "crypto/merkle.h"

namespace porygon::tx {

using crypto::Hash256;

namespace {
void PutHash(Encoder* enc, const Hash256& h) {
  enc->PutFixed(ByteView(h.data(), h.size()));
}

Result<Hash256> GetHash(Decoder* dec) {
  PORYGON_ASSIGN_OR_RETURN(Bytes raw, dec->GetFixed(32));
  Hash256 h;
  std::memcpy(h.data(), raw.data(), 32);
  return h;
}

void PutKey(Encoder* enc, const crypto::PublicKey& k) {
  enc->PutFixed(ByteView(k.data(), k.size()));
}

Result<crypto::PublicKey> GetKey(Decoder* dec) {
  PORYGON_ASSIGN_OR_RETURN(Bytes raw, dec->GetFixed(32));
  crypto::PublicKey k;
  std::memcpy(k.data(), raw.data(), 32);
  return k;
}

// doubles are stored as fixed bit patterns to keep hashing deterministic.
void PutDouble(Encoder* enc, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  enc->PutU64(bits);
}

Result<double> GetDouble(Decoder* dec) {
  PORYGON_ASSIGN_OR_RETURN(uint64_t bits, dec->GetU64());
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}
}  // namespace

Bytes TransactionBlockHeader::Encode() const {
  Encoder enc;
  enc.PutU32(creator_storage_node);
  enc.PutU64(round_created);
  enc.PutU32(shard);
  enc.PutU32(tx_count);
  PutHash(&enc, tx_root);
  return enc.TakeBuffer();
}

Result<TransactionBlockHeader> TransactionBlockHeader::Decode(ByteView data) {
  Decoder dec(data);
  TransactionBlockHeader h;
  PORYGON_ASSIGN_OR_RETURN(h.creator_storage_node, dec.GetU32());
  PORYGON_ASSIGN_OR_RETURN(h.round_created, dec.GetU64());
  PORYGON_ASSIGN_OR_RETURN(h.shard, dec.GetU32());
  PORYGON_ASSIGN_OR_RETURN(h.tx_count, dec.GetU32());
  PORYGON_ASSIGN_OR_RETURN(h.tx_root, GetHash(&dec));
  if (!dec.Done()) return Status::Corruption("trailing header bytes");
  return h;
}

BlockId TransactionBlockHeader::Id() const {
  return crypto::Sha256::Hash(Encode());
}

namespace {
std::vector<TxId> IdsOf(const std::vector<Transaction>& transactions) {
  std::vector<TxId> ids;
  ids.reserve(transactions.size());
  for (const auto& t : transactions) ids.push_back(t.Id());
  return ids;
}
}  // namespace

void TransactionBlock::SealHeader() { SealHeader(IdsOf(transactions)); }

void TransactionBlock::SealHeader(const std::vector<TxId>& tx_ids) {
  header.tx_root = crypto::ComputeMerkleRoot(tx_ids);
  header.tx_count = static_cast<uint32_t>(transactions.size());
}

bool TransactionBlock::BodyMatchesHeader() const {
  std::vector<TxId> ids;
  return BodyMatchesHeader(&ids);
}

bool TransactionBlock::BodyMatchesHeader(std::vector<TxId>* tx_ids) const {
  if (transactions.size() != header.tx_count) return false;
  *tx_ids = IdsOf(transactions);
  return crypto::ComputeMerkleRoot(*tx_ids) == header.tx_root;
}

Bytes TransactionBlock::Encode() const {
  wire::Writer w;
  w.Blob(header.Encode()).Varint(transactions.size());
  for (const auto& t : transactions) w.Raw(t.Encode());
  return w.Take();
}

Result<TransactionBlock> TransactionBlock::Decode(ByteView data) {
  TransactionBlock block;
  wire::Reader r(data);
  ByteView header_raw;
  uint64_t count = 0;
  // Borrowed-view header read: relay/chunk reassembly paths decode bodies
  // out of buffers they already own, so the nested header needs no copy.
  r.BlobView(&header_raw).Varint(&count);
  PORYGON_RETURN_IF_ERROR(r.status());
  PORYGON_ASSIGN_OR_RETURN(block.header,
                           TransactionBlockHeader::Decode(header_raw));
  block.transactions.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    PORYGON_ASSIGN_OR_RETURN(Transaction t,
                             Transaction::DecodeFrom(r.decoder()));
    block.transactions.push_back(std::move(t));
  }
  PORYGON_RETURN_IF_ERROR(r.Finish("block"));
  return block;
}

Bytes WitnessProof::Encode() const {
  Encoder enc;
  PutHash(&enc, block_id);
  PutKey(&enc, witness);
  enc.PutFixed(ByteView(signature.data(), signature.size()));
  return enc.TakeBuffer();
}

Result<WitnessProof> WitnessProof::Decode(ByteView data) {
  Decoder dec(data);
  WitnessProof p;
  PORYGON_ASSIGN_OR_RETURN(p.block_id, GetHash(&dec));
  PORYGON_ASSIGN_OR_RETURN(p.witness, GetKey(&dec));
  PORYGON_ASSIGN_OR_RETURN(Bytes sig, dec.GetFixed(64));
  std::memcpy(p.signature.data(), sig.data(), 64);
  if (!dec.Done()) return Status::Corruption("trailing proof bytes");
  return p;
}

Bytes ProposalBlock::Encode() const {
  Encoder enc;
  enc.PutU64(height);
  PutHash(&enc, prev_hash);
  enc.PutU64(round);
  PutKey(&enc, leader);

  enc.PutVarint(shard_tx_blocks.size());
  for (const auto& list : shard_tx_blocks) {
    enc.PutVarint(list.size());
    for (const auto& id : list) PutHash(&enc, id);
  }

  enc.PutVarint(shard_updates.size());
  for (const auto& list : shard_updates) {
    enc.PutVarint(list.size());
    for (const auto& u : list) {
      // Varint-coded: update lists (U) are the bulk of a proposal block
      // under cross-shard load.
      enc.PutVarint(u.account);
      enc.PutVarint(u.value.balance);
      enc.PutVarint(u.value.nonce);
    }
  }

  enc.PutVarint(discarded.size());
  for (const auto& id : discarded) PutHash(&enc, id);

  enc.PutVarint(shard_roots.size());
  for (const auto& r : shard_roots) PutHash(&enc, r);
  PutHash(&enc, state_root);
  PutDouble(&enc, ordering_threshold);
  PutDouble(&enc, execution_threshold);
  return enc.TakeBuffer();
}

Result<ProposalBlock> ProposalBlock::Decode(ByteView data) {
  Decoder dec(data);
  ProposalBlock b;
  PORYGON_ASSIGN_OR_RETURN(b.height, dec.GetU64());
  PORYGON_ASSIGN_OR_RETURN(b.prev_hash, GetHash(&dec));
  PORYGON_ASSIGN_OR_RETURN(b.round, dec.GetU64());
  PORYGON_ASSIGN_OR_RETURN(b.leader, GetKey(&dec));

  PORYGON_ASSIGN_OR_RETURN(uint64_t n_shards, dec.GetVarint());
  b.shard_tx_blocks.resize(n_shards);
  for (auto& list : b.shard_tx_blocks) {
    PORYGON_ASSIGN_OR_RETURN(uint64_t n, dec.GetVarint());
    list.resize(n);
    for (auto& id : list) {
      PORYGON_ASSIGN_OR_RETURN(id, GetHash(&dec));
    }
  }

  PORYGON_ASSIGN_OR_RETURN(uint64_t n_update_shards, dec.GetVarint());
  b.shard_updates.resize(n_update_shards);
  for (auto& list : b.shard_updates) {
    PORYGON_ASSIGN_OR_RETURN(uint64_t n, dec.GetVarint());
    list.resize(n);
    for (auto& u : list) {
      PORYGON_ASSIGN_OR_RETURN(u.account, dec.GetVarint());
      PORYGON_ASSIGN_OR_RETURN(u.value.balance, dec.GetVarint());
      PORYGON_ASSIGN_OR_RETURN(u.value.nonce, dec.GetVarint());
    }
  }

  PORYGON_ASSIGN_OR_RETURN(uint64_t n_disc, dec.GetVarint());
  b.discarded.resize(n_disc);
  for (auto& id : b.discarded) {
    PORYGON_ASSIGN_OR_RETURN(id, GetHash(&dec));
  }

  PORYGON_ASSIGN_OR_RETURN(uint64_t n_roots, dec.GetVarint());
  b.shard_roots.resize(n_roots);
  for (auto& r : b.shard_roots) {
    PORYGON_ASSIGN_OR_RETURN(r, GetHash(&dec));
  }
  PORYGON_ASSIGN_OR_RETURN(b.state_root, GetHash(&dec));
  PORYGON_ASSIGN_OR_RETURN(b.ordering_threshold, GetDouble(&dec));
  PORYGON_ASSIGN_OR_RETURN(b.execution_threshold, GetDouble(&dec));
  if (!dec.Done()) return Status::Corruption("trailing proposal bytes");
  return b;
}

Hash256 ProposalBlock::Hash() const { return crypto::Sha256::Hash(Encode()); }

}  // namespace porygon::tx
