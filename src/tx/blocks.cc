#include "tx/blocks.h"

#include "common/wire.h"
#include "crypto/merkle.h"

namespace porygon::tx {

using crypto::Hash256;

void TransactionBlockHeader::EncodeTo(wire::Writer* w) const {
  w->U32(creator_storage_node)
      .U64(round_created)
      .U32(shard)
      .U32(tx_count)
      .Array(tx_root);
}

Bytes TransactionBlockHeader::Encode() const {
  wire::Writer w;
  EncodeTo(&w);
  return w.Take();
}

Result<TransactionBlockHeader> TransactionBlockHeader::Decode(ByteView data) {
  TransactionBlockHeader h;
  wire::Reader r(data);
  r.U32(&h.creator_storage_node)
      .U64(&h.round_created)
      .U32(&h.shard)
      .U32(&h.tx_count)
      .Array(&h.tx_root);
  PORYGON_RETURN_IF_ERROR(r.Finish("header"));
  return h;
}

BlockId TransactionBlockHeader::Id() const {
  return crypto::Sha256::Hash(Encode());
}

namespace {
std::vector<TxId> IdsOf(const std::vector<Transaction>& transactions) {
  std::vector<TxId> ids(transactions.size());
  Transaction::Ids(transactions.data(), transactions.size(), ids.data());
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

Result<BlockView> BlockView::Parse(ByteView data) {
  BlockView v;
  wire::Reader r(data);
  uint64_t n = 0;
  r.Nested(&v.header)
      .Count(&n, Transaction::kMinWireSize)
      .Raw(n * Transaction::kMinWireSize, &v.records);
  PORYGON_RETURN_IF_ERROR(r.Finish("block"));
  return v;
}

bool BlockView::BodyMatchesHeader(std::vector<TxId>* tx_ids) const {
  if (size() != header.tx_count) return false;
  tx_ids->resize(size());
  Transaction::IdsOfRecords(records.data(), size(), tx_ids->data());
  return crypto::ComputeMerkleRoot(*tx_ids) == header.tx_root;
}

Bytes TransactionBlock::Encode() const {
  return wire::Writer().Nested(header).List(transactions).Take();
}

Result<TransactionBlock> TransactionBlock::Decode(ByteView data) {
  TransactionBlock block;
  wire::Reader r(data);
  r.Nested(&block.header).List(&block.transactions);
  PORYGON_RETURN_IF_ERROR(r.Finish("block"));
  return block;
}

void WitnessProof::EncodeTo(wire::Writer* w) const {
  w->Array(block_id).Array(witness).Array(signature);
}

void WitnessProof::DecodeFrom(wire::Reader* r) {
  r->Array(&block_id).Array(&witness).Array(&signature);
}

Bytes WitnessProof::Encode() const {
  wire::Writer w;
  EncodeTo(&w);
  return w.Take();
}

Result<WitnessProof> WitnessProof::Decode(ByteView data) {
  WitnessProof p;
  wire::Reader r(data);
  p.DecodeFrom(&r);
  PORYGON_RETURN_IF_ERROR(r.Finish("proof"));
  return p;
}

void StateUpdate::EncodeTo(wire::Writer* w) const {
  w->Varint(account).Varint(value.balance).Varint(value.nonce);
}

void StateUpdate::DecodeFrom(wire::Reader* r) {
  r->Varint(&account).Varint(&value.balance).Varint(&value.nonce);
}

Bytes ProposalBlock::Encode() const {
  return wire::Writer()
      .U64(height)
      .Array(prev_hash)
      .U64(round)
      .Array(leader)
      .List(shard_tx_blocks)
      .List(shard_updates)
      .List(discarded)
      .List(shard_roots)
      .Array(state_root)
      .F64(ordering_threshold)
      .F64(execution_threshold)
      .Take();
}

Result<ProposalBlock> ProposalBlock::Decode(ByteView data) {
  ProposalBlock b;
  wire::Reader r(data);
  r.U64(&b.height)
      .Array(&b.prev_hash)
      .U64(&b.round)
      .Array(&b.leader)
      .List(&b.shard_tx_blocks)
      .List(&b.shard_updates)
      .List(&b.discarded)
      .List(&b.shard_roots)
      .Array(&b.state_root)
      .F64(&b.ordering_threshold)
      .F64(&b.execution_threshold);
  PORYGON_RETURN_IF_ERROR(r.Finish("proposal"));
  return b;
}

Hash256 ProposalBlock::Hash() const { return crypto::Sha256::Hash(Encode()); }

}  // namespace porygon::tx
