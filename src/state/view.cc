#include "state/view.h"

namespace porygon::state {

PartialState::PartialState(int shard_bits, uint32_t own_shard,
                           const crypto::Hash256& own_root)
    : shard_bits_(shard_bits), own_shard_(own_shard), own_root_(own_root) {}

Status PartialState::AddOwnAccount(AccountId id, bool present,
                                   const Account& value,
                                   const MerkleProof& proof) {
  if (ShardOf(id) != own_shard_) {
    return Status::InvalidArgument("account not in own shard");
  }
  Bytes encoded = present ? EncodeAccount(value) : Bytes();
  PORYGON_RETURN_IF_ERROR(
      partial_.InjectProof(id, encoded, proof, own_root_));
  if (present) own_values_[id] = value;
  any_injected_ = true;
  return Status::Ok();
}

Status PartialState::AddForeignAccount(AccountId id, bool present,
                                       const Account& value,
                                       const MerkleProof& proof,
                                       const crypto::Hash256& foreign_root) {
  Bytes encoded = present ? EncodeAccount(value) : Bytes();
  if (!SparseMerkleTree::Verify(foreign_root, id, encoded, proof)) {
    return Status::PermissionDenied("foreign proof does not match root");
  }
  if (present) foreign_[id] = value;
  return Status::Ok();
}

uint32_t PartialState::ShardOf(AccountId id) const {
  return ShardOfAccount(id, shard_bits_);
}

Account PartialState::GetOrDefault(AccountId id) const {
  if (ShardOf(id) == own_shard_) {
    const Account* own = own_values_.Find(id);
    return own != nullptr ? *own : DefaultFor(id);
  }
  const Account* foreign = foreign_.Find(id);
  return foreign != nullptr ? *foreign : DefaultFor(id);
}

void PutAccountLeaves(uint32_t shard, int shard_bits,
                      const std::vector<std::pair<AccountId, Account>>& ws,
                      SparseMerkleTree* tree) {
  std::vector<uint8_t> encoded(ws.size() * kAccountSize);
  std::vector<std::pair<uint64_t, ByteView>> writes;
  writes.reserve(ws.size());
  for (const auto& [id, account] : ws) {
    if (ShardOfAccount(id, shard_bits) != shard) continue;
    uint8_t* value = encoded.data() + writes.size() * kAccountSize;
    EncodeAccountTo(account, value);
    writes.emplace_back(id, ByteView(value, kAccountSize));
  }
  tree->PutBatch(writes);
}

void PartialState::PutAccountBatch(
    uint32_t shard, const std::vector<std::pair<AccountId, Account>>& ws) {
  if (shard != own_shard_) return;  // Stateless: never writes foreign shards.
  for (const auto& [id, account] : ws) {
    if (ShardOf(id) == own_shard_) own_values_[id] = account;
  }
  PutAccountLeaves(own_shard_, shard_bits_, ws, &partial_);
}

crypto::Hash256 PartialState::ShardRoot(uint32_t shard) const {
  if (shard != own_shard_) return crypto::ZeroHash();
  // Before any proof is injected the partial tree is empty, which only
  // matches the global empty root; report the declared root instead.
  if (!any_injected_) return own_root_;
  return partial_.Root();
}

}  // namespace porygon::state
