#include "state/sharded_state.h"

#include "crypto/merkle.h"

namespace porygon::state {

using crypto::Hash256;

ShardedState::ShardedState(int shard_bits)
    : shard_bits_(shard_bits), shards_(size_t{1} << shard_bits) {}

void ShardedState::PutAccount(AccountId id, const Account& account) {
  Subtree& s = shards_[ShardOf(id)];
  s.accounts[id] = account;
  s.tree.Put(id, EncodeAccount(account));
}

void ShardedState::PutAccountBatch(
    uint32_t shard, const std::vector<std::pair<AccountId, Account>>& ws) {
  Subtree& s = shards_[shard];
  std::vector<std::pair<uint64_t, Bytes>> writes;
  writes.reserve(ws.size());
  for (const auto& [id, account] : ws) {
    if (ShardOf(id) != shard) continue;
    s.accounts[id] = account;  // In order, so the last write wins here too.
    writes.emplace_back(id, EncodeAccount(account));
  }
  s.tree.PutBatch(writes);
}

void ShardedState::DeleteAccount(AccountId id) {
  Subtree& s = shards_[ShardOf(id)];
  s.accounts.Erase(id);
  s.tree.Delete(id);
}

Result<Account> ShardedState::GetAccount(AccountId id) const {
  const Account* account = shards_[ShardOf(id)].accounts.Find(id);
  if (account == nullptr) return Status::NotFound("no such account");
  return *account;
}

Account ShardedState::GetOrDefault(AccountId id) const {
  const Account* account = shards_[ShardOf(id)].accounts.Find(id);
  return account != nullptr ? *account : DefaultFor(id);
}

Hash256 ShardedState::ShardRoot(uint32_t shard) const {
  return shards_[shard].tree.Root();
}

Hash256 ShardedState::GlobalRoot() const {
  std::vector<Hash256> roots;
  roots.reserve(shards_.size());
  for (const auto& shard : shards_) roots.push_back(shard.tree.Root());
  return AggregateRoots(roots);
}

Hash256 ShardedState::AggregateRoots(const std::vector<Hash256>& shard_roots) {
  return crypto::ComputeMerkleRoot(shard_roots);
}

MerkleProof ShardedState::ProveAccount(AccountId id) const {
  return shards_[ShardOf(id)].tree.Prove(id);
}

bool ShardedState::VerifyAccount(const Hash256& shard_root, AccountId id,
                                 const Account& account,
                                 const MerkleProof& proof) {
  return SparseMerkleTree::Verify(shard_root, id, EncodeAccount(account),
                                  proof);
}

bool ShardedState::VerifyAbsence(const Hash256& shard_root, AccountId id,
                                 const MerkleProof& proof) {
  return SparseMerkleTree::Verify(shard_root, id, ByteView(), proof);
}

size_t ShardedState::ShardAccountCount(uint32_t shard) const {
  return shards_[shard].accounts.size();
}

size_t ShardedState::TotalAccountCount() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard.accounts.size();
  return total;
}

}  // namespace porygon::state
