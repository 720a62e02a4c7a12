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
  U64Map<Account>& accounts = shards_[shard].accounts;
  for (const auto& [id, account] : ws) {
    // In order, so the last write wins here as in the subtree.
    if (ShardOf(id) == shard) accounts[id] = account;
  }
  PutAccountLeaves(shard, shard_bits_, ws, &shards_[shard].tree);
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

uint64_t ShardedState::TotalSupply() const {
  uint64_t total = 0;
  uint64_t touched_implicit = 0;
  for (const auto& shard : shards_) {
    shard.accounts.ForEach([&](AccountId id, const Account& account) {
      total += account.balance;
      if (id >= 1 && id <= implicit_max_id()) ++touched_implicit;
    });
  }
  return total + (implicit_max_id() - touched_implicit) * implicit_balance();
}

}  // namespace porygon::state
