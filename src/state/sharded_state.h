#ifndef PORYGON_STATE_SHARDED_STATE_H_
#define PORYGON_STATE_SHARDED_STATE_H_

#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "common/flat_map.h"
#include "state/account.h"
#include "state/smt.h"
#include "state/view.h"

namespace porygon::state {

/// The global blockchain state as the paper structures it: accounts are
/// partitioned into 2^N shards by the last N bits of their IDs, each shard
/// owns a Merkle subtree, and the on-chain state root is the Merkle
/// aggregation of the shard subtree roots (the OC "aggregates these states,
/// calculates the latest state tree root", §IV-D2).
///
/// Each shard keeps its accounts as typed 16-byte values in a flat table
/// beside its hash-only subtree, so reads never touch the tree.
class ShardedState : public StateView {
 public:
  explicit ShardedState(int shard_bits);

  int shard_bits() const override { return shard_bits_; }
  int shard_count() const { return 1 << shard_bits_; }
  uint32_t ShardOf(AccountId id) const override {
    return ShardOfAccount(id, shard_bits_);
  }

  /// Writes an account (routes to its shard's subtree).
  void PutAccount(AccountId id, const Account& account);
  /// Batched writes into one shard: its values, and its subtree in one
  /// PutBatch. Writes to other shards' accounts are skipped.
  void PutAccountBatch(
      uint32_t shard,
      const std::vector<std::pair<AccountId, Account>>& ws) override;
  /// Removes an account.
  void DeleteAccount(AccountId id);
  /// Reads an account; NotFound if absent.
  Result<Account> GetAccount(AccountId id) const;
  /// Reads an account, defaulting when absent: a zero account (transfers to
  /// fresh accounts create them), or the declared implicit balance for ids
  /// covered by SetImplicitAccounts.
  Account GetOrDefault(AccountId id) const override;

  /// Root of one shard's subtree.
  crypto::Hash256 ShardRoot(uint32_t shard) const override;
  /// Global root over all shard roots (binary Merkle over 2^N leaves).
  crypto::Hash256 GlobalRoot() const;
  /// Recomputes the global root from externally supplied shard roots — what
  /// the OC does with roots signed by ESCs, without holding any state. The
  /// fold is crypto::ComputeMerkleRoot's.
  static crypto::Hash256 AggregateRoots(
      const std::vector<crypto::Hash256>& shard_roots);

  /// Membership proof for an account within its shard subtree.
  MerkleProof ProveAccount(AccountId id) const;
  /// Stateless verification against a shard root.
  static bool VerifyAccount(const crypto::Hash256& shard_root, AccountId id,
                            const Account& account, const MerkleProof& proof);
  /// Stateless absence verification.
  static bool VerifyAbsence(const crypto::Hash256& shard_root, AccountId id,
                            const MerkleProof& proof);

  /// Number of accounts in a shard / overall.
  size_t ShardAccountCount(uint32_t shard) const;
  size_t TotalAccountCount() const;
  /// Σ balance over every account: the materialized ones, plus the declared
  /// balance of each implicit id not yet written. O(materialized accounts).
  uint64_t TotalSupply() const;

 private:
  struct Subtree {
    SparseMerkleTree tree;
    U64Map<Account> accounts;  // Exactly the tree's live leaves.
  };

  int shard_bits_;
  std::vector<Subtree> shards_;
};

}  // namespace porygon::state

#endif  // PORYGON_STATE_SHARDED_STATE_H_
