#ifndef PORYGON_STATE_VIEW_H_
#define PORYGON_STATE_VIEW_H_

#include <vector>

#include "common/flat_map.h"
#include "state/account.h"
#include "state/smt.h"

namespace porygon::state {

/// What the shard executor needs from "state": reads, batched writes into
/// one shard, and that shard's Merkle root. Two implementations:
///   - `ShardedState` — the full materialized state (storage nodes, tests)
///   - `PartialState` — a stateless node's view reconstructed from Merkle
///     proofs downloaded during the Execution Phase.
class StateView {
 public:
  virtual ~StateView() = default;

  virtual uint32_t ShardOf(AccountId id) const = 0;
  virtual Account GetOrDefault(AccountId id) const = 0;
  virtual void PutAccountBatch(
      uint32_t shard, const std::vector<std::pair<AccountId, Account>>& ws) = 0;
  virtual crypto::Hash256 ShardRoot(uint32_t shard) const = 0;

  /// Declares ids [1, max_id] implicitly funded with `balance`: GetOrDefault
  /// reports that balance for absent ids in range, but no leaf exists until
  /// an id is first written — Merkle roots, membership/absence proofs, and
  /// GetAccount (NotFound) are unchanged for untouched accounts. Every view
  /// of the same state must carry the same declaration or roots diverge on
  /// first touch.
  void SetImplicitAccounts(uint64_t max_id, uint64_t balance) {
    implicit_max_id_ = max_id;
    implicit_balance_ = balance;
  }
  uint64_t implicit_max_id() const { return implicit_max_id_; }
  uint64_t implicit_balance() const { return implicit_balance_; }

 protected:
  /// The value GetOrDefault yields for an id with no materialized leaf.
  Account DefaultFor(AccountId id) const {
    if (id >= 1 && id <= implicit_max_id_) {
      return Account{implicit_balance_, 0};
    }
    return Account{};
  }

 private:
  uint64_t implicit_max_id_ = 0;
  uint64_t implicit_balance_ = 0;
};

/// Writes the accounts of `ws` that lie in `shard` (of 2^shard_bits) into
/// `tree` in one PutBatch. Their 16-byte encodings are staged in one buffer,
/// not in a heap buffer per write.
void PutAccountLeaves(uint32_t shard, int shard_bits,
                      const std::vector<std::pair<AccountId, Account>>& ws,
                      SparseMerkleTree* tree);

/// A stateless ESC member's materialized view for one Execution Phase:
/// a partial subtree of its own shard (built from verified proofs) plus
/// read-only foreign-account values (verified against the other shards'
/// roots). Writes only touch the own-shard partial subtree; the recomputed
/// root is exactly what a full replica would produce.
class PartialState : public StateView {
 public:
  /// `shard_bits` and `own_shard` fix the address space; `own_root` is the
  /// subtree root from the committed proposal block that proofs must match.
  PartialState(int shard_bits, uint32_t own_shard,
               const crypto::Hash256& own_root);

  /// Adds an own-shard account (present or absent) with its proof.
  /// Fails (PermissionDenied) if the proof does not verify — the member
  /// must re-download from another storage node (Lemma 1 redundancy).
  Status AddOwnAccount(AccountId id, bool present, const Account& value,
                       const MerkleProof& proof);

  /// Adds a foreign account value verified against that shard's root.
  Status AddForeignAccount(AccountId id, bool present, const Account& value,
                           const MerkleProof& proof,
                           const crypto::Hash256& foreign_root);

  // StateView:
  uint32_t ShardOf(AccountId id) const override;
  Account GetOrDefault(AccountId id) const override;
  void PutAccountBatch(
      uint32_t shard,
      const std::vector<std::pair<AccountId, Account>>& ws) override;
  crypto::Hash256 ShardRoot(uint32_t shard) const override;

  /// The own-shard partial subtree (memory accounting).
  const SparseMerkleTree& own_tree() const { return partial_; }

 private:
  int shard_bits_;
  uint32_t own_shard_;
  crypto::Hash256 own_root_;
  SparseMerkleTree partial_;
  bool any_injected_ = false;
  U64Map<Account> foreign_;
  // Own-shard values: proven at injection, then overwritten by writes.
  U64Map<Account> own_values_;
};

}  // namespace porygon::state

#endif  // PORYGON_STATE_VIEW_H_
