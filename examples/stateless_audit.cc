// Stateless audit: what a light client (or a newly joined stateless node)
// can verify with ~nothing stored locally. Demonstrates the storage-
// consensus separation primitives directly: Merkle proofs for account
// state against committed shard roots, absence proofs, and stateless
// re-execution via PartialState.
//
//   ./example_stateless_audit

#include <cstdio>

#include "core/execution.h"
#include "state/sharded_state.h"
#include "state/view.h"

int main() {
  using namespace porygon;

  // A storage node's view of the world: the full sharded state.
  state::ShardedState full(/*shard_bits=*/2);  // 4 shards.
  for (uint64_t id = 1; id <= 1000; ++id) {
    full.PutAccount(id, {1'000 + id, 0});
  }
  crypto::Hash256 root0 = full.ShardRoot(0);
  std::printf("shard 0 root: %s\n", crypto::HashToHex(root0).c_str());

  // --- A light client verifies a balance claim -----------------------------
  // The storage node claims account 8 (shard 0) holds 1008 and ships a
  // Merkle path. The client checks it against the committed shard root —
  // 32 bytes of trusted data, no state.
  state::Account claimed{1'008, 0};
  state::MerkleProof proof = full.ProveAccount(8);
  bool ok = state::ShardedState::VerifyAccount(root0, 8, claimed, proof);
  std::printf("balance proof for account 8: %s\n", ok ? "VALID" : "INVALID");

  // A lying storage node inflates the balance; the proof no longer checks.
  state::Account lie{999'999, 0};
  bool caught = state::ShardedState::VerifyAccount(root0, 8, lie, proof);
  std::printf("inflated-balance proof:      %s\n",
              caught ? "VALID (?!)" : "REJECTED");

  // Absence is provable too: account 2000 was never created.
  bool absent = state::ShardedState::VerifyAbsence(
      root0, 2'000, full.ProveAccount(2'000));
  std::printf("absence proof for 2000:      %s\n",
              absent ? "VALID" : "INVALID");

  // --- Stateless re-execution ----------------------------------------------
  // An auditor replays a block's transfers against downloaded proofs only,
  // and reproduces the exact post-state root the committee committed.
  state::PartialState partial(2, /*own_shard=*/0, root0);
  for (uint64_t id : {4ull, 8ull, 12ull, 16ull}) {
    auto acc = full.GetAccount(id);
    (void)partial.AddOwnAccount(id, acc.ok(),
                                acc.ok() ? *acc : state::Account{},
                                full.ProveAccount(id));
  }

  core::ExecutionInput input;
  input.shard = 0;
  tx::Transaction t1;
  t1.from = 4;
  t1.to = 8;
  t1.amount = 100;
  t1.nonce = 0;
  tx::Transaction t2;
  t2.from = 12;
  t2.to = 16;
  t2.amount = 50;
  t2.nonce = 0;
  input.txs = {tx::ToAccess(t1, t1.Id()), tx::ToAccess(t2, t2.Id())};

  auto audited = core::ShardExecutor::Execute(&partial, input);

  // The "committee" (full replica) executes the same block.
  auto committed = core::ShardExecutor::Execute(&full, input);

  std::printf("auditor root:   %s\n",
              crypto::HashToHex(audited.shard_root).c_str());
  std::printf("committee root: %s\n",
              crypto::HashToHex(committed.shard_root).c_str());
  std::printf("stateless replay %s the committed root\n",
              audited.shard_root == committed.shard_root ? "MATCHES"
                                                         : "DIVERGES FROM");
  return 0;
}
