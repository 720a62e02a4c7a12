#include "core/execution.h"

#include <algorithm>

#include "common/flat_map.h"

namespace porygon::core {

using state::Account;
using state::AccountId;
using tx::StateUpdate;
using tx::TxAccess;

ExecutionResult ShardExecutor::Execute(state::StateView* state,
                                       const ExecutionInput& input) {
  ExecutionResult result;
  const uint32_t shard = input.shard;
  const int shard_bits = state->shard_bits();

  // Reads and writes go through two flat write layers over the state:
  // `overlay` takes U and the intra-shard effects, flushed in one batched
  // Merkle update (see SparseMerkleTree::PutBatch); `scratch` above it takes
  // the cross-shard pre-execution and stays empty until then. Nothing
  // observes their order but the S set, which is sorted once.
  U64Map<Account> overlay;
  U64Map<Account> scratch;
  auto read = [&](AccountId id) -> Account {
    if (const Account* pre = scratch.Find(id)) return *pre;
    if (const Account* written = overlay.Find(id)) return *written;
    return state->GetOrDefault(id);
  };

  // The one transfer rule, for both passes: applies `a` onto `layer`, or
  // reports it failed under its own id.
  auto transfer = [&](const TxAccess& a, U64Map<Account>* layer) {
    auto fail = [&](TxFailure reason) {
      result.failed.push_back({a.id, reason});
      return false;
    };
    if (state->ShardOf(a.from) != shard) return fail(TxFailure::kWrongShard);
    Account sender = read(a.from);
    if (a.nonce != sender.nonce) return fail(TxFailure::kBadNonce);
    if (sender.balance < a.amount) {
      return fail(TxFailure::kInsufficientBalance);
    }
    sender.balance -= a.amount;
    sender.nonce += 1;
    Account receiver = read(a.to);
    receiver.balance += a.amount;
    (*layer)[a.from] = sender;
    (*layer)[a.to] = receiver;
    return true;
  };

  // (1) Apply the OC's cross-shard update list U for this shard: these are
  // already-agreed final values (Multi-Shard Update, §IV-D2(b)).
  for (const StateUpdate& u : input.updates) {
    if (state->ShardOf(u.account) != shard) continue;  // Defensive.
    overlay[u.account] = u.value;
  }

  // (2) Intra-shard transactions, sequentially and deterministically.
  for (const TxAccess& a : input.txs) {
    if (!a.IsCrossShard(shard_bits) && transfer(a, &overlay)) {
      ++result.intra_applied;
    }
  }

  // Flush committed writes (updates + intra effects) into the subtree; one
  // write per account, so their order does not matter.
  {
    std::vector<std::pair<AccountId, Account>> writes;
    writes.reserve(overlay.size());
    overlay.ForEach([&](AccountId id, const Account& account) {
      if (state->ShardOf(id) == shard) writes.emplace_back(id, account);
    });
    state->PutAccountBatch(shard, writes);
  }

  // (3) Cross-shard pre-execution (Single-Shard Execution, §IV-D2(a)):
  // compute results against the scratch layer (so same-round transactions
  // in this shard compose), return updated pairs without touching any
  // subtree. The OC has excluded cross-shard conflicts *between* shards, so
  // reading foreign-account values from the downloaded snapshot is safe;
  // conflicts *within* the shard and round are resolved here sequentially
  // ("they can be handled by each ESC independently", §IV-D2).
  for (const TxAccess& a : input.txs) {
    if (a.IsCrossShard(shard_bits) && transfer(a, &scratch)) {
      ++result.cross_pre_executed;
    }
  }
  // Deterministic order (sorted by account id), final value per account.
  result.cross_updates.reserve(scratch.size());
  scratch.ForEach([&](AccountId account, const Account& value) {
    result.cross_updates.push_back({account, value});
  });
  std::sort(result.cross_updates.begin(), result.cross_updates.end(),
            [](const StateUpdate& a, const StateUpdate& b) {
              return a.account < b.account;
            });

  result.shard_root = state->ShardRoot(shard);
  return result;
}

}  // namespace porygon::core
