#include "core/coordinator.h"

namespace porygon::core {

using state::AccountId;
using state::ShardOfAccount;
using tx::StateUpdate;

CrossShardCoordinator::FilterResult CrossShardCoordinator::FilterAndLock(
    uint64_t round, const std::vector<TxAccess>& txs) {
  FilterResult result;
  // Accounts claimed by cross-shard transactions accepted this round.
  // Cross-shard transactions get priority (they span shards, so the OC is
  // the only place their conflicts can be seen); intra-shard transactions
  // are then admitted unless they touch a locked or claimed account.
  // Intra-vs-intra conflicts are NOT filtered: "conflicts within the same
  // shard and in the same round ... can be handled by each ESC
  // independently" (§IV-D2). Without the cross-first pass, an intra
  // transaction could modify an account that a concurrent cross-shard
  // transaction pre-executed against, and the later Multi-Shard Update
  // would clobber the intra effect (a lost update).
  U64Map<uint8_t> round_claims;

  // A transfer touches exactly {from, to}.
  auto is_taken = [&](AccountId a) {
    return locks_.Find(a) != nullptr || round_claims.Find(a) != nullptr;
  };

  for (uint32_t i = 0; i < txs.size(); ++i) {
    const TxAccess& t = txs[i];
    if (!t.IsCrossShard(shard_bits_)) continue;
    if (is_taken(t.from) || is_taken(t.to)) {
      result.discarded.push_back(t.id);
      continue;
    }
    round_claims[t.from] = 1;
    round_claims[t.to] = 1;
    result.accepted_cross.push_back(i);
  }
  for (uint32_t i = 0; i < txs.size(); ++i) {
    const TxAccess& t = txs[i];
    if (t.IsCrossShard(shard_bits_)) continue;
    if (is_taken(t.from) || is_taken(t.to)) {
      result.discarded.push_back(t.id);
      continue;
    }
    result.accepted_intra.push_back(i);
  }

  // Lock the accounts of accepted cross-shard transactions until their
  // update list U is built, two proposals later.
  if (!result.accepted_cross.empty()) {
    InFlightBatch batch;
    for (uint32_t i : result.accepted_cross) {
      for (AccountId a : {txs[i].from, txs[i].to}) {
        if (locks_.Insert(a)) batch.locked_accounts.push_back(a);
      }
    }
    if (tracing()) {
      batch.sse_span = tracer_->BeginSpan(tracer_->RoundContext(round),
                                          "sse", trace_node_);
    }
    in_flight_[round] = std::move(batch);
  }
  return result;
}

std::vector<std::vector<StateUpdate>> CrossShardCoordinator::BuildUpdateList(
    uint64_t round, const std::vector<std::vector<StateUpdate>>& s_sets) {
  std::vector<std::vector<StateUpdate>> per_shard(shard_count());
  auto it = in_flight_.find(round);
  // An S set may only touch accounts this batch locked at ordering time
  // (honest cross-shard pre-execution writes exactly the accepted
  // transactions' accounts). Anything else — including every update when
  // no batch is in flight, because it never locked or was already built —
  // is a forged or replayed write aimed at the Multi-Shard Update path;
  // drop it before it can reach a proposal. Defense in depth behind the
  // exec-result vote threshold.
  U64Map<uint8_t> locked;
  if (it != in_flight_.end()) {
    for (AccountId a : it->second.locked_accounts) locked[a] = 1;
  }
  for (const auto& shard_set : s_sets) {
    for (const StateUpdate& u : shard_set) {
      if (locked.Find(u.account) == nullptr) {
        if (rejected_unlocked_ != nullptr) rejected_unlocked_->Increment();
        continue;
      }
      per_shard[ShardOfAccount(u.account, shard_bits_)].push_back(u);
    }
  }
  if (it == in_flight_.end()) return per_shard;
  // Once U is in a proposal block, every ESC applies it *before* executing
  // newly ordered transactions (see ShardExecutor::Execute step 1), so
  // later transactions observe the cross-shard results and no longer
  // conflict. Holding locks through the Multi-Shard Update would roughly
  // double the lock window and, with it, the conflict-discard rate —
  // Table I's mild degradation requires the short window. A shard whose S
  // set missed Te contributes nothing, and its pre-executed transactions
  // never apply; its locks go with the rest of the batch.
  for (AccountId a : it->second.locked_accounts) locks_.Erase(a);
  if (tracer_ != nullptr) tracer_->EndSpan(it->second.sse_span);
  in_flight_.erase(it);
  return per_shard;
}

std::vector<uint64_t> CrossShardCoordinator::InFlightRounds() const {
  std::vector<uint64_t> rounds;
  for (const auto& [round, batch] : in_flight_) rounds.push_back(round);
  return rounds;
}

}  // namespace porygon::core
