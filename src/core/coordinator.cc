#include "core/coordinator.h"

namespace porygon::core {

using state::AccountId;
using state::ShardOfAccount;
using tx::StateUpdate;
using tx::Transaction;

CrossShardCoordinator::CrossShardCoordinator(int shard_bits, int retry_rounds)
    : shard_bits_(shard_bits), retry_rounds_(retry_rounds) {}

CrossShardCoordinator::FilterResult CrossShardCoordinator::FilterAndLock(
    uint64_t round, const std::vector<Transaction>& txs) {
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

  auto is_blocked = [&](const Transaction& t) {
    for (AccountId a : t.AccessedAccounts()) {
      if (locks_.Find(a) != nullptr || round_claims.Find(a) != nullptr) {
        return true;
      }
    }
    return false;
  };

  for (const Transaction& t : txs) {
    if (!t.IsCrossShard(shard_bits_)) continue;
    if (is_blocked(t)) {
      result.discarded.push_back(t.Id());
      continue;
    }
    for (AccountId a : t.AccessedAccounts()) round_claims[a] = 1;
    result.accepted_cross.push_back(t);
  }
  for (const Transaction& t : txs) {
    if (t.IsCrossShard(shard_bits_)) continue;
    if (is_blocked(t)) {
      result.discarded.push_back(t.Id());
      continue;
    }
    result.accepted_intra.push_back(t);
  }

  // Lock the accounts of accepted cross-shard transactions until their
  // Multi-Shard Update commits.
  if (!result.accepted_cross.empty()) {
    InFlightBatch batch;
    batch.round = round;
    batch.updates.assign(shard_count(), {});
    batch.shard_done.assign(shard_count(), false);
    for (const Transaction& t : result.accepted_cross) {
      for (AccountId a : t.AccessedAccounts()) {
        if (locks_.Find(a) != nullptr) continue;
        locks_[a] = round;
        batch.locked_accounts.push_back(a);
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
    uint64_t round, const std::vector<std::vector<StateUpdate>>& s_sets,
    const std::vector<StateUpdate>& old_values) {
  std::vector<std::vector<StateUpdate>> per_shard(shard_count());
  auto it = in_flight_.find(round);
  // An S set may only touch accounts this batch locked at ordering time
  // (honest cross-shard pre-execution writes exactly the accepted
  // transactions' accounts). Anything else — including every update when
  // no batch was locked at all — is a forged or replayed write aimed at
  // the Multi-Shard Update path; drop it before it can reach a proposal.
  // Defense in depth behind the exec-result vote threshold.
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
  if (it != in_flight_.end()) {
    it->second.updates = per_shard;
    it->second.old_values = old_values;
    // Shards with no updates to apply are trivially done.
    for (int d = 0; d < shard_count(); ++d) {
      if (per_shard[d].empty()) it->second.shard_done[d] = true;
    }
    // Optimistic unlock: once U is built into a proposal block, every ESC
    // applies U *before* executing newly ordered transactions (see
    // ShardExecutor::Execute step 1), so later transactions observe the
    // cross-shard results and no longer conflict. Holding locks through
    // the Multi-Shard Update would roughly double the lock window and,
    // with it, the conflict-discard rate — Table I's mild degradation
    // requires the short window. Failed shards still retry/roll back via
    // the pending-update bookkeeping below.
    ReleaseLocks(it->second);
    it->second.locked_accounts.clear();
    if (tracing()) {
      tracer_->EndSpan(it->second.sse_span);
      it->second.sse_span = 0;
      it->second.msu_span = tracer_->BeginSpan(
          tracer_->RoundContext(round), "msu", trace_node_);
    }
  }
  return per_shard;
}

CrossShardCoordinator::UpdateOutcome
CrossShardCoordinator::OnShardUpdateResult(uint64_t round, uint32_t shard,
                                           bool success) {
  UpdateOutcome outcome;
  auto it = in_flight_.find(round);
  if (it == in_flight_.end()) return outcome;  // Unknown/already resolved.
  InFlightBatch& batch = it->second;

  if (success) {
    batch.shard_done[shard] = true;
    bool all_done = true;
    for (bool done : batch.shard_done) all_done &= done;
    if (all_done) {
      ReleaseLocks(batch);
      if (tracer_ != nullptr) tracer_->EndSpan(batch.msu_span);
      in_flight_.erase(it);
      outcome.resolved = true;
    }
    return outcome;
  }

  // Failure: retry in following rounds; roll back after the budget.
  ++batch.failed_rounds;
  if (batch.failed_rounds <= retry_rounds_) return outcome;

  outcome.resolved = true;
  outcome.rolled_back = true;
  outcome.compensation.assign(shard_count(), {});
  for (const StateUpdate& old : batch.old_values) {
    outcome.compensation[ShardOfAccount(old.account, shard_bits_)].push_back(
        old);
  }
  ReleaseLocks(batch);
  if (tracing()) {
    tracer_->Instant(tracer_->RoundContext(batch.round), "msu_rollback",
                     trace_node_);
    tracer_->EndSpan(batch.msu_span);
  }
  in_flight_.erase(it);
  return outcome;
}

std::vector<StateUpdate> CrossShardCoordinator::PendingUpdatesFor(
    uint32_t shard, uint64_t current_round) const {
  std::vector<StateUpdate> pending;
  for (const auto& [round, batch] : in_flight_) {
    if (batch.updates.empty()) continue;  // S sets not yet received.
    // The first application is in U_{round+2}; its feedback arrives while
    // building B_{round+4}. Re-send only once that opportunity has passed.
    if (current_round < round + 4) continue;
    if (!batch.shard_done[shard]) {
      pending.insert(pending.end(), batch.updates[shard].begin(),
                     batch.updates[shard].end());
    }
  }
  return pending;
}

void CrossShardCoordinator::ReleaseLocks(const InFlightBatch& batch) {
  for (AccountId a : batch.locked_accounts) locks_.Erase(a);
}

}  // namespace porygon::core
