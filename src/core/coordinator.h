#ifndef PORYGON_CORE_COORDINATOR_H_
#define PORYGON_CORE_COORDINATOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/flat_map.h"
#include "core/messages.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "state/account.h"
#include "tx/blocks.h"
#include "tx/transaction.h"

namespace porygon::core {

/// The Ordering Committee's cross-shard coordination state machine
/// (§IV-D2), held by the OC leader and driven once per proposal:
///
///   1. `FilterAndLock` at ordering (proposal b): discard transactions
///      conflicting with in-flight cross-shard transactions or with
///      earlier-accepted transactions of the same round (across shards);
///      lock the accounts of accepted cross-shard transactions.
///   2. `BuildUpdateList` at proposal b+2, after Single-Shard Execution:
///      route each S-set write to the shard that owns it, producing the
///      list U_b that proposal b+2 carries; then release the batch's locks
///      and forget the batch, whether or not any S set arrived.
///
/// The committed block is the only record of a Multi-Shard Update: every
/// honest ESC and the canonical replay apply U_b exactly once, when they
/// execute the block that carries it (Lemma 3). A shard whose execution
/// result misses Te has missed an attestation, not an application, so
/// nothing is re-sent or rolled back.
class CrossShardCoordinator {
 public:
  explicit CrossShardCoordinator(int shard_bits) : shard_bits_(shard_bits) {}

  /// Optional distributed tracing. When armed, each cross-shard batch
  /// contributes an "sse" round-lane span attributed to `node` (the OC
  /// leader), from lock acquisition (FilterAndLock) to U's build
  /// (BuildUpdateList). The "msu" span after it belongs to the chain: the
  /// system records it when the block carrying U commits.
  void EnableTracing(obs::Tracer* tracer, std::string node) {
    tracer_ = tracer;
    trace_node_ = std::move(node);
  }

  /// Counter incremented for every S-set update dropped by BuildUpdateList
  /// because its account was never locked by the batch (a forged or
  /// replayed cross-shard write). Optional; null disables counting.
  void set_rejected_counter(obs::Counter* counter) {
    rejected_unlocked_ = counter;
  }

  struct FilterResult {
    /// Positions in the input of the accepted transactions, each list in
    /// input order.
    std::vector<uint32_t> accepted_intra;
    std::vector<uint32_t> accepted_cross;
    /// Discarded for conflicts, cross-shard first; still recorded in their
    /// blocks for integrity, with their ids noted in the proposal.
    std::vector<tx::TxId> discarded;
  };

  /// Splits and filters one round's witnessed transactions, read from
  /// their access records: the ids and accounts are all it needs.
  FilterResult FilterAndLock(uint64_t round, const std::vector<TxAccess>& txs);

  /// Is this account currently locked by an in-flight cross-shard batch?
  bool IsLocked(state::AccountId account) const {
    return locks_.Find(account) != nullptr;
  }

  /// Consumes the S sets that reached Te for batch `round` and returns U:
  /// one update list per shard. Releases the batch's locks and forgets it,
  /// so a replayed S set for the same round routes nothing.
  std::vector<std::vector<tx::StateUpdate>> BuildUpdateList(
      uint64_t round, const std::vector<std::vector<tx::StateUpdate>>& s_sets);

  int shard_count() const { return 1 << shard_bits_; }

  /// Diagnostics: the batch rounds still holding locks, ascending, and the
  /// accounts locked in all.
  std::vector<uint64_t> InFlightRounds() const;
  size_t locked_accounts() const { return locks_.size(); }

 private:
  struct InFlightBatch {
    std::vector<state::AccountId> locked_accounts;
    uint64_t sse_span = 0;  // Open tracing span (0 = none).
  };

  bool tracing() const { return tracer_ != nullptr && tracer_->enabled(); }

  int shard_bits_;
  obs::Counter* rejected_unlocked_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  std::string trace_node_;
  /// Accounts locked by some in-flight batch.
  FlatSet<U64Key> locks_;
  /// batch round -> in-flight state, from ordering to U's build.
  std::map<uint64_t, InFlightBatch> in_flight_;
};

}  // namespace porygon::core

#endif  // PORYGON_CORE_COORDINATOR_H_
