#ifndef PORYGON_CORE_COORDINATOR_H_
#define PORYGON_CORE_COORDINATOR_H_

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/flat_map.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "state/account.h"
#include "tx/blocks.h"
#include "tx/transaction.h"

namespace porygon::core {

/// The Ordering Committee's cross-shard coordination state machine
/// (§IV-D2). Pure logic, driven per round:
///
///   1. `FilterAndLock` at ordering time: discard transactions conflicting
///      with in-flight cross-shard transactions or with earlier-accepted
///      transactions of the same round (across shards); lock the accounts
///      of accepted cross-shard transactions.
///   2. `BuildUpdateList` after Single-Shard Execution: route each updated
///      key-value pair to the shard that owns it, producing the list U for
///      the next proposal block; remember pre-images for rollback.
///   3. `OnShardUpdateResult` after Multi-Shard Update: successful shards
///      release their locks; failed shards are retried with the same
///      updates for up to `retry_rounds` rounds, after which the whole
///      batch rolls back via compensating updates to the old values.
class CrossShardCoordinator {
 public:
  CrossShardCoordinator(int shard_bits, int retry_rounds);

  /// Optional distributed tracing. When armed, each cross-shard batch
  /// contributes two round-lane spans attributed to `node` (the OC leader):
  /// "sse" from lock acquisition (FilterAndLock) to S-set aggregation
  /// (BuildUpdateList), then "msu" until the batch resolves in
  /// OnShardUpdateResult (all shards applied, or rollback — the latter also
  /// emits an "msu_rollback" instant).
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
    std::vector<tx::Transaction> accepted_intra;
    std::vector<tx::Transaction> accepted_cross;
    /// Discarded for conflicts; still recorded in their blocks for
    /// integrity, with their ids noted in the proposal.
    std::vector<tx::TxId> discarded;
  };

  /// Splits and filters one round's witnessed transactions.
  FilterResult FilterAndLock(uint64_t round,
                             const std::vector<tx::Transaction>& txs);

  /// Is this account currently locked by an in-flight cross-shard batch?
  bool IsLocked(state::AccountId account) const {
    return locks_.Find(account) != nullptr;
  }

  /// Consumes the S sets returned by every shard's Single-Shard Execution
  /// for batch `round`, storing pre-images (`old_values`, captured by the
  /// OC from the pre-round state) and returning U: per-shard update lists.
  std::vector<std::vector<tx::StateUpdate>> BuildUpdateList(
      uint64_t round, const std::vector<std::vector<tx::StateUpdate>>& s_sets,
      const std::vector<tx::StateUpdate>& old_values);

  /// Reports whether shard `shard` applied batch `round`'s updates
  /// (returned enough consistent roots). Returns, if the batch is now fully
  /// resolved, either:
  ///   - success: all shards applied → locks released, empty vector
  ///   - rollback: retries exhausted → compensating per-shard update lists
  ///     that every shard must apply to restore old values.
  struct UpdateOutcome {
    bool resolved = false;
    bool rolled_back = false;
    /// Non-empty only when rolled_back: compensating updates per shard.
    std::vector<std::vector<tx::StateUpdate>> compensation;
  };
  UpdateOutcome OnShardUpdateResult(uint64_t round, uint32_t shard,
                                    bool success);

  /// Pending (unresolved) update lists for `shard`, re-sent by the OC until
  /// success ("the OC will continually require the following ESCs of the
  /// same shard to update these states until success"). Only batches whose
  /// feedback round has passed are returned (`current_round` >= lock round
  /// + 4): re-sending earlier would re-apply stale absolute values on top
  /// of newer intra-shard writes — a lost-update/minting hazard caught by
  /// the fault-injection tests.
  std::vector<tx::StateUpdate> PendingUpdatesFor(uint32_t shard,
                                                 uint64_t current_round) const;

  int shard_count() const { return 1 << shard_bits_; }

 private:
  struct InFlightBatch {
    uint64_t round = 0;
    std::vector<std::vector<tx::StateUpdate>> updates;     // Per shard.
    std::vector<tx::StateUpdate> old_values;                // Pre-images.
    std::vector<bool> shard_done;
    std::vector<state::AccountId> locked_accounts;
    int failed_rounds = 0;
    uint64_t sse_span = 0;  // Open tracing spans (0 = none).
    uint64_t msu_span = 0;
  };

  void ReleaseLocks(const InFlightBatch& batch);
  bool tracing() const { return tracer_ != nullptr && tracer_->enabled(); }

  int shard_bits_;
  int retry_rounds_;
  obs::Counter* rejected_unlocked_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  std::string trace_node_;
  /// account -> round of the batch locking it.
  U64Map<uint64_t> locks_;
  /// batch round -> in-flight state.
  std::map<uint64_t, InFlightBatch> in_flight_;
};

}  // namespace porygon::core

#endif  // PORYGON_CORE_COORDINATOR_H_
