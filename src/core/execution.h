#ifndef PORYGON_CORE_EXECUTION_H_
#define PORYGON_CORE_EXECUTION_H_

#include <cstdint>
#include <vector>

#include "crypto/sha256.h"
#include "state/sharded_state.h"
#include "state/view.h"
#include "tx/blocks.h"
#include "tx/transaction.h"

namespace porygon::core {

/// Why a transaction was abandoned rather than applied. Failed transactions
/// stay recorded in their block for integrity (§IV-C1(c)).
enum class TxFailure {
  kInsufficientBalance,
  kBadNonce,       ///< Replay or out-of-order nonce.
  kWrongShard,     ///< Sender does not belong to the executing shard.
};

struct FailedTx {
  tx::TxId id;
  TxFailure reason;
};

/// Inputs for one ESC's Execution Phase in one round (§IV-D2 step 3/5): the
/// shard's listed transactions as access records, in block order less the
/// discarded ones (the executor tells intra- from cross-shard itself), and
/// the update list U from the OC for cross-shard commits.
struct ExecutionInput {
  uint32_t shard = 0;
  std::vector<tx::TxAccess> txs;
  std::vector<tx::StateUpdate> updates;
};

/// Outputs returned to the OC: the new subtree root T', the updated
/// key-value pairs S from cross-shard pre-execution (not yet applied to any
/// subtree), and failure accounting.
struct ExecutionResult {
  crypto::Hash256 shard_root{};
  std::vector<tx::StateUpdate> cross_updates;
  uint32_t intra_applied = 0;
  uint32_t cross_pre_executed = 0;
  std::vector<FailedTx> failed;
};

/// Deterministic shard executor. Every honest ESC member runs this over the
/// same inputs and must produce bit-identical results (Lemma 3 relies on the
/// execution process being deterministic).
///
/// Transfer semantics: valid iff tx.nonce == sender.nonce and
/// sender.balance >= amount; apply debits sender, bumps its nonce, credits
/// receiver (creating it if absent).
class ShardExecutor {
 public:
  /// Executes in order: (1) OC update list U, (2) the intra-shard records,
  /// (3) cross-shard pre-execution of the cross-shard records (reads state,
  /// emits S, mutates nothing), each in list order; a failure is reported
  /// under the record's id. `state` is the executing members' materialized
  /// view (downloaded from storage nodes); only the `input.shard` subtree is
  /// mutated, except that cross-shard pre-execution may *read* foreign
  /// accounts.
  static ExecutionResult Execute(state::StateView* state,
                                 const ExecutionInput& input);
};

}  // namespace porygon::core

#endif  // PORYGON_CORE_EXECUTION_H_
