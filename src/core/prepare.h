#ifndef PORYGON_CORE_PREPARE_H_
#define PORYGON_CORE_PREPARE_H_

#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "core/messages.h"
#include "crypto/provider.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "runtime/task_pool.h"
#include "tx/blocks.h"

namespace porygon::core {

// Prepared messages. A stateless node's handling of a heavy message splits
// into a pure front half (decode, hash, signature check) and the handler
// proper. The front half of each transmitted copy starts on the compute
// pool when the copy leaves its sender (SimNetwork::SetPrepareHook) and
// rides in Message::prepared to delivery, where the handler takes its
// result and applies every gate, counter, trace and state change itself,
// in the order it always has. A copy without a prepared result runs the
// same front half inline, so the outcome is the same at any thread count.
//
// A front half reads its payload and PrepareContext, which is fixed before
// the first send, and writes only its own result.

/// What a front half may read besides its payload.
struct PrepareContext {
  uint32_t shard_count = 0;
  /// The registered stateless identities (written only at construction).
  const std::set<crypto::PublicKey>* stateless_keys = nullptr;
  /// Its Verify is safe off the event-loop thread (crypto/provider.h).
  crypto::CryptoProvider* provider = nullptr;
};

/// An EC member's body check (Witness Phase, §IV-C1(a)): the parsed
/// header, whether the records hash to its tx root, the block id, and one
/// access record per transaction with the id the check hashed.
struct PreparedBody {
  bool parsed = false;
  tx::TransactionBlockHeader header;
  tx::BlockId block_id{};  ///< header.Id(), when parsed.
  bool body_ok = false;
  std::vector<TxAccess> txs;  ///< When body_ok.

  static PreparedBody Of(ByteView block, const PrepareContext& ctx);
};

/// An OC member's (or exec relay's) check of one signed execution result:
/// decoded, then each check OnExecResult applies, computed only as far as
/// the earlier ones pass.
struct PreparedExecResult {
  std::optional<ExecResultMsg> result;
  bool shard_ok = false;
  bool known_signer = false;
  bool signature_ok = false;
  bool s_hash_ok = false;  ///< The S set hashes to s_hash (full results).

  static PreparedExecResult Of(ByteView payload, const PrepareContext& ctx);
};

/// An OC member's decode of a proposal block and its hash.
struct PreparedProposal {
  std::optional<tx::ProposalBlock> block;
  crypto::Hash256 hash{};

  static PreparedProposal Of(ByteView payload, const PrepareContext& ctx);
};

/// A front half on the pool: T::Of over `payload`, into `result`. The
/// payload reference goes with the closure once the job is done or
/// dropped.
template <typename T>
class PreparedJob : public runtime::TaskPool::Job {
 public:
  PreparedJob(SharedBytes payload, const PrepareContext& ctx)
      : Job([this, payload = std::move(payload), ctx] {
          result = T::Of(payload, ctx);
        }) {}

  T result;
};

/// Starts the front half of a copy bound for a stateless node on `pool`,
/// for the kinds that have one; null for every other copy.
std::shared_ptr<runtime::TaskPool::Job> StartPrepare(
    const net::Message& msg, const PrepareContext& ctx,
    runtime::TaskPool* pool);

/// The front half of `msg`: its job's result, waiting for the job on
/// `pool` (which runs it here when no worker started it, and other queued
/// front halves while a worker runs it), or T::Of run here when the copy
/// carries none. The event loop's time in either lands in `wall_us`.
template <typename T>
T TakePrepared(const net::Message& msg, const PrepareContext& ctx,
               runtime::TaskPool* pool, obs::Gauge* wall_us) {
  const auto start = runtime::WallClock::now();
  T out;
  if (auto* job = dynamic_cast<PreparedJob<T>*>(msg.prepared.get())) {
    pool->Wait(job);
    out = std::move(job->result);
  } else {
    out = T::Of(msg.payload, ctx);
  }
  wall_us->Add(static_cast<double>(runtime::WallMicrosSince(start)));
  return out;
}

}  // namespace porygon::core

#endif  // PORYGON_CORE_PREPARE_H_
