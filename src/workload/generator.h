#ifndef PORYGON_WORKLOAD_GENERATOR_H_
#define PORYGON_WORKLOAD_GENERATOR_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/flat_map.h"
#include "state/account.h"
#include "tx/transaction.h"
#include "workload/traffic.h"

namespace porygon::workload {

/// Transfer-workload parameters. The generators in the paper's evaluation
/// vary the submission rate (Fig 8c), the cross-shard ratio (Table I), and
/// account skew.
struct WorkloadOptions {
  uint64_t num_accounts = 10'000;
  int shard_bits = 1;
  /// Probability a transaction crosses shards. Negative = "natural": the
  /// receiver is a uniformly random account, so the ratio follows from the
  /// shard count ((2^N - 1) / 2^N for uniform accounts).
  double cross_shard_ratio = -1.0;
  /// Zipf exponent for sender selection (0 = uniform; ~0.9 mimics hot
  /// accounts).
  double zipf_s = 0.0;
  uint64_t amount_min = 1;
  uint64_t amount_max = 100;
  uint64_t seed = 1;
};

/// Deterministic transfer generator with client-side nonce tracking, so
/// generated sequences are executable (nonces are consecutive per sender).
/// Account ids are 1..num_accounts — fund them via CreateAccounts (or
/// lazily via CreateAccountsLazy) before running.
///
/// This is the `uniform` TrafficModel: Spec::BuildModel constructs it for
/// back-compat, and its stream is byte-identical to the pre-TrafficModel
/// generator for the same options.
class WorkloadGenerator : public TrafficModel {
 public:
  explicit WorkloadGenerator(const WorkloadOptions& options);

  tx::Transaction Next() override;
  std::string Describe() const override;

  const WorkloadOptions& options() const { return options_; }

 private:
  state::AccountId PickSender();
  state::AccountId PickReceiver(state::AccountId sender);

  WorkloadOptions options_;
  Rng rng_;
  ZipfSampler senders_;  // Over the accounts; uniform when zipf_s is 0.
  U64Map<uint64_t> nonces_;  // Next nonce per sender.
};

}  // namespace porygon::workload

#endif  // PORYGON_WORKLOAD_GENERATOR_H_
