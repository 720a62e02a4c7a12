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

/// Deterministic transfer generator with client-side nonce tracking, so
/// generated sequences are executable (nonces are consecutive per sender).
/// Account ids are 1..num_accounts — fund them via CreateAccounts (or
/// lazily via CreateAccountsLazy) before running.
///
/// This is the `uniform` TrafficModel: it reads the spec's num_accounts,
/// shard_bits, cross_shard_ratio, zipf_s (sender skew), amount range and
/// seed.
class WorkloadGenerator : public TrafficModel {
 public:
  explicit WorkloadGenerator(const Spec& spec);

  tx::Transaction Next() override;
  std::string Describe() const override;

 private:
  state::AccountId PickSender();
  state::AccountId PickReceiver(state::AccountId sender);

  Spec spec_;
  Rng rng_;
  ZipfSampler senders_;  // Over the accounts; uniform when zipf_s is 0.
  U64Map<uint64_t> nonces_;  // Next nonce per sender.
};

}  // namespace porygon::workload

#endif  // PORYGON_WORKLOAD_GENERATOR_H_
