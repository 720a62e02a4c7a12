#include "workload/generator.h"

#include "common/clause.h"

namespace porygon::workload {

WorkloadGenerator::WorkloadGenerator(const WorkloadOptions& options)
    : options_(options),
      rng_(options.seed),
      senders_(options.num_accounts, options.zipf_s) {}

state::AccountId WorkloadGenerator::PickSender() {
  return 1 + senders_.Next(&rng_);
}

state::AccountId WorkloadGenerator::PickReceiver(state::AccountId sender) {
  const int bits = options_.shard_bits;
  if (options_.cross_shard_ratio < 0 || bits == 0) {
    // Natural: any other account.
    for (int tries = 0; tries < 64; ++tries) {
      state::AccountId r = 1 + rng_.NextBelow(options_.num_accounts);
      if (r != sender) return r;
    }
    return sender == 1 ? 2 : 1;
  }
  const bool want_cross = rng_.NextBernoulli(options_.cross_shard_ratio);
  const uint32_t sender_shard = state::ShardOfAccount(sender, bits);
  for (int tries = 0; tries < 256; ++tries) {
    state::AccountId r = 1 + rng_.NextBelow(options_.num_accounts);
    if (r == sender) continue;
    bool cross = state::ShardOfAccount(r, bits) != sender_shard;
    if (cross == want_cross) return r;
  }
  return sender == 1 ? 2 : 1;  // Degenerate account spaces.
}

tx::Transaction WorkloadGenerator::Next() {
  tx::Transaction t;
  t.from = PickSender();
  t.to = PickReceiver(t.from);
  t.amount = rng_.NextInRange(options_.amount_min, options_.amount_max);
  t.nonce = nonces_[t.from]++;
  return t;
}

std::string WorkloadGenerator::Describe() const {
  std::string s = "{\"model\":\"uniform\",\"accounts\":" +
                  std::to_string(options_.num_accounts);
  if (options_.cross_shard_ratio >= 0) {
    s += ",\"cross\":" + clause::FormatG(options_.cross_shard_ratio);
  }
  if (options_.zipf_s > 0) s += ",\"s\":" + clause::FormatG(options_.zipf_s);
  s += ",\"seed\":" + std::to_string(options_.seed) + "}";
  return s;
}

}  // namespace porygon::workload
