#ifndef PORYGON_BASELINES_BYSHARD_H_
#define PORYGON_BASELINES_BYSHARD_H_

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/params.h"
#include "crypto/provider.h"
#include "net/network.h"
#include "state/sharded_state.h"
#include "storage/db.h"
#include "storage/env.h"
#include "tx/txpool.h"

namespace porygon::baselines {

/// Reimplementation of the ByShard-style sharded full-node blockchain the
/// paper compares against: every node stores its shard's ever-growing chain
/// and state ("lightweight ByShard": node bandwidth/memory matched to
/// Porygon's stateless nodes). Each shard runs a Tendermint-style BFT
/// (propose/prevote/precommit — structurally our BaStar) over its own
/// mempool; cross-shard transactions use a distributed two-phase protocol
/// with the *sender shard* as coordinator (§VI "Comparisons").
struct ByshardOptions {
  int shard_bits = 1;
  int nodes_per_shard = 10;
  size_t block_tx_limit = 1000;
  double node_bps = 1e6;
  int64_t latency_us = 500;
  int64_t consensus_interval_us = 2'000'000;
  int64_t phase_interval_us = 1'700'000;
  uint64_t seed = 1;

  int shard_count() const { return 1 << shard_bits; }
};

struct ByshardMetrics {
  uint64_t committed_intra_txs = 0;
  uint64_t committed_cross_txs = 0;
  uint64_t committed_blocks = 0;
  std::vector<double> block_latencies_s;
  std::vector<double> user_latencies_s;

  double Tps(double duration_s) const {
    return duration_s > 0
               ? (committed_intra_txs + committed_cross_txs) / duration_s
               : 0;
  }
};

/// Event-driven ByShard run. Shards progress independently (inter-block
/// parallelism); rounds within a shard chain propose -> vote -> execute ->
/// commit with bandwidth-charged block replication to every shard member.
class ByshardSystem {
 public:
  explicit ByshardSystem(const ByshardOptions& options);
  ~ByshardSystem();

  void CreateAccounts(uint64_t count, uint64_t balance);
  bool SubmitTransaction(tx::Transaction t);
  void Run(int rounds_per_shard,
           net::SimTime max_sim_time = net::kSimTimeNever);

  const ByshardMetrics& metrics() const { return metrics_; }
  const state::ShardedState& state() const { return *state_; }
  double sim_seconds() const { return net::ToSeconds(events_.now()); }
  net::SimNetwork* network() { return network_.get(); }

  /// Bytes stored by one full node of `shard` (blocks + state) — the
  /// growing line of Fig 9a.
  uint64_t NodeStorageBytes(uint32_t shard) const;
  /// Mean per-node traffic per committed block (Fig 9b comparison).
  double MeanNodeTrafficPerRound() const;

 private:
  struct Shard {
    std::vector<net::NodeId> members;
    std::unique_ptr<storage::MemEnv> env;   // One representative node's disk.
    std::unique_ptr<storage::Db> db;
    uint64_t height = 0;
    net::SimTime last_commit = 0;
    int rounds_done = 0;
    bool idle = false;  // No round scheduled (target reached).
    // Cross-shard credits forwarded to this shard (second phase). Deltas,
    // not absolute values: multiple in-flight credits to one account and
    // concurrent local activity must compose.
    std::deque<std::pair<state::AccountId, uint64_t>> incoming_credits;
    std::deque<uint64_t> incoming_commits;  // Submission times (latency).
  };

  void StartShardRound(uint32_t shard);
  void CommitShardBlock(uint32_t shard, tx::TransactionBlock block);

  ByshardOptions options_;
  Rng rng_;
  net::EventQueue events_;
  std::unique_ptr<net::SimNetwork> network_;
  std::unique_ptr<crypto::CryptoProvider> provider_;
  std::unique_ptr<state::ShardedState> state_;
  tx::TxPool pool_;

  std::vector<Shard> shards_;
  int target_rounds_per_shard_ = 0;
  bool started_ = false;

  ByshardMetrics metrics_;
  uint64_t next_account_hint_ = 1;
};

}  // namespace porygon::baselines

#endif  // PORYGON_BASELINES_BYSHARD_H_
