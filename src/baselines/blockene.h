#ifndef PORYGON_BASELINES_BLOCKENE_H_
#define PORYGON_BASELINES_BLOCKENE_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "consensus/ba_star.h"
#include "core/params.h"
#include "crypto/provider.h"
#include "net/network.h"
#include "state/sharded_state.h"
#include "tx/txpool.h"

namespace porygon::baselines {

/// Reimplementation of the Blockene-style 1D stateless blockchain the paper
/// compares against (§VI "Comparisons"): storage-consensus separation only.
/// One committee of stateless Citizens processes every phase of every block
/// *sequentially* — download (witness), order (BA*), execute, commit — and
/// the committee is re-elected only every `committee_tenure_rounds` blocks
/// (50 in the paper). No pipelining, no sharding: the two characteristics
/// (§II-A) that cap its throughput around 1 kTPS.
struct BlockeneOptions {
  int num_storage_nodes = 2;
  int num_stateless_nodes = 100;
  int committee_size = 10;
  /// Blocks a committee serves before re-election (paper: 50).
  int committee_tenure_rounds = 50;
  size_t block_tx_limit = 2000;
  double stateless_bps = 1e6;
  double storage_bps = 100e6;
  int64_t latency_us = 500;
  int64_t reconfig_interval_us = 2'000'000;
  int64_t phase_interval_us = 1'700'000;
  size_t state_proof_bytes_per_account = 128;
  /// Mean node session length in seconds (0 = nodes never leave). Models
  /// the Fig 8d churn experiment: members that left stop responding, and a
  /// committee below quorum commits empty blocks until re-election.
  double mean_session_s = 0;
  uint64_t seed = 1;
};

struct BlockeneMetrics {
  uint64_t committed_txs = 0;
  uint64_t committed_blocks = 0;
  uint64_t empty_rounds = 0;
  std::vector<double> block_latencies_s;
  std::vector<double> user_latencies_s;

  double Tps(double duration_s) const {
    return duration_s > 0 ? committed_txs / duration_s : 0;
  }
};

/// Event-driven Blockene run: the round state machine chains the four
/// phases with real bandwidth-charged messages over the simulated network.
class BlockeneSystem {
 public:
  explicit BlockeneSystem(const BlockeneOptions& options);
  ~BlockeneSystem();

  void CreateAccounts(uint64_t count, uint64_t balance);
  bool SubmitTransaction(tx::Transaction t);
  void Run(int rounds, net::SimTime max_sim_time = net::kSimTimeNever);

  const BlockeneMetrics& metrics() const { return metrics_; }
  const state::ShardedState& state() const { return *state_; }
  double sim_seconds() const { return net::ToSeconds(events_.now()); }
  net::SimNetwork* network() { return network_.get(); }

 private:
  struct Member {
    crypto::KeyPair keys;
    net::NodeId net_id;
    net::SimTime session_end = net::kSimTimeNever;
  };

  void ElectCommittee();
  void StartRound();
  void PhaseDownload();
  void PhaseOrder();
  void PhaseExecuteAndCommit();
  void FinishRound(bool empty);
  size_t ActiveCommitteeCount() const;

  BlockeneOptions options_;
  Rng rng_;
  net::EventQueue events_;
  std::unique_ptr<net::SimNetwork> network_;
  std::unique_ptr<crypto::CryptoProvider> provider_;
  std::unique_ptr<state::ShardedState> state_;
  tx::TxPool pool_;

  std::vector<Member> nodes_;
  std::vector<net::NodeId> storage_ids_;
  std::vector<int> committee_;          // Indices into nodes_.
  int tenure_rounds_left_ = 0;

  uint64_t round_ = 0;
  int target_rounds_ = 0;
  net::SimTime last_commit_time_ = 0;
  tx::TransactionBlock current_block_;
  size_t downloads_pending_ = 0;
  bool started_ = false;
  bool idle_ = false;  // No round scheduled (target reached).

  BlockeneMetrics metrics_;
  uint64_t next_account_hint_ = 1;
};

}  // namespace porygon::baselines

#endif  // PORYGON_BASELINES_BLOCKENE_H_
