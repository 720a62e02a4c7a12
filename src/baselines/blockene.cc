#include "baselines/blockene.h"

#include <set>

#include "core/execution.h"

namespace porygon::baselines {

namespace {
// Message kinds local to the Blockene simulation (traffic accounting only).
constexpr uint16_t kBkTxBlock = 101;
constexpr uint16_t kBkVote = 102;
constexpr uint16_t kBkState = 103;
constexpr uint16_t kBkRoot = 104;
constexpr uint16_t kBkCommit = 105;
}  // namespace

BlockeneSystem::BlockeneSystem(const BlockeneOptions& options)
    : options_(options), rng_(options.seed), pool_(/*shard_bits=*/0) {
  network_ = std::make_unique<net::SimNetwork>(&events_, rng_.Fork());
  network_->SetLatency(options_.latency_us, 100);
  provider_ = std::make_unique<crypto::FastProvider>();
  state_ = std::make_unique<state::ShardedState>(0);

  for (int i = 0; i < options_.num_storage_nodes; ++i) {
    storage_ids_.push_back(
        network_->AddNode({options_.storage_bps, options_.storage_bps}));
  }
  for (int i = 0; i < options_.num_stateless_nodes; ++i) {
    Member m;
    m.keys = provider_->GenerateKeyPair(&rng_);
    m.net_id =
        network_->AddNode({options_.stateless_bps, options_.stateless_bps});
    if (options_.mean_session_s > 0) {
      m.session_end = net::FromSeconds(
          rng_.NextExponential(options_.mean_session_s));
    }
    nodes_.push_back(std::move(m));
  }
}

BlockeneSystem::~BlockeneSystem() = default;

void BlockeneSystem::CreateAccounts(uint64_t count, uint64_t balance) {
  for (uint64_t i = 0; i < count; ++i) {
    state_->PutAccount(next_account_hint_ + i, {balance, 0});
  }
  next_account_hint_ += count;
}

bool BlockeneSystem::SubmitTransaction(tx::Transaction t) {
  t.submitted_at = static_cast<uint64_t>(events_.now());
  return pool_.Add(t);
}

void BlockeneSystem::ElectCommittee() {
  committee_.clear();
  // Uniform sample from nodes currently in the network; a re-joining node
  // gets a fresh session.
  std::set<int> chosen;
  while (static_cast<int>(chosen.size()) <
         std::min(options_.committee_size, options_.num_stateless_nodes)) {
    int candidate = static_cast<int>(rng_.NextBelow(nodes_.size()));
    chosen.insert(candidate);
  }
  for (int i : chosen) {
    if (options_.mean_session_s > 0 &&
        nodes_[i].session_end <= events_.now()) {
      nodes_[i].session_end =
          events_.now() +
          net::FromSeconds(rng_.NextExponential(options_.mean_session_s));
    }
    committee_.push_back(i);
  }
  tenure_rounds_left_ = options_.committee_tenure_rounds;
}

size_t BlockeneSystem::ActiveCommitteeCount() const {
  size_t active = 0;
  for (int i : committee_) {
    if (nodes_[i].session_end > events_.now()) ++active;
  }
  return active;
}

void BlockeneSystem::Run(int rounds, net::SimTime max_sim_time) {
  if (!started_) {
    started_ = true;
    last_commit_time_ = events_.now();
    ElectCommittee();
    events_.ScheduleAfter(options_.reconfig_interval_us,
                          [this] { StartRound(); });
  }
  target_rounds_ = static_cast<int>(metrics_.committed_blocks) + rounds;
  if (idle_) {
    idle_ = false;
    events_.ScheduleAfter(options_.reconfig_interval_us,
                          [this] { StartRound(); });
  }
  while (static_cast<int>(metrics_.committed_blocks) < target_rounds_ &&
         events_.now() <= max_sim_time) {
    if (!events_.RunNext()) break;
  }
}

void BlockeneSystem::StartRound() {
  ++round_;
  if (tenure_rounds_left_ <= 0) ElectCommittee();
  --tenure_rounds_left_;

  // Churn check: a committee below the BA quorum cannot make progress and
  // the round yields an empty block; the tenure design means Blockene keeps
  // stalling until the scheduled re-election (§VI-B / Fig 8d). We re-elect
  // immediately after a failed round to keep liveness, which is generous to
  // the baseline.
  if (options_.mean_session_s > 0) {
    size_t quorum = committee_.size() * 2 / 3 + 1;
    if (ActiveCommitteeCount() < quorum) {
      ElectCommittee();
      FinishRound(/*empty=*/true);
      return;
    }
  }

  current_block_ = pool_.PackBlock(0, options_.block_tx_limit, 0, round_);
  if (current_block_.transactions.empty()) {
    FinishRound(/*empty=*/true);
    return;
  }
  PhaseDownload();
}

void BlockeneSystem::PhaseDownload() {
  // Every committee member downloads the complete block from a storage
  // node (sequential transaction processing, Characteristic 1).
  downloads_pending_ = 0;
  size_t wire = current_block_.WireSize();
  for (int i : committee_) {
    if (nodes_[i].session_end <= events_.now()) continue;
    ++downloads_pending_;
    network_->SetHandler(nodes_[i].net_id, [this](const net::Message&) {
      if (downloads_pending_ > 0 && --downloads_pending_ == 0) PhaseOrder();
    });
    network_->Send(storage_ids_[i % storage_ids_.size()], nodes_[i].net_id,
                   kBkTxBlock, {}, wire);
  }
  if (downloads_pending_ == 0) FinishRound(true);
}

void BlockeneSystem::PhaseOrder() {
  // BA* among the committee; votes route through storage nodes (two hops).
  // Cost model: each member broadcasts 2 vote rounds to all members.
  size_t vote_wire = 150;
  size_t members = committee_.size();
  for (int i : committee_) {
    if (nodes_[i].session_end <= events_.now()) continue;
    for (int j : committee_) {
      if (i == j) continue;
      // Soft + cert votes, up to storage and down to the member.
      network_->Send(nodes_[i].net_id, storage_ids_[0], kBkVote, {},
                     2 * vote_wire);
      network_->Send(storage_ids_[0], nodes_[j].net_id, kBkVote, {},
                     2 * vote_wire);
    }
  }
  (void)members;
  // Ordering settles within the phase budget.
  events_.ScheduleAfter(options_.phase_interval_us,
                        [this] { PhaseExecuteAndCommit(); });
}

void BlockeneSystem::PhaseExecuteAndCommit() {
  // Members download states + proofs for every account the block touches,
  // execute deterministically, and exchange signed roots.
  std::set<state::AccountId> accounts;
  for (const auto& t : current_block_.transactions) {
    accounts.insert(t.from);
    accounts.insert(t.to);
  }
  size_t state_wire =
      accounts.size() * (17 + options_.state_proof_bytes_per_account);
  for (int i : committee_) {
    if (nodes_[i].session_end <= events_.now()) continue;
    network_->SetHandler(nodes_[i].net_id, [](const net::Message&) {});
    network_->Send(storage_ids_[i % storage_ids_.size()], nodes_[i].net_id,
                   kBkState, {}, state_wire);
    // Signed root to all other members (via storage).
    network_->Send(nodes_[i].net_id, storage_ids_[0], kBkRoot, {},
                   96 * committee_.size());
  }

  // Execute once (all honest members produce the identical result).
  core::ExecutionInput input;
  input.shard = 0;
  for (const tx::Transaction& t : current_block_.transactions) {
    input.txs.push_back(tx::ToAccess(t, t.Id()));
  }
  core::ExecutionResult r = core::ShardExecutor::Execute(state_.get(), input);

  // Commit after the execution + commit phases elapse.
  events_.ScheduleAfter(2 * options_.phase_interval_us, [this, r] {
    metrics_.committed_txs += r.intra_applied;
    double now_s = net::ToSeconds(events_.now());
    for (const auto& t : current_block_.transactions) {
      metrics_.user_latencies_s.push_back(
          now_s -
          net::ToSeconds(static_cast<net::SimTime>(t.submitted_at)));
    }
    FinishRound(/*empty=*/false);
  });
}

void BlockeneSystem::FinishRound(bool empty) {
  ++metrics_.committed_blocks;
  if (empty) ++metrics_.empty_rounds;
  net::SimTime now = events_.now();
  metrics_.block_latencies_s.push_back(
      net::ToSeconds(now - last_commit_time_));
  last_commit_time_ = now;
  if (static_cast<int>(metrics_.committed_blocks) < target_rounds_) {
    events_.ScheduleAfter(options_.reconfig_interval_us,
                          [this] { StartRound(); });
  } else {
    idle_ = true;
  }
}

}  // namespace porygon::baselines
