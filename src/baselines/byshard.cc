#include "baselines/byshard.h"

#include <map>

#include "common/flat_map.h"
#include "core/execution.h"

namespace porygon::baselines {

namespace {
constexpr uint16_t kBsBlock = 201;      // Block replication within a shard.
constexpr uint16_t kBsVote = 202;       // Prevote/precommit traffic.
constexpr uint16_t kBsCrossMsg = 203;   // Two-phase cross-shard messages.
}  // namespace

ByshardSystem::ByshardSystem(const ByshardOptions& options)
    : options_(options),
      rng_(options.seed),
      pool_(options.shard_bits) {
  network_ = std::make_unique<net::SimNetwork>(&events_, rng_.Fork());
  network_->SetLatency(options_.latency_us, 100);
  provider_ = std::make_unique<crypto::FastProvider>();
  state_ = std::make_unique<state::ShardedState>(options_.shard_bits);

  shards_.resize(options_.shard_count());
  for (auto& shard : shards_) {
    for (int i = 0; i < options_.nodes_per_shard; ++i) {
      shard.members.push_back(
          network_->AddNode({options_.node_bps, options_.node_bps}));
      network_->SetHandler(shard.members.back(), [](const net::Message&) {});
    }
    shard.env = std::make_unique<storage::MemEnv>();
    shard.db = std::move(storage::Db::Open(shard.env.get(), "db")).value();
  }
}

ByshardSystem::~ByshardSystem() = default;

void ByshardSystem::CreateAccounts(uint64_t count, uint64_t balance) {
  for (uint64_t i = 0; i < count; ++i) {
    state_->PutAccount(next_account_hint_ + i, {balance, 0});
  }
  next_account_hint_ += count;
}

bool ByshardSystem::SubmitTransaction(tx::Transaction t) {
  t.submitted_at = static_cast<uint64_t>(events_.now());
  return pool_.Add(t);
}

void ByshardSystem::Run(int rounds_per_shard, net::SimTime max_sim_time) {
  if (!started_) {
    started_ = true;
    for (auto& shard : shards_) shard.last_commit = events_.now();
    for (uint32_t d = 0; d < shards_.size(); ++d) {
      events_.ScheduleAfter(options_.consensus_interval_us,
                            [this, d] { StartShardRound(d); });
    }
  }
  target_rounds_per_shard_ += rounds_per_shard;
  for (uint32_t d = 0; d < shards_.size(); ++d) {
    if (shards_[d].idle &&
        shards_[d].rounds_done < target_rounds_per_shard_) {
      shards_[d].idle = false;
      events_.ScheduleAfter(options_.consensus_interval_us,
                            [this, d] { StartShardRound(d); });
    }
  }
  auto all_done = [this] {
    for (const auto& shard : shards_) {
      if (shard.rounds_done < target_rounds_per_shard_) return false;
    }
    return true;
  };
  while (!all_done() && events_.now() <= max_sim_time) {
    if (!events_.RunNext()) break;
  }
}

void ByshardSystem::StartShardRound(uint32_t d) {
  Shard& shard = shards_[d];
  tx::TransactionBlock block =
      pool_.PackBlock(d, options_.block_tx_limit, d, shard.height + 1);

  // Leader replicates the full block to every shard member (full nodes
  // must hold complete block contents), then two vote rounds.
  size_t wire = block.WireSize();
  for (size_t i = 1; i < shard.members.size(); ++i) {
    network_->Send(shard.members[0], shard.members[i], kBsBlock, {}, wire);
    // Prevote + precommit from each member to each member (charged once
    // per pair-direction with both rounds folded in).
    network_->Send(shard.members[i], shard.members[0], kBsVote, {},
                   300 * shard.members.size());
  }

  // Consensus + execution take the phase budget; then commit.
  events_.ScheduleAfter(options_.phase_interval_us,
                        [this, d, block = std::move(block)]() mutable {
                          CommitShardBlock(d, std::move(block));
                        });
}

void ByshardSystem::CommitShardBlock(uint32_t d, tx::TransactionBlock block) {
  Shard& shard = shards_[d];
  const double now_s = net::ToSeconds(events_.now());

  // Apply queued cross-shard credits from other shards (second phase of the
  // two-phase protocol).
  {
    std::map<state::AccountId, state::Account> merged;
    while (!shard.incoming_credits.empty()) {
      auto [account, amount] = shard.incoming_credits.front();
      shard.incoming_credits.pop_front();
      auto it = merged.find(account);
      state::Account value =
          it != merged.end() ? it->second : state_->GetOrDefault(account);
      value.balance += amount;
      merged[account] = value;
    }
    std::vector<std::pair<state::AccountId, state::Account>> writes(
        merged.begin(), merged.end());
    if (!writes.empty()) state_->PutAccountBatch(d, writes);
    while (!shard.incoming_commits.empty()) {
      ++metrics_.committed_cross_txs;
      metrics_.user_latencies_s.push_back(
          now_s - net::ToSeconds(static_cast<net::SimTime>(
                      shard.incoming_commits.front())));
      shard.incoming_commits.pop_front();
    }
  }

  // One execution over the whole block, in block order: intra-shard
  // transactions apply locally, and cross-shard ones run the first phase
  // here (the sender shard coordinates). Their S set applies the senders'
  // debits (PutAccountBatch keeps only shard d's entries), and each one
  // that did not fail forwards its credit to the receiver's shard (messages
  // charged member-to-member).
  core::ExecutionInput input;
  input.shard = d;
  for (const auto& t : block.transactions) {
    input.txs.push_back(tx::ToAccess(t, t.Id()));
  }
  const core::ExecutionResult r =
      core::ShardExecutor::Execute(state_.get(), input);
  std::vector<std::pair<state::AccountId, state::Account>> s_set;
  for (const tx::StateUpdate& u : r.cross_updates) {
    s_set.emplace_back(u.account, u.value);
  }
  state_->PutAccountBatch(d, s_set);
  metrics_.committed_intra_txs += r.intra_applied;
  FlatSet<DigestKey> failed;
  for (const core::FailedTx& f : r.failed) failed.Insert(f.id);
  for (const tx::TxAccess& a : input.txs) {
    if (failed.Contains(a.id)) continue;
    if (!a.IsCrossShard(options_.shard_bits)) {
      metrics_.user_latencies_s.push_back(
          now_s - net::ToSeconds(static_cast<net::SimTime>(a.submitted_at)));
      continue;
    }
    uint32_t to_shard = state_->ShardOf(a.to);
    shards_[to_shard].incoming_credits.emplace_back(a.to, a.amount);
    shards_[to_shard].incoming_commits.push_back(a.submitted_at);
    // Coordinator shard members forward the sub-transaction to the remote
    // shard (prepare + commit messages).
    network_->Send(shard.members[0], shards_[to_shard].members[0],
                   kBsCrossMsg, {}, 2 * (tx::Transaction::kWireSize + 96));
  }

  // Full nodes persist the complete block (Fig 9a growth).
  Bytes encoded = block.Encode();
  (void)shard.db->Put(ToBytes("block/" + std::to_string(shard.height + 1)),
                      encoded);

  ++shard.height;
  ++shard.rounds_done;
  ++metrics_.committed_blocks;
  metrics_.block_latencies_s.push_back(
      net::ToSeconds(events_.now() - shard.last_commit));
  shard.last_commit = events_.now();

  if (shard.rounds_done < target_rounds_per_shard_) {
    events_.ScheduleAfter(options_.consensus_interval_us,
                          [this, d] { StartShardRound(d); });
  } else {
    shard.idle = true;
  }
}

uint64_t ByshardSystem::NodeStorageBytes(uint32_t shard) const {
  // Blocks on disk plus the in-memory state of the shard (approximated by
  // 16 bytes per account + Merkle overhead).
  return shards_[shard].env->TotalBytes() +
         state_->ShardAccountCount(shard) * 48;
}

double ByshardSystem::MeanNodeTrafficPerRound() const {
  double total = 0;
  size_t members = 0;
  for (const auto& shard : shards_) {
    for (net::NodeId id : shard.members) {
      const net::LinkActivity& link = network_->ActivityFor(id);
      total += static_cast<double>(link.bytes_up + link.bytes_down);
      ++members;
    }
  }
  uint64_t rounds =
      metrics_.committed_blocks > 0 ? metrics_.committed_blocks : 1;
  return members > 0 ? total / members / rounds * shards_.size() : 0;
}

}  // namespace porygon::baselines
