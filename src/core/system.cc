#include "core/system.h"

#include <algorithm>
#include <cstdlib>
#include <set>

#include "common/log.h"
#include "net/fault.h"
#include "net/topology.h"
#include "obs/export.h"

namespace porygon::core {

namespace {
/// Snapshot wrapper: own-shard reads and writes hit the live state, foreign
/// reads come from a pre-captured snapshot so every shard's cross-shard
/// pre-execution observes the same pre-round values (each real ESC
/// downloads the same committed snapshot). Every shard's view shares the
/// one snapshot, which outlives them; writes to other shards are dropped,
/// so each launched body touches only its own shard's values and subtree.
class SnapshotForeignView : public state::StateView {
 public:
  SnapshotForeignView(
      state::ShardedState* base, uint32_t own_shard,
      const std::unordered_map<state::AccountId, state::Account>* foreign)
      : base_(base), own_shard_(own_shard), foreign_(foreign) {}

  int shard_bits() const override { return base_->shard_bits(); }
  uint32_t ShardOf(state::AccountId id) const override {
    return base_->ShardOf(id);
  }
  state::Account GetOrDefault(state::AccountId id) const override {
    if (base_->ShardOf(id) == own_shard_) return base_->GetOrDefault(id);
    auto it = foreign_->find(id);
    return it != foreign_->end() ? it->second : state::Account{};
  }
  void PutAccountBatch(
      uint32_t shard,
      const std::vector<std::pair<state::AccountId, state::Account>>& ws)
      override {
    if (shard == own_shard_) base_->PutAccountBatch(shard, ws);
  }
  crypto::Hash256 ShardRoot(uint32_t shard) const override {
    return base_->ShardRoot(shard);
  }

 private:
  state::ShardedState* base_;
  uint32_t own_shard_;
  const std::unordered_map<state::AccountId, state::Account>* foreign_;
};
}  // namespace

Status SystemOptions::Validate() const {
  auto fraction = [](double v) { return v >= 0.0 && v <= 1.0; };
  if (num_storage_nodes < 1) {
    return Status::InvalidArgument("num_storage_nodes must be >= 1");
  }
  if (num_stateless_nodes < 1) {
    return Status::InvalidArgument("num_stateless_nodes must be >= 1");
  }
  if (oc_size < 1) return Status::InvalidArgument("oc_size must be >= 1");
  if (oc_size > num_stateless_nodes) {
    return Status::InvalidArgument("oc_size exceeds num_stateless_nodes");
  }
  if (blocks_per_shard_round < 1) {
    return Status::InvalidArgument("blocks_per_shard_round must be >= 1");
  }
  if (epoch_length == 1) {
    return Status::InvalidArgument(
        "epoch_length must be 0 (disabled) or >= 2");
  }
  if (malicious_storage_fraction != 0 || malicious_stateless_fraction != 0) {
    return Status::InvalidArgument(
        "malicious_{storage,stateless}_fraction are retired; set adversary");
  }
  if (adversary.stateless != AdvStrategy::kHonest &&
      !IsStatelessStrategy(adversary.stateless)) {
    return Status::InvalidArgument(
        "adversary.stateless is not a stateless strategy");
  }
  if (adversary.storage != AdvStrategy::kHonest &&
      !IsStorageStrategy(adversary.storage)) {
    return Status::InvalidArgument(
        "adversary.storage is not a storage strategy");
  }
  if (!(adversary.alpha >= 0 && adversary.alpha <= 0.25)) {
    return Status::InvalidArgument(
        "adversary.alpha outside the paper's bound [0,1/4]");
  }
  if (!(adversary.beta >= 0 && adversary.beta <= 0.5)) {
    return Status::InvalidArgument(
        "adversary.beta outside the paper's bound [0,1/2]");
  }
  if (!(mean_session_s >= 0)) {
    return Status::InvalidArgument("mean_session_s must be >= 0");
  }
  if (worker_threads < 0) {
    return Status::InvalidArgument("worker_threads must be >= 0");
  }
  if (params.shard_bits < 0 || params.shard_bits > 20) {
    return Status::InvalidArgument("shard_bits outside [0,20]");
  }
  if (!fraction(params.ordering_fraction)) {
    return Status::InvalidArgument("ordering_fraction outside [0,1]");
  }
  if (!fraction(params.execution_fraction)) {
    return Status::InvalidArgument("execution_fraction outside [0,1]");
  }
  if (params.witness_threshold < 1) {
    return Status::InvalidArgument("witness_threshold must be >= 1");
  }
  if (params.execution_threshold < 1) {
    return Status::InvalidArgument("execution_threshold must be >= 1");
  }
  if (params.block_tx_limit < 1) {
    return Status::InvalidArgument("block_tx_limit must be >= 1");
  }
  if (params.storage_connections < 1) {
    return Status::InvalidArgument("storage_connections must be >= 1");
  }
  if (params.consensus_backoff_cap_us < 1) {
    return Status::InvalidArgument("consensus_backoff_cap_us must be >= 1");
  }
  if (params.storage_timeout_us < 1) {
    return Status::InvalidArgument("storage_timeout_us must be >= 1");
  }
  if (params.storage_backoff_cap_us < params.storage_timeout_us) {
    return Status::InvalidArgument(
        "storage_backoff_cap_us below storage_timeout_us");
  }
  if (params.storage_failover_strikes < 1) {
    return Status::InvalidArgument("storage_failover_strikes must be >= 1");
  }
  if (params.storage_retry_limit < 1) {
    return Status::InvalidArgument("storage_retry_limit must be >= 1");
  }
  if (params.storage_watchdog_us < 1) {
    return Status::InvalidArgument("storage_watchdog_us must be >= 1");
  }
  if (params.storage_resync_budget < 0) {
    return Status::InvalidArgument("storage_resync_budget must be >= 0");
  }
  if (params.storage_probe_us < 1) {
    return Status::InvalidArgument("storage_probe_us must be >= 1");
  }
  if (params.storage_probe_limit < 0) {
    return Status::InvalidArgument("storage_probe_limit must be >= 0");
  }
  PORYGON_RETURN_IF_ERROR(dissemination.Validate());
  if (dissemination.tree() && oc_size > 64) {
    // CompactVoteCert names voters with a 64-bit committee bitmap.
    return Status::InvalidArgument(
        "tree dissemination requires oc_size <= 64");
  }
  return Status::Ok();
}

uint64_t SystemMetrics::CounterOr0(const char* name,
                                   const obs::Labels& labels) const {
  return registry_ != nullptr ? registry_->CounterValue(name, labels) : 0;
}

obs::HistogramSummary SystemMetrics::SummaryOf(
    const char* name, const obs::Labels& labels) const {
  if (registry_ == nullptr) return {};
  const obs::Histogram* h = registry_->FindHistogram(name, labels);
  return h != nullptr ? h->Summary() : obs::HistogramSummary{};
}

uint64_t SystemMetrics::committed_intra_txs() const {
  return CounterOr0("porygon.committed_txs", {{"scope", "intra"}});
}
uint64_t SystemMetrics::committed_cross_txs() const {
  return CounterOr0("porygon.committed_txs", {{"scope", "cross"}});
}
uint64_t SystemMetrics::discarded_txs() const {
  return CounterOr0("porygon.discarded_txs", {});
}
uint64_t SystemMetrics::failed_txs() const {
  return CounterOr0("porygon.failed_txs", {});
}
uint64_t SystemMetrics::committed_blocks() const {
  return CounterOr0("porygon.committed_blocks", {});
}
uint64_t SystemMetrics::empty_rounds() const {
  return CounterOr0("porygon.empty_rounds", {});
}
uint64_t SystemMetrics::replay_mismatches() const {
  return CounterOr0("porygon.replay_mismatches", {});
}

obs::HistogramSummary SystemMetrics::BlockLatency() const {
  return SummaryOf("porygon.latency_seconds", {{"kind", "block"}});
}
obs::HistogramSummary SystemMetrics::CommitLatency() const {
  return SummaryOf("porygon.latency_seconds", {{"kind", "commit"}});
}
obs::HistogramSummary SystemMetrics::UserLatency() const {
  return SummaryOf("porygon.latency_seconds", {{"kind", "user"}});
}

std::string SystemMetrics::ToJson() const {
  return registry_ != nullptr ? obs::ExportJson(*registry_) : "{}";
}

PorygonSystem::PorygonSystem(const SystemOptions& options)
    : options_(options),
      dissemination_(options.dissemination),
      rng_(options.seed) {
  if (Status valid = options_.Validate(); !valid.ok()) {
    PORYGON_LOG(kError) << "invalid SystemOptions: " << valid.ToString();
    std::abort();
  }

  // Resolve every hot-path instrument up front: actors record through these
  // pointers, never through registry lookups.
  obs_.submitted_txs = metrics_registry_.GetCounter("porygon.submitted_txs");
  obs_.rejected_duplicate = metrics_registry_.GetCounter(
      "porygon.rejected_txs", {{"reason", "duplicate"}});
  obs_.rejected_invalid = metrics_registry_.GetCounter(
      "porygon.rejected_txs", {{"reason", "invalid"}});
  obs_.committed_intra = metrics_registry_.GetCounter(
      "porygon.committed_txs", {{"scope", "intra"}});
  obs_.committed_cross = metrics_registry_.GetCounter(
      "porygon.committed_txs", {{"scope", "cross"}});
  obs_.discarded_txs = metrics_registry_.GetCounter("porygon.discarded_txs");
  obs_.failed_txs = metrics_registry_.GetCounter("porygon.failed_txs");
  obs_.committed_blocks =
      metrics_registry_.GetCounter("porygon.committed_blocks");
  obs_.empty_rounds = metrics_registry_.GetCounter("porygon.empty_rounds");
  obs_.replay_mismatches =
      metrics_registry_.GetCounter("porygon.replay_mismatches");
  obs_.gossip_dedup_hits =
      metrics_registry_.GetCounter("core.gossip_dedup_hits");
  obs_.cached_exec_hits = metrics_registry_.GetCounter("core.exec_cache_hits");
  obs_.cached_exec_misses =
      metrics_registry_.GetCounter("core.exec_cache_misses");
  obs_.block_latency = metrics_registry_.GetHistogram(
      "porygon.latency_seconds", {{"kind", "block"}});
  obs_.commit_latency = metrics_registry_.GetHistogram(
      "porygon.latency_seconds", {{"kind", "commit"}});
  obs_.user_latency = metrics_registry_.GetHistogram(
      "porygon.latency_seconds", {{"kind", "user"}});
  obs_.phase_witness = metrics_registry_.GetHistogram(
      "porygon.phase_seconds", {{"phase", PhaseLabelName(0)}});
  obs_.phase_ordering = metrics_registry_.GetHistogram(
      "porygon.phase_seconds", {{"phase", PhaseLabelName(1)}});
  obs_.phase_execution = metrics_registry_.GetHistogram(
      "porygon.phase_seconds", {{"phase", PhaseLabelName(2)}});
  obs_.phase_commit = metrics_registry_.GetHistogram(
      "porygon.phase_seconds", {{"phase", PhaseLabelName(3)}});
  obs_.consensus.instances =
      metrics_registry_.GetCounter("consensus.instances");
  obs_.consensus.votes_cast =
      metrics_registry_.GetCounter("consensus.votes_cast");
  obs_.consensus.votes_received =
      metrics_registry_.GetCounter("consensus.votes_received");
  obs_.consensus.timeouts = metrics_registry_.GetCounter("consensus.timeouts");
  obs_.consensus.decisions =
      metrics_registry_.GetCounter("consensus.decisions");
  obs_.consensus.registry = &metrics_registry_;
  obs_.rejected_unavailable = metrics_registry_.GetCounter(
      "porygon.rejected_txs", {{"reason", "unavailable"}});
  // Protocol-side hardening: every rejection of a forged/tampered/stale
  // input lands in a reason-labelled series, so adversarial runs show
  // exactly which defenses fired.
  auto rejected = [this](const char* reason) {
    return metrics_registry_.GetCounter("core.rejected", {{"reason", reason}});
  };
  obs_.rejected_bad_witness_sig = rejected("bad_witness_sig");
  obs_.rejected_unknown_witness = rejected("unknown_witness");
  obs_.rejected_unknown_block = rejected("unknown_block");
  obs_.rejected_bad_exec_sig = rejected("bad_exec_sig");
  obs_.rejected_unknown_signer = rejected("unknown_signer");
  obs_.rejected_s_hash_mismatch = rejected("s_hash_mismatch");
  obs_.rejected_bad_state_proof = rejected("bad_state_proof");
  obs_.rejected_stale_round = rejected("stale_round");
  obs_.rejected_bad_shard = rejected("bad_shard");
  obs_.rejected_unlocked_update = rejected("unlocked_update");
  obs_.failover_timeouts =
      metrics_registry_.GetCounter("core.failover.request_timeouts");
  obs_.failover_retransmits =
      metrics_registry_.GetCounter("core.failover.retransmits");
  obs_.failover_rotations =
      metrics_registry_.GetCounter("core.failover.rotations");
  obs_.failover_resyncs =
      metrics_registry_.GetCounter("core.failover.resyncs");
  obs_.failover_readoptions =
      metrics_registry_.GetCounter("core.failover.readoptions");
  obs_.failover_requeued_txs =
      metrics_registry_.GetCounter("core.failover.requeued_txs");
  obs_.storage_rejoins = metrics_registry_.GetCounter("core.storage_rejoins");
  obs_.epochs = metrics_registry_.GetCounter("core.epochs");
  obs_.exec_attestation_gaps =
      metrics_registry_.GetCounter("core.exec_attestation_gaps");
  // Compute-pool fan-out. Task counts are index counts — deterministic for
  // any thread configuration; wall time is volatile (kept off the exports).
  obs_.runtime_exec_tasks =
      metrics_registry_.GetCounter("runtime.tasks", {{"phase", "exec"}});
  obs_.runtime_accounts_tasks =
      metrics_registry_.GetCounter("runtime.tasks", {{"phase", "accounts"}});
  obs_.runtime_verify_tasks =
      metrics_registry_.GetCounter("runtime.tasks", {{"phase", "verify"}});
  obs_.runtime_exec_wall_us =
      metrics_registry_.GetVolatileGauge("runtime.wall_us",
                                         {{"phase", "exec"}});
  obs_.runtime_accounts_wall_us =
      metrics_registry_.GetVolatileGauge("runtime.wall_us",
                                         {{"phase", "accounts"}});
  obs_.runtime_verify_wall_us =
      metrics_registry_.GetVolatileGauge("runtime.wall_us",
                                         {{"phase", "verify"}});
  obs_.runtime_prepare_wall_us =
      metrics_registry_.GetVolatileGauge("runtime.wall_us",
                                         {{"phase", "prepare"}});

  tracer_.Configure(options_.trace, [this] { return events_.now(); });
  events_.EnableMetrics(&metrics_registry_);
  // Stamp PORYGON_LOG lines with virtual time for the life of this system
  // (cleared in the destructor; last-constructed system wins if several
  // coexist, which only affects log cosmetics).
  Logger::SetClock([this] { return sim_seconds(); });

  network_ = std::make_unique<net::SimNetwork>(&events_, rng_.Fork());
  network_->EnableMetrics(
      &metrics_registry_,
      [](uint16_t kind) { return std::string(MsgKindName(kind)); },
      [](uint16_t kind) {
        return std::string(PhaseLabelName(PhaseOfKind(kind)));
      });
  network_->SetLatency(options_.params.latency_us,
                       options_.params.latency_jitter_us);
  // Compute pool for shard execution, batch verification, and storage
  // maintenance (see runtime/task_pool.h for the determinism contract).
  pool_ = std::make_unique<runtime::TaskPool>(
      runtime::TaskPool::ResolveThreads(options_.worker_threads));
  if (options_.use_ed25519) {
    provider_ = std::make_unique<crypto::Ed25519Provider>();
  } else {
    provider_ = std::make_unique<crypto::FastProvider>();
  }
  provider_->SetTaskPool(pool_.get());
  exec_state_ =
      std::make_unique<state::ShardedState>(options_.params.shard_bits);

  adversary_ = std::make_unique<AdversaryController>(
      options_.adversary, &metrics_registry_, &tracer_);

  // --- Nodes --------------------------------------------------------------
  // One Topology materializes every node (storage first, then stateless);
  // the actor loops below attach behavior to the prebuilt ids.
  const net::Topology::Built built =
      net::Topology()
          .WithStorage(options_.num_storage_nodes, options_.params.storage_bps)
          .WithStateless(options_.num_stateless_nodes,
                         options_.params.stateless_bps)
          .Materialize(network_.get());

  // --- Storage nodes ------------------------------------------------------
  const std::vector<AdvStrategy> storage_strategies =
      adversary_->PlaceStorage(options_.num_storage_nodes);
  for (int i = 0; i < options_.num_storage_nodes; ++i) {
    net::NodeId nid = built.storage_ids[static_cast<size_t>(i)];
    auto actor = std::make_unique<StorageNodeActor>(this, i, nid,
                                                    storage_strategies[i]);
    StorageNodeActor* raw = actor.get();
    network_->SetHandler(nid,
                         [raw](const net::Message& m) { raw->HandleMessage(m); });
    storage_nodes_.push_back(std::move(actor));
  }

  // --- Stateless nodes ----------------------------------------------------
  // Every key comes off rng_ before any connection draw: interleaving them
  // would change every seeded deployment.
  std::vector<crypto::KeyPair> keys;
  for (int i = 0; i < options_.num_stateless_nodes; ++i) {
    keys.push_back(provider_->GenerateKeyPair(&rng_));
    stateless_keys_.insert(keys.back().public_key);
  }
  for (int i = 0; i < options_.num_stateless_nodes; ++i) {
    net::NodeId nid = built.stateless_ids[static_cast<size_t>(i)];
    // m random storage connections (with one honest among them whp).
    std::vector<net::NodeId> conns;
    int m = std::min(options_.params.storage_connections,
                     options_.num_storage_nodes);
    std::set<int> chosen;
    while (static_cast<int>(chosen.size()) < m) {
      chosen.insert(
          static_cast<int>(rng_.NextBelow(options_.num_storage_nodes)));
    }
    // Connection order is the draw order (ascending storage index, fixed by
    // the seeded chooser above). No honesty oracle: an unresponsive primary
    // is detected and rotated away from at runtime (storage-link failover).
    for (int s : chosen) conns.push_back(storage_nodes_[s]->net_id());

    auto actor = std::make_unique<StatelessNodeActor>(
        this, i, nid, std::move(keys[i]), std::move(conns));
    StatelessNodeActor* raw = actor.get();
    network_->SetHandler(nid,
                         [raw](const net::Message& m) { raw->HandleMessage(m); });
    stateless_nodes_.push_back(std::move(actor));
  }
  stateless_by_net_id_.assign(network_->node_count(), nullptr);
  for (const auto& node : stateless_nodes_) {
    stateless_by_net_id_[node->net_id()] = node.get();
  }

  // Every copy bound for a stateless node starts its front half on the
  // pool as it leaves the sender. The context is fixed from here on: the
  // key registry above is the last write to anything a front half reads.
  prepare_ctx_.shard_count =
      static_cast<uint32_t>(options_.params.shard_count());
  prepare_ctx_.stateless_keys = &stateless_keys_;
  prepare_ctx_.provider = provider_.get();
  network_->SetPrepareHook(
      [this](const net::Message& m) -> std::shared_ptr<runtime::TaskPool::Job> {
        if (StatelessByNetId(m.to) == nullptr) return nullptr;
        return StartPrepare(m, prepare_ctx_, pool_.get());
      });

  // Genesis sortition seats the first Ordering Committee before any
  // traffic flows (the paper lets the OC outlive rotating ECs, §IV-C2).
  SeatOc(0, crypto::ZeroHash(), 0);
  // Propagation segment: base one-way latency times the store-and-forward
  // hops on the commit chain (round start -> block -> witness upload ->
  // bundle relay x2 -> proposal relay x2 -> vote -> commit).
  critical_path_.SetPropagationModel(options_.params.latency_us, 8);
}

PorygonSystem::~PorygonSystem() {
  // No pool thread may outlive the state and job it writes, but nobody
  // reads the outstanding round any more: shard jobs no worker has started
  // are dropped, and only the running ones are waited for. Workers take
  // shard jobs in shard order, so dropping from the last shard first
  // leaves them nothing new to start while the loop waits.
  if (exec_job_ != nullptr) {
    for (auto it = exec_job_->shard_jobs.rbegin();
         it != exec_job_->shard_jobs.rend(); ++it) {
      runtime::TaskPool::Cancel(it->get());
    }
    exec_job_.reset();
  }
  // The log clock captures this system's event queue; detach before it dies.
  Logger::SetClock(nullptr);
}

const StatelessNodeActor* PorygonSystem::StatelessByNetId(
    net::NodeId id) const {
  return id < stateless_by_net_id_.size() ? stateless_by_net_id_[id]
                                          : nullptr;
}

void PorygonSystem::CreateAccounts(uint64_t count, uint64_t balance) {
  // The launched execution's shard jobs read and write the shards written
  // here.
  SettleExecState();
  // Batched per shard: one Merkle path-rehash pass per shard instead of one
  // per account (million-account benches set up in seconds).
  std::vector<std::vector<std::pair<state::AccountId, state::Account>>> by_shard(
      options_.params.shard_count());
  for (uint64_t i = 0; i < count; ++i) {
    state::AccountId id = next_account_hint_ + i;
    by_shard[exec_state_->ShardOf(id)].emplace_back(
        id, state::Account{balance, 0});
  }
  // Shard subtrees are disjoint, so the per-shard rehash passes fan out on
  // the compute pool (byte-identical roots for any thread count).
  const int shards = options_.params.shard_count();
  const uint64_t wall_before = pool_->wall_us();
  pool_->ParallelFor(static_cast<size_t>(shards), [&](size_t d) {
    exec_state_->PutAccountBatch(static_cast<uint32_t>(d), by_shard[d]);
  });
  obs_.runtime_accounts_tasks->Add(static_cast<uint64_t>(shards));
  obs_.runtime_accounts_wall_us->Add(
      static_cast<double>(pool_->wall_us() - wall_before));
  next_account_hint_ += count;
  funded_supply_ += count * balance;
}

void PorygonSystem::CreateAccountsLazy(uint64_t count, uint64_t balance) {
  // O(1): record the declaration on the canonical state; stateless nodes
  // mirror it into their proof-built PartialState each Execution Phase (the
  // declaration is part of genesis config, not per-round state). Leaves
  // materialize on first write, so roots and absence proofs for untouched
  // ids are identical to a freshly created state. The launched execution's
  // shard jobs read the declaration, so it settles first.
  SettleExecState();
  exec_state_->SetImplicitAccounts(count, balance);
  if (next_account_hint_ <= count) next_account_hint_ = count + 1;
  // The declaration may cover ids CreateAccounts already materialized.
  funded_supply_ = exec_state_->TotalSupply();
}

Status PorygonSystem::AdmitStamped(const tx::Transaction& t,
                                   const tx::TxId& id) {
  if (t.from == 0 || t.to == 0) {
    return Status::InvalidArgument("transaction endpoints must be non-zero");
  }
  if (t.from == t.to) {
    return Status::InvalidArgument("self-transfers are not allowed");
  }
  // Deterministic home storage node by tx id; clients talk to storage
  // directly (client-side bandwidth is out of the model). A crashed home is
  // skipped the way a real client would retry the next endpoint: advance
  // deterministically until a live node is found.
  const int n = static_cast<int>(storage_nodes_.size());
  int home = static_cast<int>(crypto::HashPrefixU64(id) % n);
  int probed = 0;
  while (probed < n &&
         network_->IsCrashed(storage_nodes_[home]->net_id())) {
    home = (home + 1) % n;
    ++probed;
  }
  if (probed == n) {
    return Status::Unavailable("all storage nodes are down");
  }
  if (!storage_nodes_[home]->Admit(t, id)) {
    return Status::AlreadyExists("duplicate transaction");
  }
  if (tracer_.enabled()) TraceSubmit(id);
  return Status::Ok();
}

Status PorygonSystem::SubmitTransaction(tx::Transaction t) {
  return SubmitBatch({std::move(t)}).front();
}

std::vector<Status> PorygonSystem::SubmitBatch(
    const std::vector<tx::Transaction>& batch) {
  std::vector<Status> statuses;
  statuses.reserve(batch.size());
  const uint64_t now = static_cast<uint64_t>(events_.now());
  uint64_t admitted = 0, duplicate = 0, unavailable = 0, invalid = 0;
  // Stamped copies in chunks, each chunk's ids hashed in one batch before
  // its admission loop.
  constexpr size_t kChunk = 256;
  std::vector<tx::Transaction> stamped(std::min(kChunk, batch.size()));
  std::vector<tx::TxId> ids(stamped.size());
  for (size_t base = 0; base < batch.size(); base += kChunk) {
    const size_t n = std::min(kChunk, batch.size() - base);
    for (size_t i = 0; i < n; ++i) {
      stamped[i] = batch[base + i];
      stamped[i].submitted_at = now;
    }
    tx::Transaction::Ids(stamped.data(), n, ids.data());
    for (size_t i = 0; i < n; ++i) {
      Status s = AdmitStamped(stamped[i], ids[i]);
      switch (s.code()) {
        case StatusCode::kOk: ++admitted; break;
        case StatusCode::kAlreadyExists: ++duplicate; break;
        case StatusCode::kUnavailable: ++unavailable; break;
        default: ++invalid; break;
      }
      statuses.push_back(std::move(s));
    }
  }
  // One metrics flush for the whole batch.
  if (admitted) obs_.submitted_txs->Add(admitted);
  if (duplicate) obs_.rejected_duplicate->Add(duplicate);
  if (unavailable) obs_.rejected_unavailable->Add(unavailable);
  if (invalid) obs_.rejected_invalid->Add(invalid);
  return statuses;
}

void PorygonSystem::RecordEquivocationEvidence(
    const consensus::EquivocationEvidence& ev) {
  // Bounded: an adversary re-equivocating every round must not grow this
  // without limit. (Each BA★ instance already dedupes per voter/step/kind,
  // so the cap is generous.)
  constexpr size_t kMaxEvidence = 4096;
  if (equivocation_evidence_.size() >= kMaxEvidence) return;
  equivocation_evidence_.push_back(ev);
}

void PorygonSystem::RegisterAnnounce(const RoleAnnounce& announce) {
  RoundRegistry& reg = registry_[announce.round];
  if (static_cast<Role>(announce.role) == Role::kExecution) {
    auto& members = reg.ec_by_shard[announce.shard];
    if (std::find(members.begin(), members.end(), announce.node_id) ==
        members.end()) {
      members.push_back(announce.node_id);
    }
  } else if (static_cast<Role>(announce.role) == Role::kOrdering) {
    // Epoch-boundary OC announces (per-round EC announces never carry
    // kOrdering — the genesis OC is implicit).
    auto& members = reg.oc_members;
    if (std::find(members.begin(), members.end(), announce.node_id) ==
        members.end()) {
      members.push_back(announce.node_id);
    }
  }
  // Bound memory.
  while (!registry_.empty() && registry_.begin()->first + 6 < announce.round) {
    registry_.erase(registry_.begin());
  }
}

const PorygonSystem::RoundRegistry* PorygonSystem::RegistryFor(
    uint64_t round) const {
  auto it = registry_.find(round);
  return it == registry_.end() ? nullptr : &it->second;
}

std::vector<ExecutionInput> PorygonSystem::BuildExecutionInputs(
    const tx::ProposalBlock& based_on) const {
  const int shards = options_.params.shard_count();
  FlatSet<DigestKey> discarded;
  for (const auto& id : based_on.discarded) discarded.Insert(id);
  std::vector<ExecutionInput> inputs(static_cast<size_t>(shards));
  for (int shard = 0; shard < shards; ++shard) {
    ExecutionInput& input = inputs[shard];
    input.shard = static_cast<uint32_t>(shard);
    if (static_cast<size_t>(shard) < based_on.shard_updates.size()) {
      input.updates = based_on.shard_updates[shard];
    }
    if (static_cast<size_t>(shard) >= based_on.shard_tx_blocks.size()) {
      continue;
    }
    for (const auto& id : based_on.shard_tx_blocks[shard]) {
      auto stored = block_store_.find(IdKey(id));
      if (stored == block_store_.end()) continue;
      const StoredBlock& sb = stored->second;
      for (size_t i = 0; i < sb.block.transactions.size(); ++i) {
        if (!discarded.empty() && discarded.Contains(sb.tx_ids[i])) continue;
        input.txs.push_back(ToAccess(sb.block.transactions[i], sb.tx_ids[i]));
      }
    }
  }
  return inputs;
}

void PorygonSystem::AdvanceExecState(uint64_t exec_round) {
  // Applies the inputs of proposal block B_{exec_round} to the canonical
  // state, recording per-shard results. This equals what every honest ESC
  // computes for that proposal (determinism, Lemma 3). The previous launch
  // settles before the snapshot: its writes precede this round's reads.
  if (exec_round < 1 || exec_round >= chain_.size()) {
    SettleExecState();
    return;
  }
  auto wall_start = runtime::WallClock::now();
  const size_t shards = static_cast<size_t>(options_.params.shard_count());

  // Inputs and the foreign-account snapshot are built here on the loop
  // thread, which goes on mutating block_store_ and chain_ while the bodies
  // run; the snapshot gives every shard's cross-shard pre-execution the same
  // pre-round foreign values. A body reads a foreign account only as the
  // receiver of one of its own cross-shard records (a foreign sender fails
  // before any read, and its own senders are read live), so the snapshot
  // holds the receivers. The inputs read only block_store_ and chain_,
  // which no shard job touches, so they are built while the previous
  // round's jobs finish.
  auto next = std::make_unique<ExecJob>();
  next->exec_round = exec_round;
  next->inputs = BuildExecutionInputs(chain_[exec_round]);
  obs_.runtime_exec_wall_us->Add(
      static_cast<double>(runtime::WallMicrosSince(wall_start)));
  SettleExecState();
  if (exec_cache_.count(exec_round) > 0) return;
  wall_start = runtime::WallClock::now();
  exec_job_ = std::move(next);
  ExecJob* job = exec_job_.get();
  for (const ExecutionInput& input : job->inputs) {
    for (const TxAccess& a : input.txs) {
      if (!a.IsCrossShard(options_.params.shard_bits)) continue;
      job->snapshot[a.to] = exec_state_->GetOrDefault(a.to);
    }
  }
  job->results.resize(shards);

  // Submit one background job per shard and return: each body writes only
  // its own shard's values and subtree (SnapshotForeignView confines
  // writes, and foreign reads come from the job's snapshot) and its own
  // result slot. Nothing on the loop thread reads the canonical state or a
  // result before that shard's job is done: a shard's reader waits for its
  // job alone (SettledShardExec), every other reader for all of them
  // (SettleExecState, through SettledExec and canonical_state).
  job->shard_jobs.reserve(shards);
  for (size_t d = 0; d < shards; ++d) {
    auto shard_job = std::make_shared<runtime::TaskPool::Job>([this, job, d] {
      SnapshotForeignView view(exec_state_.get(), static_cast<uint32_t>(d),
                               &job->snapshot);
      job->results[d] = ShardExecutor::Execute(&view, job->inputs[d]);
    });
    pool_->Submit(shard_job, runtime::TaskPool::JobClass::kBackground);
    job->shard_jobs.push_back(std::move(shard_job));
  }
  obs_.runtime_exec_tasks->Add(static_cast<uint64_t>(shards));
  obs_.runtime_exec_wall_us->Add(
      static_cast<double>(runtime::WallMicrosSince(wall_start)));
}

void PorygonSystem::SettleExecState() {
  if (exec_job_ == nullptr) return;
  const auto wall_start = runtime::WallClock::now();
  for (const auto& shard_job : exec_job_->shard_jobs) {
    pool_->Wait(shard_job.get());
  }
  const std::unique_ptr<ExecJob> job = std::move(exec_job_);

  // The failed ids merge here in shard order, so the cache is identical for
  // any thread count.
  CachedExec cache;
  for (const ExecutionResult& r : job->results) {
    for (const FailedTx& f : r.failed) cache.failed_ids.Insert(f.id);
  }
  cache.results = std::move(job->results);
  const uint64_t exec_round = job->exec_round;
  exec_cache_[exec_round] = std::move(cache);
  // Bound memory.
  while (!exec_cache_.empty() &&
         exec_cache_.begin()->first + 8 < exec_round) {
    exec_cache_.erase(exec_cache_.begin());
  }
  obs_.runtime_exec_wall_us->Add(
      static_cast<double>(runtime::WallMicrosSince(wall_start)));
}

const state::ShardedState& PorygonSystem::canonical_state() {
  SettleExecState();
  return *exec_state_;
}

const PorygonSystem::CachedExec* PorygonSystem::SettledExec(
    uint64_t exec_round) {
  // Launches run in exec-round order and each settles its predecessor, so
  // a launch past `exec_round` means that round is already cached (or was
  // never executed): only a reader of the launched round or a later one
  // settles.
  if (exec_job_ != nullptr && exec_job_->exec_round <= exec_round) {
    SettleExecState();
  }
  auto it = exec_cache_.find(exec_round);
  return it == exec_cache_.end() ? nullptr : &it->second;
}

const ExecutionResult* PorygonSystem::SettledShardExec(uint64_t exec_round,
                                                       uint32_t shard) {
  if (exec_job_ == nullptr || exec_job_->exec_round != exec_round) {
    const CachedExec* cached = SettledExec(exec_round);
    if (cached == nullptr || shard >= cached->results.size()) return nullptr;
    return &cached->results[shard];
  }
  if (shard >= exec_job_->shard_jobs.size()) return nullptr;
  const auto wall_start = runtime::WallClock::now();
  pool_->Wait(exec_job_->shard_jobs[shard].get());
  obs_.runtime_exec_wall_us->Add(
      static_cast<double>(runtime::WallMicrosSince(wall_start)));
  // The settle moves the results vector whole, so the slot outlives it.
  return &exec_job_->results[shard];
}

void PorygonSystem::ReconfigureEpoch(uint64_t round) {
  // The §III-B committee re-formation: a fresh draw over the committed tip,
  // with adversary placement re-dealt per epoch ordinal.
  const std::vector<Assignment> draws =
      SeatOc(round, tip_.hash, round / options_.epoch_length);
  // Every member of the new committee re-announces kOrdering over the
  // network: storage nodes verify the sortition proof against the same tip
  // and record the membership (and the modeled wire traffic lands in this
  // round's critical-path window).
  for (size_t i = 0; i < draws.size(); ++i) {
    StatelessNodeActor* node = stateless_nodes_[i].get();
    if (node->in_oc()) node->Announce(round, draws[i]);
  }
  obs_.epochs->Increment();
}

std::vector<Assignment> PorygonSystem::SeatOc(uint64_t round,
                                              const crypto::Hash256& tip,
                                              uint64_t epoch) {
  // Pure function of (tip, node keys, adversary spec): nothing is drawn
  // from rng_, so epochs perturb no other randomness and exports stay
  // byte-identical across thread counts.
  const size_t n = stateless_nodes_.size();
  std::vector<Assignment> draws(n);
  std::vector<int> order(n);
  for (size_t i = 0; i < n; ++i) {
    draws[i] = stateless_nodes_[i]->DrawOrdering(round, tip);
    order[i] = static_cast<int>(i);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return draws[a].sortition < draws[b].sortition;
  });
  const std::set<int> members(order.begin(),
                              order.begin() + options_.oc_size);

  // Leader: the lowest draw. Chosen before adversary placement and exempt
  // from it, so the honest-leader proposal stream — and thus the committed
  // chain — of an adversarial run is byte-comparable to the adversary-free
  // run with the same seed. Each epoch re-deals the same α budget.
  const int leader_idx = order[0];
  const std::vector<AdvStrategy> strategies =
      adversary_->PlaceStateless(order, options_.oc_size, leader_idx, epoch);
  for (size_t i = 0; i < n; ++i) {
    stateless_nodes_[i]->SetStrategy(strategies[i]);
  }

  // Leadership hand-off, before membership churn retires the outgoing
  // leader's pools: its coordinator carries the locks of batches whose
  // update list is not yet built across the boundary, and its bundle /
  // exec-result pools cover batches witnessed under the previous committee
  // that the incoming leader must still list (pipeline depth 3).
  StatelessNodeActor* new_leader = stateless_nodes_[leader_idx].get();
  if (new_leader->net_id() != oc_.leader) {
    StatelessNodeActor* outgoing = nullptr;  // None at genesis.
    for (auto& node : stateless_nodes_) {
      if (node->net_id() == oc_.leader) outgoing = node.get();
    }
    new_leader->TakeLeadFrom(outgoing, round);
  }

  // Membership churn. Retiring members shed their OC scratch (their
  // in_oc_ guards then drop stale committee traffic); joiners get fresh
  // scratch. Then the roster in ascending node order, with the
  // bandwidth-ledger roles: the OC leader's links are where the fan-in
  // bottleneck lives, so it gets its own role; storage and non-OC
  // stateless keep their class names. Roles refine the net.* counter
  // labels and name the link windows the critical-path analyzer
  // attributes ("oc_leader.downlink").
  oc_.leader = new_leader->net_id();
  oc_.keys.clear();
  oc_.ids.clear();
  for (size_t i = 0; i < n; ++i) {
    StatelessNodeActor* node = stateless_nodes_[i].get();
    const bool member = members.count(static_cast<int>(i)) > 0;
    if (node->in_oc() && !member) {
      node->RetireFromOc();
      network_->SetNodeRole(node->net_id(), "stateless");
    } else if (!node->in_oc() && member) {
      node->JoinOc();
    }
    if (!member) continue;
    oc_.keys.push_back(node->public_key());
    oc_.ids.push_back(node->net_id());
    network_->SetNodeRole(node->net_id(),
                          node == new_leader ? "oc_leader" : "oc");
  }
  return draws;
}

void PorygonSystem::StartRound(uint64_t round) {
  round_start_times_[round] = events_.now();
  critical_path_.BeginRound(round, events_.now());
  // Snapshot the bandwidth ledger so the commit can difference the window,
  // and re-base the windowed high-watermarks (event-queue depth, per-role
  // in-flight) to this round.
  {
    std::vector<net::LinkActivity> baseline(network_->node_count());
    for (net::NodeId n = 0; n < network_->node_count(); ++n) {
      baseline[n] = network_->ActivityFor(n);
    }
    window_baseline_[round] = std::move(baseline);
  }
  events_.ResetDepthHighWatermark();
  network_->ResetInflightHighWatermarks();
  if (tracer_.enabled()) {
    // Open this round's lane: a "round" span covering start -> commit, with
    // the witness phase as its first child (closed by RecordWitnessReached).
    obs::TraceContext lane = tracer_.RoundContext(round);
    round_spans_[round] = tracer_.BeginSpan(lane, "round", "system");
    witness_spans_[round] =
        tracer_.BeginSpan(RoundLane(round), "witness", "system");
  }
  // Epoch boundary: re-draw the committee before any of this round's work
  // is distributed (the new OC must be in place for witness bundles and
  // proposals of round `round`), and after the ledger snapshot above so
  // the re-announce traffic is attributed to this round's window.
  if (options_.epoch_length > 0 && round > 0 &&
      round % options_.epoch_length == 0) {
    ReconfigureEpoch(round);
  }
  // Faithful mode advances the canonical state two rounds behind, so state
  // requests during this round serve the snapshot (and the proofs against
  // B_{round-2}'s roots) the executing ESC must see. The execution runs on
  // the pool behind this round's event-loop work and settles at the first
  // read. Fast mode launched B_{round-1}'s execution at its commit.
  if (options_.faithful_execution && round >= 2) AdvanceExecState(round - 2);
  // Label this round's base witness-relay election "relay" so the
  // bandwidth ledger and critical-path reports attribute their links
  // separately (observability only — senders re-run the election with
  // strike/crash skips, so a degraded round may route past these nodes).
  // Direct mode elects no relay and labels nothing.
  for (net::NodeId prev : labeled_relays_) {
    // An epoch boundary may have just promoted last round's relay into the
    // OC; only reset nodes still wearing the relay label.
    if (network_->RoleName(prev) == "relay") {
      network_->SetNodeRole(prev, "stateless");
    }
  }
  labeled_relays_.clear();
  if (const RoundRegistry* reg = RegistryFor(round - 1)) {
    for (const auto& [shard, members] : reg->ec_by_shard) {
      net::NodeId relay = dissemination_.WitnessRelay(members, round - 1);
      // Never clobber the OC labels — an OC member moonlighting as a relay
      // keeps its (rarer, more load-bearing) committee role.
      if (relay == net::kInvalidNode ||
          network_->RoleName(relay) != "stateless") {
        continue;
      }
      network_->SetNodeRole(relay, "relay");
      labeled_relays_.push_back(relay);
    }
  }
  for (auto& storage : storage_nodes_) {
    // A crashed storage node neither announces the round nor packages
    // blocks; it catches up through OnRejoin when recovered.
    if (network_->IsCrashed(storage->net_id())) continue;
    storage->OnRoundStart(round);
  }
}

void PorygonSystem::OnBlockCommitted(const tx::ProposalBlock& block,
                                     net::SimTime when) {
  if (commit_times_.count(block.round) > 0) return;  // First receipt wins.
  commit_times_[block.round] = when;
  if (chain_.size() != block.round) {
    // Out-of-order commit (should not happen with a single leader).
    PORYGON_LOG(kWarn) << "out-of-order commit of round " << block.round;
    return;
  }
  chain_.push_back(block);
  tip_ = TipHeader::Of(block);
  ++committed_rounds_;
  obs_.committed_blocks->Increment();

  bool empty = true;
  for (const auto& list : block.shard_tx_blocks) {
    if (!list.empty()) empty = false;
  }
  if (empty) obs_.empty_rounds->Increment();

  if (block.round >= 1 && commit_times_.count(block.round - 1) > 0) {
    obs_.block_latency->Observe(
        net::ToSeconds(when - commit_times_[block.round - 1]));
  }
  obs_.discarded_txs->Add(block.discarded.size());

  // Commit phase: the leader's ordering decision to the block landing back
  // at storage.
  auto decided = decision_times_.find(block.round);
  if (decided != decision_times_.end()) {
    obs_.phase_commit->Observe(net::ToSeconds(when - decided->second));
    if (tracer_.enabled()) {
      tracer_.RecordSpan(RoundLane(block.round), "commit", "system",
                         decided->second, when);
      // The Multi-Shard Update of batch round-2 is the list U this block
      // carries, applied once when the block executes: on the batch's
      // lane, from the decision that fixes U in the chain to the commit.
      const auto& u = block.shard_updates;
      if (std::any_of(u.begin(), u.end(),
                      [](const auto& list) { return !list.empty(); })) {
        tracer_.RecordSpan(tracer_.RoundContext(block.round - 2), "msu", "oc",
                           decided->second, when);
      }
    }
    decision_times_.erase(decided);
  }
  // Close this round's lane.
  if (auto rs = round_spans_.find(block.round); rs != round_spans_.end()) {
    tracer_.EndSpan(rs->second);
    round_spans_.erase(rs);
  }

  // Critical-path decomposition: difference the ledger against the
  // round-start snapshot, attribute the window, publish utilizations.
  if (auto base = window_baseline_.find(block.round);
      base != window_baseline_.end()) {
    const obs::RoundReport* report = critical_path_.CommitRound(
        block.round, when, LinkWindowsSince(base->second));
    window_baseline_.erase(base);
    if (report != nullptr) {
      for (size_t i = 0; i < report->links.size(); ++i) {
        const uint32_t util_pm = report->link_util_pm[i];
        UtilGauge(report->links[i].link)->Set(static_cast<double>(util_pm));
        if (tracer_.enabled()) {
          tracer_.RecordCounterSample("util_pm." + report->links[i].link,
                                      static_cast<int64_t>(util_pm));
        }
      }
    }
  }
  // Bound memory: drop snapshots of rounds that will never commit in order.
  while (!window_baseline_.empty() &&
         window_baseline_.begin()->first + 8 < block.round) {
    window_baseline_.erase(window_baseline_.begin());
  }

  // Replay verification: committed roots must match the canonical replay
  // of the inputs that produced them (exec round = block.round - 2).
  if (block.round >= 2) {
    if (const CachedExec* cached = SettledExec(block.round - 2)) {
      for (size_t d = 0; d < block.shard_roots.size() &&
                         d < cached->results.size();
           ++d) {
        // A shard without accepted results keeps its previous root, which
        // is also consistent; only flag mismatches on changed roots.
        const auto& prev_roots = chain_[block.round - 1].shard_roots;
        bool unchanged = d < prev_roots.size() &&
                         block.shard_roots[d] == prev_roots[d];
        if (!unchanged &&
            block.shard_roots[d] != cached->results[d].shard_root) {
          obs_.replay_mismatches->Increment();
        }
      }
    }
  }

  AccountCommittedBatch(block);

  // Prune transaction blocks that can no longer be referenced (metrics look
  // back at most 4 rounds; executions at most 2), and with them the storage
  // nodes' witness bookkeeping of those blocks.
  if (block.round > 8) {
    for (auto it = block_store_.begin(); it != block_store_.end();) {
      if (it->second.batch_round + 8 < block.round) {
        it = block_store_.erase(it);
      } else {
        ++it;
      }
    }
    for (auto& storage : storage_nodes_) storage->PruneWitnessBookkeeping();
  }

  MaybeScheduleNextRound();
  // Fast mode: B_r's execution starts now rather than at the next round
  // start, so it runs behind the reconfiguration interval's host work (and
  // behind whatever the caller does between Run() calls). Its results settle
  // at the first reader of round r: the ESCs adopting them next round.
  if (!options_.faithful_execution) AdvanceExecState(block.round);
}

void PorygonSystem::MaybeScheduleNextRound() {
  // Schedule the next round after the reconfiguration interval plus jitter
  // ("a fixed interval of 2 seconds plus random numerical values", §VI).
  if (round_scheduled_) return;
  if (static_cast<int>(committed_rounds_) >= target_rounds_) return;
  if (chain_.empty()) return;
  round_scheduled_ = true;
  net::SimTime jitter = static_cast<net::SimTime>(
      rng_.NextBelow(options_.params.reconfig_interval_us / 10 + 1));
  uint64_t next = chain_.back().round + 1;
  events_.ScheduleAfter(options_.params.reconfig_interval_us + jitter,
                        [this, next] {
                          round_scheduled_ = false;
                          StartRound(next);
                        });
}

void PorygonSystem::AccountCommittedBatch(const tx::ProposalBlock& block) {
  const uint64_t r = block.round;
  const double now_s = net::ToSeconds(events_.now());
  const bool tracing = tracer_.enabled();

  // Intra-shard transactions of the blocks listed in L_{r-2} finalize now
  // (their execution roots are committed in B_r): batch witnessed at round
  // r-3, commit at r (+3 rounds, §IV-D2).
  auto account_list = [&](const tx::ProposalBlock& listing, bool want_cross,
                          uint64_t exec_round) {
    FlatSet<DigestKey> discarded;
    for (const auto& id : listing.discarded) discarded.Insert(id);
    const FlatSet<DigestKey>* failed = nullptr;
    const CachedExec* cached = SettledExec(exec_round);
    if (cached != nullptr && !cached->failed_ids.empty()) {
      failed = &cached->failed_ids;
    }

    for (const auto& shard_list : listing.shard_tx_blocks) {
      for (const auto& block_id : shard_list) {
        auto stored = block_store_.find(IdKey(block_id));
        if (stored == block_store_.end()) continue;
        const StoredBlock& sb = stored->second;
        for (size_t i = 0; i < sb.block.transactions.size(); ++i) {
          const tx::Transaction& t = sb.block.transactions[i];
          if (t.IsCrossShard(options_.params.shard_bits) != want_cross) {
            continue;
          }
          // The common no-discard, no-failure round never reads the ids.
          if (!discarded.empty() && discarded.Contains(sb.tx_ids[i])) {
            continue;
          }
          if (failed != nullptr && failed->Contains(sb.tx_ids[i])) {
            obs_.failed_txs->Increment();
            if (tracing) {
              TraceTxFinal(IdKey(sb.tx_ids[i]), want_cross, true,
                           listing.round);
            }
            continue;
          }
          if (want_cross) {
            obs_.committed_cross->Increment();
          } else {
            obs_.committed_intra->Increment();
          }
          if (tracing) {
            TraceTxFinal(IdKey(sb.tx_ids[i]), want_cross, false,
                         listing.round);
          }
          obs_.user_latency->Observe(
              now_s - net::ToSeconds(static_cast<net::SimTime>(
                          t.submitted_at)));
          auto ws = round_start_times_.find(sb.block.header.round_created);
          if (ws != round_start_times_.end()) {
            obs_.commit_latency->Observe(now_s - net::ToSeconds(ws->second));
          }
        }
      }
    }
  };

  if (r >= 2 && chain_.size() > r - 2) {
    account_list(chain_[r - 2], /*want_cross=*/false, /*exec_round=*/r - 2);
  }
  if (r >= 4 && chain_.size() > r - 4) {
    account_list(chain_[r - 4], /*want_cross=*/true, /*exec_round=*/r - 4);
  }
  // Listings older than r-4 have had both their intra and cross commits.
  while (!traced_by_listing_.empty() &&
         traced_by_listing_.begin()->first + 4 < r) {
    traced_by_listing_.erase(traced_by_listing_.begin());
  }
}

void PorygonSystem::Run(int rounds, net::SimTime max_sim_time) {
  if (!started_) {
    started_ = true;
    // Seal genesis with the funded state.
    tx::ProposalBlock genesis;
    genesis.shard_tx_blocks.assign(options_.params.shard_count(), {});
    genesis.shard_updates.assign(options_.params.shard_count(), {});
    for (int d = 0; d < options_.params.shard_count(); ++d) {
      genesis.shard_roots.push_back(exec_state_->ShardRoot(d));
    }
    genesis.state_root = exec_state_->GlobalRoot();
    genesis.ordering_threshold = options_.params.ordering_fraction;
    genesis.execution_threshold = options_.params.execution_fraction;
    tip_ = TipHeader::Of(genesis);
    chain_.push_back(std::move(genesis));
    commit_times_[0] = events_.now();
    round_scheduled_ = true;
    events_.ScheduleAfter(options_.params.reconfig_interval_us, [this] {
      round_scheduled_ = false;
      StartRound(1);
    });
  }
  target_rounds_ = static_cast<int>(committed_rounds_) + rounds;
  MaybeScheduleNextRound();

  while (static_cast<int>(committed_rounds_) < target_rounds_ &&
         events_.now() <= max_sim_time) {
    if (!events_.RunNext()) break;  // Queue drained: the protocol stalled.
  }
  // The last commit's execution may still be running: it settles at its
  // first reader, canonical_state() included, not here.
}

Status PorygonSystem::InjectFaults(const net::FaultPlan& plan) {
  if (fault_injector_ != nullptr) {
    return Status::FailedPrecondition("a fault plan is already active");
  }
  if (plan.empty()) {
    return Status::InvalidArgument("fault plan is empty");
  }
  fault_injector_ = std::make_unique<net::FaultInjector>(
      plan, network_.get(), &metrics_registry_, &tracer_,
      [this](net::NodeId node, bool crashed) {
        if (crashed) {
          network_->SetCrashed(node, true);
        } else {
          RecoverNode(node);
        }
      });
  return Status::Ok();
}

void PorygonSystem::RecoverNode(net::NodeId node) {
  network_->SetCrashed(node, false);
  // Storage nodes rejoin: fresh per-round bookkeeping plus an immediate
  // catch-up on the committed tip (the shared block store / canonical state
  // stand in for its durable replica, which survived the crash).
  for (auto& storage : storage_nodes_) {
    if (storage->net_id() != node) continue;
    obs_.storage_rejoins->Increment();
    const uint64_t tip = chain_.empty() ? 0 : chain_.back().round;
    storage->OnRejoin(tip + 1);
    break;
  }
}

size_t PorygonSystem::RegisteredOcMembers(uint64_t round) const {
  auto it = registry_.find(round);
  return it == registry_.end() ? 0 : it->second.oc_members.size();
}

PorygonSystem::TxIdAudit PorygonSystem::AuditStoredTxIds() const {
  TxIdAudit audit;
  for (const auto& [key, sb] : block_store_) {
    ++audit.blocks;
    const auto& txs = sb.block.transactions;
    bool stale = sb.tx_ids.size() != txs.size();
    for (size_t i = 0; !stale && i < txs.size(); ++i) {
      stale = sb.tx_ids[i] != txs[i].Id();
    }
    if (stale) ++audit.stale;
  }
  return audit;
}

std::vector<obs::LinkWindow> PorygonSystem::LinkWindowsSince(
    const std::vector<net::LinkActivity>& baseline) const {
  // One window per role and direction, carrying the per-node mean of that
  // role. The mean — not the max — is the committee's representative link:
  // quorum thresholds mask straggling members, and max-of-N inflates
  // multi-node roles by pure order statistics, which would let a random
  // committee member outrank the leader's structurally identical link.
  // Singleton roles (oc_leader) pass through exactly. Integer division
  // keeps the windows byte-deterministic.
  struct RoleSum {
    obs::LinkWindow sum;
    uint64_t nodes = 0;
  };
  std::map<std::string, RoleSum> sums;
  const auto add = [&sums](obs::LinkWindow lw) {
    RoleSum& rs = sums[lw.link];
    rs.sum.link = lw.link;
    rs.sum.bytes += lw.bytes;
    rs.sum.queue_us += lw.queue_us;
    rs.sum.busy_us += lw.busy_us;
    ++rs.nodes;
  };
  const size_t n = std::min(baseline.size(), network_->node_count());
  for (net::NodeId nid = 0; nid < n; ++nid) {
    const net::LinkActivity& cur = network_->ActivityFor(nid);
    const net::LinkActivity& base = baseline[nid];
    const std::string& role = network_->RoleName(nid);
    add(obs::LinkWindow{role + ".uplink", cur.bytes_up - base.bytes_up,
                        cur.queue_up_us - base.queue_up_us,
                        cur.busy_up_us - base.busy_up_us});
    add(obs::LinkWindow{role + ".downlink", cur.bytes_down - base.bytes_down,
                        cur.queue_down_us - base.queue_down_us,
                        cur.busy_down_us - base.busy_down_us});
  }
  std::vector<obs::LinkWindow> out;
  out.reserve(sums.size());
  for (auto& [link, rs] : sums) {
    (void)link;
    obs::LinkWindow lw = std::move(rs.sum);
    lw.bytes /= rs.nodes;
    lw.queue_us /= static_cast<net::SimTime>(rs.nodes);
    lw.busy_us /= static_cast<net::SimTime>(rs.nodes);
    out.push_back(std::move(lw));
  }
  return out;
}

obs::Gauge* PorygonSystem::UtilGauge(const std::string& link) {
  auto it = util_gauges_.find(link);
  if (it != util_gauges_.end()) return it->second;
  obs::Gauge* g = metrics_registry_.GetGauge("net.link_utilization_pm",
                                             {{"link", link}});
  util_gauges_.emplace(link, g);
  return g;
}

void PorygonSystem::RecordWitnessReached(uint64_t batch_round) {
  // One sample per batch round: the first block of the batch to cross Tw
  // marks the end of the witness phase for that round.
  if (!witness_recorded_.insert(batch_round).second) return;
  critical_path_.MarkWitnessEnd(batch_round, events_.now());
  if (auto ws = witness_spans_.find(batch_round); ws != witness_spans_.end()) {
    tracer_.EndSpan(ws->second);
    witness_spans_.erase(ws);
  }
  auto started = round_start_times_.find(batch_round);
  if (started == round_start_times_.end()) return;
  obs_.phase_witness->Observe(
      net::ToSeconds(events_.now() - started->second));
  // Bound memory.
  while (!witness_recorded_.empty() &&
         *witness_recorded_.begin() + 16 < batch_round) {
    witness_recorded_.erase(witness_recorded_.begin());
  }
}

void PorygonSystem::RecordOrderingDecision(uint64_t round) {
  if (decision_times_.count(round) > 0) return;
  decision_times_[round] = events_.now();
  critical_path_.MarkDecision(round, events_.now());
  auto started = round_start_times_.find(round);
  if (started != round_start_times_.end()) {
    obs_.phase_ordering->Observe(
        net::ToSeconds(events_.now() - started->second));
    if (tracer_.enabled()) {
      tracer_.RecordSpan(RoundLane(round), "ordering", "system",
                         started->second, events_.now());
    }
  }
}

void PorygonSystem::NoteExecPhaseStart(uint64_t exec_round) {
  // The first storage node to fan out exec requests starts the clock;
  // NoteExecPhaseEnd observes the elapsed time into the execution histogram.
  exec_starts_s_.try_emplace(exec_round, sim_seconds());
  critical_path_.MarkExecStart(exec_round, events_.now());
  if (tracer_.enabled() && exec_spans_.count(exec_round) == 0) {
    exec_spans_[exec_round] =
        tracer_.BeginSpan(RoundLane(exec_round), "execution", "system");
  }
}

void PorygonSystem::NoteExecPhaseEnd(uint64_t exec_round) {
  auto it = exec_starts_s_.find(exec_round);
  if (it == exec_starts_s_.end()) return;
  critical_path_.MarkExecEnd(exec_round, events_.now());
  obs_.phase_execution->Observe(sim_seconds() - it->second);
  exec_starts_s_.erase(it);
  if (auto es = exec_spans_.find(exec_round); es != exec_spans_.end()) {
    tracer_.EndSpan(es->second);
    exec_spans_.erase(es);
  }
  if (tracer_.enabled()) TraceListingExecuted(exec_round);
}

obs::TraceContext PorygonSystem::RoundLane(uint64_t round) {
  obs::TraceContext lane = tracer_.RoundContext(round);
  auto it = round_spans_.find(round);
  if (it != round_spans_.end()) lane.parent_span = it->second;
  return lane;
}

void PorygonSystem::TraceSubmit(const tx::TxId& id) {
  obs::TraceContext ctx = tracer_.NewTransactionTrace();
  if (!ctx.active()) return;  // Sampling budget exhausted.
  TxTraceState st;
  st.ctx = ctx;
  st.root_span = tracer_.BeginSpan(ctx, "tx", "client");
  st.prev_end = events_.now();
  traced_txs_[IdKey(id)] = std::move(st);
}

void PorygonSystem::TraceTxPackaged(const tx::TxId& id,
                                    const std::string& node) {
  auto it = traced_txs_.find(IdKey(id));
  if (it == traced_txs_.end() || it->second.stage != 0) return;
  TxTraceState& st = it->second;
  const net::SimTime now = events_.now();
  tracer_.RecordSpan(obs::Tracer::ChildOf(st.ctx, st.root_span), "submit",
                     node, st.prev_end, now);
  st.prev_end = now;
  st.stage = 1;
}

void PorygonSystem::TraceBlockWitnessed(const tx::BlockId& block_id,
                                        const std::string& node) {
  if (traced_txs_.empty()) return;
  auto stored = block_store_.find(IdKey(block_id));
  if (stored == block_store_.end()) return;
  const net::SimTime now = events_.now();
  for (const auto& id : stored->second.tx_ids) {
    auto it = traced_txs_.find(IdKey(id));
    if (it == traced_txs_.end() || it->second.stage != 1) continue;
    TxTraceState& st = it->second;
    tracer_.RecordSpan(obs::Tracer::ChildOf(st.ctx, st.root_span), "witness",
                       node, st.prev_end, now);
    st.prev_end = now;
    st.stage = 2;
  }
}

void PorygonSystem::TraceTxOrdered(const tx::TxId& id, uint64_t listing_round,
                                   bool accepted, const std::string& node) {
  std::string tid = IdKey(id);
  auto it = traced_txs_.find(tid);
  if (it == traced_txs_.end()) return;
  TxTraceState& st = it->second;
  const net::SimTime now = events_.now();
  obs::TraceContext child = obs::Tracer::ChildOf(st.ctx, st.root_span);
  if (!accepted) {
    // Conflict-discarded: terminal for this attempt (clients resubmit).
    tracer_.RecordSpan(child, "discarded", node, st.prev_end, now);
    tracer_.EndSpan(st.root_span);
    traced_txs_.erase(it);
    return;
  }
  if (st.stage != 2) return;
  tracer_.RecordSpan(child, "ordering", node, st.prev_end, now);
  st.prev_end = now;
  st.stage = 3;
  traced_by_listing_[listing_round].push_back(std::move(tid));
}

void PorygonSystem::TraceListingExecuted(uint64_t exec_round) {
  auto listed = traced_by_listing_.find(exec_round);
  if (listed == traced_by_listing_.end()) return;
  const net::SimTime now = events_.now();
  for (const std::string& tid : listed->second) {
    auto it = traced_txs_.find(tid);
    if (it == traced_txs_.end() || it->second.stage != 3) continue;
    TxTraceState& st = it->second;
    tracer_.RecordSpan(obs::Tracer::ChildOf(st.ctx, st.root_span), "sse",
                       "oc", st.prev_end, now);
    st.prev_end = now;
    st.stage = 4;
  }
}

void PorygonSystem::TraceTxFinal(const std::string& tid, bool cross,
                                 bool failed, uint64_t listing_round) {
  auto it = traced_txs_.find(tid);
  if (it == traced_txs_.end()) return;
  TxTraceState& st = it->second;
  const net::SimTime now = events_.now();
  obs::TraceContext child = obs::Tracer::ChildOf(st.ctx, st.root_span);
  if (failed) {
    tracer_.RecordSpan(child, "failed", "oc", st.prev_end, now);
  } else if (cross) {
    // The Multi-Shard Update ships with proposal L+2; its commit marks the
    // hand-off from "msu" to final commit certification.
    net::SimTime msu_end = now;
    auto shipped = commit_times_.find(listing_round + 2);
    if (shipped != commit_times_.end() && shipped->second > st.prev_end &&
        shipped->second < now) {
      msu_end = shipped->second;
    }
    tracer_.RecordSpan(child, "msu", "oc", st.prev_end, msu_end);
    tracer_.RecordSpan(child, "commit", "oc", msu_end, now);
  } else {
    tracer_.RecordSpan(child, "commit", "oc", st.prev_end, now);
  }
  tracer_.EndSpan(st.root_span);
  traced_txs_.erase(it);
}

net::SimTime PorygonSystem::DrawSessionEnd() {
  return events_.now() +
         net::FromSeconds(rng_.NextExponential(options_.mean_session_s));
}

std::map<int, double> PorygonSystem::StatelessPhaseTraffic() const {
  // Derived entirely from the registry's labelled net counters: sum the
  // stateless class's sent+received bytes per phase, averaged per node per
  // committed round.
  std::map<int, double> per_phase;
  auto phase_of_label = [](const std::string& label) {
    for (int p = -1; p <= 3; ++p) {
      if (label == PhaseLabelName(p)) return p;
    }
    return -1;
  };
  auto accumulate = [&](const std::string& name, const obs::Labels& labels,
                        const obs::Counter& counter) {
    if (name != "net.sent_bytes" && name != "net.recv_bytes") return;
    std::string node_class, phase_label;
    for (const auto& [key, value] : labels) {
      if (key == "class") node_class = value;
      if (key == "phase") phase_label = value;
    }
    if (node_class != "stateless") return;
    per_phase[phase_of_label(phase_label)] +=
        static_cast<double>(counter.value());
  };
  metrics_registry_.VisitCounters(accumulate);

  uint64_t rounds = committed_rounds_ > 0 ? committed_rounds_ : 1;
  size_t nodes = stateless_nodes_.size() > 0 ? stateless_nodes_.size() : 1;
  for (auto& [phase, bytes] : per_phase) {
    bytes /= static_cast<double>(rounds) * static_cast<double>(nodes);
  }
  return per_phase;
}

}  // namespace porygon::core
