#include <algorithm>
#include <cstring>

#include "common/erasure.h"
#include "common/log.h"
#include "common/flat_map.h"
#include "common/radix_sort.h"
#include "core/system.h"
#include "crypto/sha256.h"
#include "state/view.h"

namespace porygon::core {

namespace {
// Merges `block` into `merged` by block id. A block already held gains the
// proofs of witnesses it lacks: cross-batch witnesses may arrive via
// different storage nodes or relays.
void MergeWitnessed(std::map<std::string, WitnessedBlock>* merged,
                    WitnessedBlock block) {
  std::string key = IdKey(block.header.Id());
  auto it = merged->find(key);
  if (it == merged->end()) {
    merged->emplace(std::move(key), std::move(block));
    return;
  }
  std::set<crypto::PublicKey> witnesses;
  for (const auto& p : it->second.proofs) witnesses.insert(p.witness);
  for (const auto& p : block.proofs) {
    if (witnesses.insert(p.witness).second) it->second.proofs.push_back(p);
  }
}
}  // namespace

StatelessNodeActor::StatelessNodeActor(PorygonSystem* system, int index,
                                       net::NodeId net_id,
                                       crypto::KeyPair keys,
                                       std::vector<net::NodeId> storages)
    : system_(system),
      obs_(system->instruments()),
      index_(index),
      net_id_(net_id),
      keys_(std::move(keys)),
      storages_(std::move(storages)) {
  heard_at_.assign(storages_.size(), 0);
  // Arm the round watchdog from birth: a node whose very first NewRound is
  // lost would otherwise never learn a round started and stay dark forever
  // (the watchdog was only re-armed by OnNewRound). Budgeted, so the chain
  // still dies off in a genuinely stalled system and the queue can drain.
  resync_budget_ = system_->params().storage_resync_budget;
  watchdog_armed_ = true;
  system_->events()->ScheduleAfter(system_->params().storage_watchdog_us,
                                   [this] { OnWatchdog(); });
}

uint64_t StatelessNodeActor::StorageFootprintBytes() const {
  // Latest proposal block + committee public keys + transiently-held
  // witnessed blocks (pruned after their execution round). The block is
  // counted at its encoded size, which its header carries.
  uint64_t bytes = tip_.encoded_size;
  bytes += system_->oc().keys.size() * 32;
  bytes += 32 * system_->num_stateless_nodes();  // Identity registry.
  for (const auto& [key, held] : held_blocks_) {
    bytes += held.header.WireSize() +
             held.txs.size() * tx::Transaction::kWireSize;
  }
  return bytes;
}

void StatelessNodeActor::SendToPrimary(uint16_t kind, SharedBytes payload,
                                       size_t wire_size,
                                       obs::TraceContext trace) {
  if (storages_.empty()) return;
  const size_t wire = wire_size != 0 ? wire_size : payload.size();
  // Storage-bound protocol traffic rides the failover health model: a
  // deadline fires if the primary stays silent, eventually rotating it.
  if (kind == kMsgRelay || kind == kMsgStateRequest) {
    TrackRequest(kind, payload, wire, trace);
  }
  system_->network()->Send(net_id_, storages_[primary_idx_], kind,
                           std::move(payload), wire, trace);
}

// --------------------------------------------------------------------------
// Storage-link failover
// --------------------------------------------------------------------------

void StatelessNodeActor::TrackRequest(uint16_t kind,
                                      const SharedBytes& payload,
                                      size_t wire_size,
                                      obs::TraceContext trace) {
  const uint64_t id = next_req_id_++;
  PendingReq req;
  req.kind = kind;
  req.payload = payload;
  req.wire_size = wire_size;
  req.trace = trace;
  req.round = current_round_;
  req.target_idx = primary_idx_;
  req.sent_at = system_->events()->now();
  if (kind == kMsgRelay) {
    // Remember what the primary must echo back (OC relays fan out to every
    // OC member, the sender included): the echo is the delivery ack.
    auto relay = Relay::Decode(payload);
    if (relay.ok() && relay->target == Relay::kToOrderingCommittee &&
        in_oc_) {
      req.echo_kind = relay->inner_kind;
      req.echo_payload = std::move(relay->inner);
    }
  }
  pending_reqs_[id] = std::move(req);
  system_->events()->ScheduleAfter(system_->params().storage_timeout_us,
                                   [this, id] { OnRequestDeadline(id); });
}

void StatelessNodeActor::OnRequestDeadline(uint64_t req_id) {
  auto it = pending_reqs_.find(req_id);
  if (it == pending_reqs_.end()) return;
  PendingReq& req = it->second;
  const Params& p = system_->params();
  // Relays are round-scoped: once the round moved on, the relay is moot.
  if (req.kind == kMsgRelay && req.round < current_round_) {
    pending_reqs_.erase(it);
    return;
  }
  ++req.attempts;
  if (req.attempts > p.storage_retry_limit) {
    pending_reqs_.erase(it);  // Abandon: bounds the event chain.
    return;
  }
  // Health signal: a primary that said nothing at all for a whole deadline
  // window is striking out (a live one keeps pushing round traffic).
  const net::SimTime now = system_->events()->now();
  const bool primary_silent =
      primary_idx_ < heard_at_.size() &&
      heard_at_[primary_idx_] + p.storage_timeout_us <= now;
  if (primary_silent) {
    obs_.failover_timeouts->Increment();
    if (++primary_strikes_ >= p.storage_failover_strikes) RotatePrimary();
  }
  // Retransmit through the next connection with exponential backoff. The
  // request cycles through all m links, so a dead or censoring (alive but
  // relay-dropping) storage node is bypassed even when the two cannot be
  // told apart from here.
  obs_.failover_retransmits->Increment();
  req.target_idx = (req.target_idx + 1) % storages_.size();
  req.sent_at = now;
  system_->network()->Send(net_id_, storages_[req.target_idx], req.kind,
                           req.payload, req.wire_size, req.trace);
  const int shift = req.attempts > 6 ? 6 : req.attempts;
  const int64_t delay = std::min<int64_t>(p.storage_timeout_us << shift,
                                          p.storage_backoff_cap_us);
  system_->events()->ScheduleAfter(delay,
                                   [this, req_id] { OnRequestDeadline(req_id); });
}

void StatelessNodeActor::NoteEcho(const net::Message& msg) {
  for (auto it = pending_reqs_.begin(); it != pending_reqs_.end(); ++it) {
    const PendingReq& req = it->second;
    if (req.kind != kMsgRelay || req.echo_kind != msg.kind) continue;
    if (ByteView(req.echo_payload) == ByteView(msg.payload)) {
      pending_reqs_.erase(it);  // Delivered: our broadcast came back.
      return;
    }
  }
}

void StatelessNodeActor::RotatePrimary() {
  primary_strikes_ = 0;
  if (storages_.size() < 2) return;
  const bool leaving_preferred = primary_idx_ == preferred_idx_;
  if (leaving_preferred) ++preferred_failures_;
  primary_idx_ = (primary_idx_ + 1) % storages_.size();
  obs_.failover_rotations->Increment();
  obs::Tracer* tracer = system_->tracer();
  if (tracer->enabled()) {
    tracer->Instant(tracer->FaultContext(), "primary_rotation", TraceName());
  }
  // Start probing the preferred primary for readoption — but only on its
  // first failure (likely a crash). A preferred that was readopted and
  // struck out again is live-but-useless; probing it would oscillate.
  if (primary_idx_ != preferred_idx_ && !probe_chain_active_ &&
      preferred_failures_ <= 1) {
    probe_chain_active_ = true;
    probes_left_ = system_->params().storage_probe_limit;
    system_->events()->ScheduleAfter(system_->params().storage_probe_us,
                                     [this] { SendProbe(); });
  }
}

void StatelessNodeActor::SendProbe() {
  if (primary_idx_ == preferred_idx_ || probes_left_ <= 0) {
    probe_chain_active_ = false;
    probe_inflight_ = false;
    return;
  }
  --probes_left_;
  probe_inflight_ = true;
  SendResync(storages_[preferred_idx_]);
  system_->events()->ScheduleAfter(system_->params().storage_probe_us,
                                   [this] { SendProbe(); });
}

void StatelessNodeActor::SendResync(net::NodeId target) {
  ResyncRequest req;
  req.round = current_round_;
  system_->network()->Send(net_id_, target, kMsgResync, req.Encode());
}

void StatelessNodeActor::NoteHeardFrom(net::NodeId from) {
  for (size_t i = 0; i < storages_.size(); ++i) {
    if (storages_[i] != from) continue;
    heard_at_[i] = system_->events()->now();
    if (i == primary_idx_) primary_strikes_ = 0;
    // Readoption: only a probe answer (not incidental traffic like TxBlock
    // pushes) moves the node back to its preferred primary.
    if (probe_inflight_ && i == preferred_idx_ &&
        primary_idx_ != preferred_idx_) {
      primary_idx_ = preferred_idx_;
      primary_strikes_ = 0;
      probe_inflight_ = false;
      probe_chain_active_ = false;
      probes_left_ = 0;
      obs_.failover_readoptions->Increment();
      obs::Tracer* tracer = system_->tracer();
      if (tracer->enabled()) {
        tracer->Instant(tracer->FaultContext(), "primary_readoption",
                        TraceName());
      }
    }
    return;
  }
}

void StatelessNodeActor::OnWatchdog() {
  const Params& p = system_->params();
  const net::SimTime now = system_->events()->now();
  const net::SimTime due = last_new_round_at_ + p.storage_watchdog_us;
  if (now < due) {
    // A fresh round arrived meanwhile; sleep until the pushed-out deadline.
    system_->events()->ScheduleAfter(due - now, [this] { OnWatchdog(); });
    return;
  }
  if (resync_budget_ <= 0) {
    watchdog_armed_ = false;  // Chain dies; a fresh round re-arms it.
    return;
  }
  --resync_budget_;
  // Rotate only when the current primary is either demonstrably silent or
  // was already given a resync this stall and produced nothing. If a
  // per-request strike rotation just moved us onto a live storage node,
  // resync it first — rotating blindly here can bounce straight back onto
  // the dead one (the two rotation sources alternate in lockstep).
  const bool primary_silent =
      primary_idx_ < heard_at_.size() &&
      heard_at_[primary_idx_] + p.storage_timeout_us <= now;
  if (primary_silent || watchdog_resynced_idx_ == static_cast<int>(primary_idx_)) {
    RotatePrimary();
  }
  watchdog_resynced_idx_ = static_cast<int>(primary_idx_);
  obs_.failover_resyncs->Increment();
  SendResync(storages_[primary_idx_]);
  system_->events()->ScheduleAfter(p.storage_watchdog_us,
                                   [this] { OnWatchdog(); });
}

void StatelessNodeActor::SendToAllStorages(uint16_t kind, SharedBytes payload,
                                           size_t wire_size,
                                           obs::TraceContext trace) {
  for (net::NodeId sid : storages_) {
    system_->network()->Send(net_id_, sid, kind, payload, wire_size, trace);
  }
}

void StatelessNodeActor::BroadcastToOc(uint16_t kind, Bytes payload,
                                       obs::TraceContext trace) {
  Relay relay;
  relay.target = Relay::kToOrderingCommittee;
  relay.round = current_round_;
  relay.inner_kind = kind;
  relay.inner = std::move(payload);
  relay.trace = trace;  // Restored onto the forwarded message by storage.
  Bytes enc = relay.Encode();
  // The optional 16-byte trace tail is observability metadata, not protocol
  // traffic: bill the modeled wire at the untraced encoding size so enabling
  // tracing never perturbs bandwidth or timing.
  const size_t wire = enc.size() - (trace.active() ? 16 : 0);
  SendToPrimary(kMsgRelay, std::move(enc), wire, trace);
}

void StatelessNodeActor::HandleMessage(const net::Message& msg) {
  if (strategy_ == AdvStrategy::kSilent) {
    // The named `silent` strategy (the legacy Byzantine-silent model):
    // every protocol message dies here unanswered. Counter-only — one
    // trace instant per dropped message would flood the span buffer.
    system_->adversary()->NoteAction(strategy_, "silent_drop", TraceName(),
                                     /*trace=*/false);
    return;
  }
  NoteHeardFrom(msg.from);  // Any traffic counts as a liveness signal.
  if (!pending_reqs_.empty()) NoteEcho(msg);
  switch (msg.kind) {
    case kMsgNewRound: {
      // Round starts come from our storage connections only: anyone else
      // could move this node's round with a forged tip.
      if (std::find(storages_.begin(), storages_.end(), msg.from) ==
          storages_.end()) {
        break;
      }
      auto tip = TipHeader::Decode(msg.payload);
      if (tip.ok()) OnNewRound(std::move(tip).value());
      break;
    }
    case kMsgTxBlock:
      OnTxBlock(msg);
      break;
    case kMsgExecRequest:
      OnExecRequest(msg);
      break;
    case kMsgStateResponse:
      OnStateResponse(msg);
      break;
    case kMsgWitnessBundle:
      OnWitnessBundle(msg);
      break;
    case kMsgProposal:
      OnProposal(msg);
      break;
    case kMsgVote:
      OnVote(msg);
      break;
    case kMsgDecisionCert:
      OnDecisionCert(msg);
      break;
    case kMsgExecResult:
      OnExecResult(msg);
      break;
    case kMsgBodyChunk:
      OnBodyChunk(msg);
      break;
    case kMsgAggWitness:
      OnAggWitness(msg);
      break;
    case kMsgAggExecResult:
      OnAggExecResult(msg);
      break;
    case kMsgVoteCert:
      OnVoteCert(msg);
      break;
    case kMsgRelayAck:
      OnRelayAck(msg);
      break;
    default:
      break;
  }
}

void StatelessNodeActor::OnNewRound(TipHeader tip) {
  const uint64_t round = tip.round + 1;
  if (round < current_round_) {
    // Strictly behind our tip: a stale (or deliberately stale) reply —
    // e.g. a stale-replying storage node answering a resync with genesis.
    obs_.rejected_stale_round->Increment();
    return;
  }
  if (round == current_round_) return;  // Duplicate delivery.
  current_round_ = round;
  // The tip's hash is the storage node's word: no certificate is checked,
  // and the stale-round check above is what rejects a replayed old tip.
  tip_ = std::move(tip);

  // Round watchdog: a fresh round refills the resync budget and pushes the
  // stall deadline out; the (single) watchdog chain is armed lazily here.
  last_new_round_at_ = system_->events()->now();
  resync_budget_ = system_->params().storage_resync_budget;
  watchdog_resynced_idx_ = -1;  // New stall, fresh "who did we ask" slate.
  if (!watchdog_armed_) {
    watchdog_armed_ = true;
    system_->events()->ScheduleAfter(system_->params().storage_watchdog_us,
                                     [this] { OnWatchdog(); });
  }

  // Prune witnessed blocks past their execution round (storage hygiene that
  // keeps the footprint ~constant, Fig 9a).
  for (auto it = held_blocks_.begin(); it != held_blocks_.end();) {
    if (it->second.witnessed_round + 2 < round) {
      it = held_blocks_.erase(it);
    } else {
      ++it;
    }
  }

  // Tree-dissemination scratch is per-round; prune with the pipeline depth.
  for (auto it = chunk_state_.begin(); it != chunk_state_.end();) {
    if (it->second.header.round_created + 2 < round) {
      it = chunk_state_.erase(it);
    } else {
      ++it;
    }
  }
  while (!witness_agg_.empty() &&
         witness_agg_.begin()->first.first + 4 < round) {
    witness_agg_.erase(witness_agg_.begin());
  }
  while (!exec_agg_.empty() && exec_agg_.begin()->first.first + 4 < round) {
    exec_agg_.erase(exec_agg_.begin());
  }

  if (in_oc_) {
    // Fresh consensus instance (a new round re-elects the vote relay, so
    // the degradation latch resets too); the coordinator persists (the OC
    // outlives ECs, §IV-C2).
    ResetInstance();
    // Older bundles are dead; results and relay bookkeeping keep the
    // pipeline depth.
    while (!bundles_.empty() && !Listable(bundles_.begin()->first)) {
      bundles_.erase(bundles_.begin());
    }
    while (!exec_results_.empty() &&
           exec_results_.begin()->first.first + 4 < round) {
      exec_results_.erase(exec_results_.begin());
    }
    while (!vote_agg_.empty() &&
           std::get<0>(vote_agg_.begin()->first) + 4 < round) {
      vote_agg_.erase(vote_agg_.begin());
    }
    while (!agg_seen_.empty() &&
           std::get<0>(agg_seen_.begin()->first) + 4 < round) {
      agg_seen_.erase(agg_seen_.begin());
    }
    if (net_id_ == system_->oc().leader) ScheduleProposalDeadline(round);
    return;
  }

  // Churn: a node whose session expired misses this round (it is
  // rejoining) and returns with a fresh session next round. EC lifecycles
  // are short, so Porygon absorbs this gracefully (Fig 8d).
  if (system_->options().mean_session_s > 0) {
    if (session_end_ == net::kSimTimeNever) {
      session_end_ = system_->DrawSessionEnd();
    }
    if (session_end_ <= system_->events()->now()) {
      assignment_.reset();
      session_end_ = system_->DrawSessionEnd();
      return;
    }
  }

  // Cohort rotation (Fig 4): an EC formed at round r witnesses at r,
  // cross-batch witnesses at r+1, and executes at r+2 — so a node joins a
  // *new* EC only every third round. Without this, each node would carry
  // witness and execution traffic simultaneously, halving its usable
  // bandwidth versus the paper's pipeline.
  if (static_cast<uint64_t>(index_ % 3) != round % 3) {
    return;  // Serving an earlier cohort (executing/cross-batch) or idle.
  }

  // Execution-committee sortition for this round, with the shard drawn
  // from the VRF output (§IV-B3).
  assignment_ = Sortition::Assign(system_->provider(), keys_.private_key,
                                  round, tip_.hash, 0.0, 1.0,
                                  system_->params().shard_bits);
  Announce(round, *assignment_);
}

void StatelessNodeActor::Announce(uint64_t round,
                                  const Assignment& assignment) {
  RoleAnnounce announce;
  announce.round = round;
  announce.role = static_cast<uint8_t>(assignment.role);
  announce.shard = assignment.shard;
  announce.sortition = assignment.sortition;
  announce.node_key = keys_.public_key;
  announce.proof = assignment.proof;
  announce.node_id = net_id_;
  SendToAllStorages(kMsgRoleAnnounce, announce.Encode());
}

// --------------------------------------------------------------------------
// Committee seating (called by PorygonSystem::SeatOc)
// --------------------------------------------------------------------------

void StatelessNodeActor::ResetInstance() {
  ba_.reset();
  pending_votes_.clear();
  proposed_this_round_ = false;
  proposals_seen_.clear();
  decided_hash_.reset();
  decided_cert_.reset();
  vote_relay_direct_ = false;
}

void StatelessNodeActor::SetStrategy(AdvStrategy strategy) {
  strategy_ = strategy;
  if (strategy != AdvStrategy::kHonest) ever_malicious_ = true;
}

Assignment StatelessNodeActor::DrawOrdering(uint64_t round,
                                            const crypto::Hash256& tip) const {
  return Sortition::Assign(system_->provider(), keys_.private_key, round, tip,
                           1.0, 0.0, 0);
}

void StatelessNodeActor::RetireFromOc() {
  // Every OC message handler guards on in_oc_, so in-flight committee
  // traffic addressed to this node is shed harmlessly after the flip. A
  // retiring member is never the leader, so it holds no coordinator.
  in_oc_ = false;
  ResetInstance();
  pending_proposal_ = tx::ProposalBlock{};
  bundles_.clear();
  exec_results_.clear();
  vote_agg_.clear();
  agg_seen_.clear();
  // EC-side state (held_blocks_, exec_task_, assignment_) survives: a
  // drafted-out member may still owe an earlier cohort its execution.
}

void StatelessNodeActor::JoinOc() {
  in_oc_ = true;
  ResetInstance();
  pending_proposal_ = tx::ProposalBlock{};
}

void StatelessNodeActor::ScheduleProposalDeadline(uint64_t round) {
  // Normal path: propose when the witness bundle arrives (OnWitnessBundle);
  // this deadline is the fallback that keeps liveness when no bundle shows
  // up (empty round, or a lost shard aggregate in tree mode).
  system_->events()->ScheduleAfter(2 * system_->params().phase_interval_us,
                                   [this, round] {
                                     if (current_round_ == round) {
                                       MaybePropose();
                                     }
                                   });
}

void StatelessNodeActor::TakeLeadFrom(StatelessNodeActor* outgoing,
                                      uint64_t round) {
  if (outgoing == nullptr) {
    coordinator_ = std::make_unique<CrossShardCoordinator>(
        system_->params().shard_bits);
  } else {
    coordinator_ = std::move(outgoing->coordinator_);
    for (const auto& [batch, blocks] : outgoing->bundles_) {
      if (!Listable(batch)) continue;
      auto& mine = bundles_[batch];
      for (const auto& [id, block] : blocks) mine.emplace(id, block);
    }
    for (const auto& [key, pending] : outgoing->exec_results_) {
      exec_results_.emplace(key, pending);
    }
  }
  // Bind observability to the new owner (a handed-off coordinator would
  // otherwise still trace under the outgoing leader's name).
  coordinator_->EnableTracing(system_->tracer(), TraceName());
  coordinator_->set_rejected_counter(obs_.rejected_unlocked_update);
  seated_round_ = round;
  // A watchdog resync can hand this node `round`'s tip before the round
  // starts. OnNewRound then saw the round while another node led and will
  // not run again for it, so the proposal deadline is armed here.
  if (round > 0 && current_round_ == round) ScheduleProposalDeadline(round);
}

// --------------------------------------------------------------------------
// Execution-committee paths
// --------------------------------------------------------------------------

void StatelessNodeActor::OnTxBlock(const net::Message& msg) {
  if (!assignment_.has_value()) return;
  PreparedBody body = system_->TakePrepared<PreparedBody>(msg);
  if (!body.parsed || body.header.shard != assignment_->shard) return;
  WitnessBody(std::move(body), current_round_, msg.trace);
}

// Shared witness tail for both body transports: the full-body push
// (OnTxBlock) and the erasure-coded chunk path (OnBodyChunk) converge here
// once a complete body is in hand and checked.
void StatelessNodeActor::WitnessBody(PreparedBody body, uint64_t round,
                                     obs::TraceContext trace) {
  if (!assignment_.has_value()) return;

  // Data availability check (Witness Phase, §IV-C1(a)): a header whose body
  // we cannot download, or whose body does not match, is never witnessed.
  if (!body.body_ok) return;

  const tx::BlockId block_id = body.block_id;
  std::string key = IdKey(block_id);
  if (held_blocks_.count(key) == 0) {
    HeldBlock held;
    held.header = body.header;
    held.txs = std::move(body.txs);
    held.witnessed_round = round;
    held_blocks_[key] = std::move(held);
  }

  if (system_->tracer()->enabled() && trace.active()) {
    // One witness mark per EC member in the round lane the block rode in on.
    system_->tracer()->Instant(trace, "witness", TraceName());
  }

  if (strategy_ == AdvStrategy::kForgeWitness) {
    // Forged uploads instead of an honest proof: a garbage signature over
    // the real block plus a proof for a block id that does not exist.
    // Storage-side verification rejects both (core.rejected counters);
    // Tw is still reached because the corrupted fraction is within α.
    // The block stays held above so execution still works later.
    AdversaryController* adv = system_->adversary();
    adv->NoteAction(strategy_, "forge_witness", TraceName());
    WitnessUpload bad;
    bad.round = round;
    bad.shard = assignment_->shard;
    bad.proof.block_id = block_id;
    bad.proof.witness = keys_.public_key;
    bad.proof.signature =
        adv->ForgedSignature("witness_sig", round,
                             static_cast<uint64_t>(index_));
    SendToAllStorages(kMsgWitnessUpload, bad.Encode());
    WitnessUpload ghost;
    ghost.round = round;
    ghost.shard = assignment_->shard;
    ghost.proof.block_id = adv->ForgedValue(
        "ghost_block", round, static_cast<uint64_t>(index_));
    ghost.proof.witness = keys_.public_key;
    ghost.proof.signature = system_->provider()->Sign(
        keys_.private_key, ToBytes("porygon.ghost"));
    SendToAllStorages(kMsgWitnessUpload, ghost.Encode());
    return;
  }

  tx::WitnessProof proof;
  proof.block_id = block_id;
  proof.witness = keys_.public_key;
  proof.signature = system_->provider()->Sign(
      keys_.private_key, WitnessSigningBytes(body.header));

  WitnessUpload up;
  up.round = round;
  up.shard = assignment_->shard;
  up.proof = proof;
  // Redundant upload to all m connected storage nodes: one honest one
  // suffices (Lemma 1).
  SendToAllStorages(kMsgWitnessUpload, up.Encode());
}

void StatelessNodeActor::OnBodyChunk(const net::Message& msg) {
  // Tree-only kind: a direct deployment never sends it.
  if (!system_->dissemination().tree()) return;
  auto chunk = BodyChunk::Decode(msg.payload);
  if (!chunk.ok() || !assignment_.has_value()) return;
  if (chunk->shard != assignment_->shard) return;
  if (chunk->k < 2 || chunk->n < chunk->k || chunk->index >= chunk->n) return;

  std::string key = IdKey(chunk->header.Id());
  if (held_blocks_.count(key) > 0) return;  // Already witnessed in full.
  ChunkState& st = chunk_state_[key];
  if (st.done) return;
  if (st.chunks.empty()) {
    st.header = chunk->header;
    st.k = chunk->k;
    st.n = chunk->n;
    st.chunks.assign(chunk->n, std::nullopt);
  }
  if (chunk->k != st.k || chunk->n != st.n) return;
  if (!chunk->payload.empty() && !st.chunks[chunk->index].has_value()) {
    st.chunks[chunk->index] = chunk->payload;
    ++st.have;
  }

  // Seed chunks (storage-sent) carry the member roster; our own seed is
  // forwarded once to the next k members on the ring. That caps every
  // member's uplink at ~one body while giving each member k+1 arrivals —
  // a one-chunk loss margin over the k needed to reconstruct.
  if (!st.forwarded && chunk->index < chunk->peers.size() &&
      chunk->peers[chunk->index] == net_id_ && !chunk->payload.empty()) {
    st.forwarded = true;
    BodyChunk fwd = *chunk;
    fwd.peers.clear();  // Forwarded hops never re-forward; drop the roster.
    const SharedBytes enc = fwd.Encode();
    const size_t wire = fwd.WireSize();
    for (uint16_t i = 1; i <= st.k; ++i) {
      net::NodeId peer =
          chunk->peers[(chunk->index + i) % chunk->peers.size()];
      if (peer == net_id_) continue;
      system_->network()->Send(net_id_, peer, kMsgBodyChunk, enc, wire,
                               msg.trace);
    }
  }

  if (st.have < static_cast<size_t>(st.k)) return;
  auto rebuilt = erasure::Decode(st.chunks, st.k, st.n);
  if (!rebuilt.ok()) return;
  PreparedBody body = PreparedBody::Of(*rebuilt, system_->prepare_context());
  if (!body.parsed || body.block_id != st.header.Id()) return;
  // Rebuilt: from here on only `done` and the header are read.
  st.done = true;
  st.chunks = {};
  WitnessBody(std::move(body), current_round_, msg.trace);
}

void StatelessNodeActor::OnExecRequest(const net::Message& msg) {
  auto req = ExecRequest::Decode(msg.payload);
  if (!req.ok()) return;
  if (exec_task_.has_value() && exec_task_->started_round == current_round_) {
    return;  // Already executing this round.
  }

  ExecTask task;
  task.request = std::move(*req);
  task.started_round = current_round_;
  if (system_->tracer()->enabled() && msg.trace.active()) {
    task.trace_span =
        system_->tracer()->BeginSpan(msg.trace, "exec", TraceName());
  }
  exec_task_ = std::move(task);

  // Collect every account the batch touches (the pre-recorded access lists)
  // plus the accounts of the OC's update list U. Fresh accounts need
  // absence proofs, so everything is requested.
  std::vector<state::AccountId> accounts;
  for (const auto& id : exec_task_->request.block_ids) {
    auto held = held_blocks_.find(IdKey(id));
    if (held == held_blocks_.end()) continue;
    for (const auto& t : held->second.txs) {
      accounts.push_back(t.from);
      accounts.push_back(t.to);
    }
  }
  for (const auto& u : exec_task_->request.updates) {
    accounts.push_back(u.account);
  }
  if (accounts.empty()) {
    RunExecution();  // Nothing to download; still report (empty) results.
    return;
  }
  RadixSortUnique(&accounts);

  StateRequest sreq;
  sreq.round = exec_task_->request.round;
  sreq.shard = exec_task_->request.shard;
  sreq.accounts = std::move(accounts);
  exec_task_->state_accounts = sreq.accounts;
  SendToPrimary(kMsgStateRequest, sreq.Encode(), 0, msg.trace);
}

void StatelessNodeActor::OnStateResponse(const net::Message& msg) {
  auto resp = StateResponse::Decode(msg.payload);
  if (!resp.ok()) return;
  // The answer settles every outstanding state request (the failover layer
  // only ever has this round's in flight).
  for (auto it = pending_reqs_.begin(); it != pending_reqs_.end();) {
    if (it->second.kind == kMsgStateRequest) {
      it = pending_reqs_.erase(it);
    } else {
      ++it;
    }
  }
  if (!exec_task_.has_value()) return;
  if (resp->round != exec_task_->request.round) return;
  if (!system_->options().faithful_execution) {
    RunExecution();  // The reply carries no proofs to build a state from.
    return;
  }
  exec_task_->state = ProveStateResponse(*resp);
  if (!exec_task_->state.has_value()) {
    // Storage-reply cross-check failed: some entry's value does not match
    // its Merkle proof against the committed roots. Never execute on a
    // tampered snapshot — count it, and re-request from the next
    // connection (bounded by the connection count, so a β-fraction of
    // tampering storage nodes is walked past within one exec phase).
    obs_.rejected_bad_state_proof->Increment();
    obs::Tracer* tracer = system_->tracer();
    if (tracer->enabled()) {
      tracer->Instant(tracer->AdversaryContext(), "bad_state_proof",
                      TraceName());
    }
    if (storages_.empty() ||
        ++exec_task_->state_retries >= static_cast<int>(storages_.size())) {
      return;  // Every connection answered dishonestly; give up this round.
    }
    StateRequest sreq;
    sreq.round = exec_task_->request.round;
    sreq.shard = exec_task_->request.shard;
    sreq.accounts = exec_task_->state_accounts;
    system_->network()->Send(
        net_id_,
        storages_[(primary_idx_ + exec_task_->state_retries) %
                  storages_.size()],
        kMsgStateRequest, sreq.Encode());
    return;
  }
  RunExecution();
}

std::optional<state::PartialState> StatelessNodeActor::ProveStateResponse(
    const StateResponse& resp) const {
  const ExecRequest& req = exec_task_->request;
  if (resp.proofs.size() < resp.entries.size()) return std::nullopt;
  // AddOwnAccount/AddForeignAccount fail iff the claimed (present, value)
  // does not verify against the committed root for the account's shard —
  // exactly the tamper check we need.
  state::PartialState proven(system_->params().shard_bits, req.shard,
                             req.shard_root);
  for (size_t i = 0; i < resp.entries.size(); ++i) {
    const auto& e = resp.entries[i];
    auto proof = state::MerkleProof::Decode(resp.proofs[i]);
    if (!proof.ok()) return std::nullopt;
    const uint32_t shard_of =
        state::ShardOfAccount(e.account, system_->params().shard_bits);
    Status st;
    if (shard_of == req.shard) {
      st = proven.AddOwnAccount(e.account, e.present, e.value, *proof);
    } else if (shard_of < req.all_roots.size()) {
      st = proven.AddForeignAccount(e.account, e.present, e.value, *proof,
                                    req.all_roots[shard_of]);
    } else {
      return std::nullopt;
    }
    if (!st.ok()) return std::nullopt;
  }
  return proven;
}

void StatelessNodeActor::RunExecution() {
  if (!exec_task_.has_value()) return;
  const ExecRequest& req = exec_task_->request;

  ExecResultMsg result;
  result.exec_round = req.round;
  result.shard = req.shard;
  // Rank within the shard's ESC decides who ships the full S set, while
  // attestations keep the OC downlink flat.
  const net::Dissemination& diss = system_->dissemination();
  int rank = 0;
  for (net::NodeId m : req.members) {
    if (m == net_id_) break;
    ++rank;
  }
  result.full = rank < diss.FullResultSenders();

  // Fast path: adopt the deterministic result computed once for this
  // (round, shard), identical to what local execution would produce. Only
  // this shard's job is waited for; the other shards' go on running.
  const ExecutionResult* r = nullptr;
  if (!system_->options().faithful_execution) {
    r = system_->SettledShardExec(req.round, req.shard);
    if (r != nullptr) {
      obs_.cached_exec_hits->Increment();
    } else {
      obs_.cached_exec_misses->Increment();
    }
  }

  ExecutionResult local;
  if (r == nullptr) {
    // Faithful path: execute locally on the partial shard subtree proven
    // from the state reply (true stateless execution). A fast-mode cache
    // miss, or a batch with nothing to download, runs on an empty one.
    if (!exec_task_->state.has_value()) {
      exec_task_->state.emplace(system_->params().shard_bits, req.shard,
                                req.shard_root);
    }
    state::PartialState& partial = *exec_task_->state;
    // Implicit (lazily funded) accounts are genesis config every node
    // knows; mirroring the declaration keeps faithful execution
    // byte-identical to the canonical fast path.
    const state::ShardedState& canonical = system_->canonical_state();
    partial.SetImplicitAccounts(canonical.implicit_max_id(),
                                canonical.implicit_balance());

    // The held records of the listed blocks, in list order, less the
    // discarded ones: the executor splits intra from cross itself.
    ExecutionInput input;
    input.shard = req.shard;
    input.updates = req.updates;
    FlatSet<DigestKey> discarded;
    for (const auto& id : req.discarded) discarded.Insert(id);
    for (const auto& id : req.block_ids) {
      auto held = held_blocks_.find(IdKey(id));
      if (held == held_blocks_.end()) continue;
      for (const TxAccess& a : held->second.txs) {
        if (!discarded.empty() && discarded.Contains(a.id)) continue;
        input.txs.push_back(a);
      }
    }
    local = ShardExecutor::Execute(&partial, input);
    r = &local;
  }
  result.new_root = r->shard_root;
  result.s_set = r->cross_updates;
  result.intra_applied = r->intra_applied;
  result.cross_pre_executed = r->cross_pre_executed;

  if (strategy_ == AdvStrategy::kTamperExec) {
    // Report a forged post-state root. Index-salted so no two tamperers
    // agree on the same wrong root — forged results can never gather the
    // execution threshold, so the OC aggregates only the honest result.
    result.new_root = system_->adversary()->ForgedValue(
        "exec_root", req.round, req.shard, static_cast<uint64_t>(index_));
    result.s_set.clear();
    system_->adversary()->NoteAction(strategy_, "tamper_exec", TraceName());
  }

  result.s_hash = ExecResultMsg::HashSSet(result.s_set);
  if (!result.full) result.s_set.clear();
  result.signer = keys_.public_key;
  result.signature =
      system_->provider()->Sign(keys_.private_key, result.SigningBytes());
  obs::TraceContext lane;
  if (exec_task_->trace_span != 0) {
    lane = system_->tracer()->RoundContext(req.round);
    system_->tracer()->EndSpan(exec_task_->trace_span);
  }
  // Attestations ride the relay tree: one elected ESC member merges the
  // sibling signatures into a single compact message for the whole OC.
  // Full results, and every result with no live relay (always, in direct
  // mode), are broadcast.
  const net::NodeId relay =
      result.full ? net::kInvalidNode : diss.ExecRelay(req.members, req.round);
  if (relay == net_id_) {
    CollectExecAttestation(result);
  } else if (relay == net::kInvalidNode ||
             system_->network()->IsCrashed(relay)) {
    BroadcastToOc(kMsgExecResult, result.Encode(), lane);
  } else {
    system_->network()->Send(net_id_, relay, kMsgExecResult, result.Encode(),
                             0, lane);
  }
  exec_task_.reset();
}

// Relay-side attestation pool: flushed as one AggregatedExecResult to every
// OC member once enough distinct signers agree on a (root, s_hash) key.
void StatelessNodeActor::CollectExecAttestation(const ExecResultMsg& result) {
  auto& agg = exec_agg_[{result.exec_round, result.shard}];
  const std::string key =
      ExecResultMsg::ResultKey(result.new_root, result.s_hash);
  if (agg.flushed_keys.count(key) > 0) return;
  auto& list = agg.by_key[key];
  for (const auto& r : list) {
    if (r.signer == result.signer) return;  // One attestation per member.
  }
  list.push_back(result);
  // Together with the rank-0 full broadcast this meets the execution
  // threshold exactly; waiting for more signatures only adds latency.
  const size_t target = static_cast<size_t>(
      std::max(1, system_->params().execution_threshold - 1));
  if (list.size() < target) return;
  agg.flushed_keys.insert(key);
  AggregatedExecResult out;
  out.exec_round = result.exec_round;
  out.shard = result.shard;
  out.new_root = result.new_root;
  out.s_hash = result.s_hash;
  out.intra_applied = result.intra_applied;
  out.cross_pre_executed = result.cross_pre_executed;
  out.has_payload = false;  // Rank 0's full broadcast carries the S data.
  out.aggregator = net_id_;
  for (const auto& r : list) {
    out.signers.push_back(r.signer);
    out.signatures.push_back(r.signature);
  }
  const SharedBytes enc = out.Encode();
  const obs::TraceContext lane =
      system_->tracer()->RoundContext(result.exec_round);
  for (net::NodeId oc : system_->oc().ids) {
    system_->network()->Send(net_id_, oc, kMsgAggExecResult, enc,
                             out.WireSize(), lane);
  }
}

// --------------------------------------------------------------------------
// Ordering-committee paths
// --------------------------------------------------------------------------

void StatelessNodeActor::OnWitnessBundle(const net::Message& msg) {
  if (!in_oc_) return;
  // The blocks' access records stay in the shared payload until the leader
  // proposes: no other member reads them.
  auto bundle = WitnessBundle::Decode(msg.payload, msg.payload);
  if (!bundle.ok()) return;
  if (!Listable(bundle->batch_round)) return;  // Dead on arrival.
  auto& merged = bundles_[bundle->batch_round];
  for (auto& block : bundle->blocks) {
    if (block.header.shard >=
        static_cast<uint32_t>(system_->params().shard_count())) {
      obs_.rejected_bad_shard->Increment();
      continue;  // Out-of-range shard would index OOB downstream.
    }
    MergeWitnessed(&merged, std::move(block));
  }
  // The leader proposes as soon as last round's witnessed blocks are in
  // hand (its primary ships the converged set once per round).
  if (net_id_ == system_->oc().leader &&
      bundle->batch_round + 1 == current_round_) {
    MaybePropose();
  }
}

void StatelessNodeActor::OnAggWitness(const net::Message& msg) {
  // Tree-only kind: a direct deployment never sends it.
  if (!system_->dissemination().tree()) return;
  auto agg = AggregatedWitness::Decode(msg.payload, msg.payload);
  if (!agg.ok()) return;
  if (agg->shard >=
      static_cast<uint32_t>(system_->params().shard_count())) {
    obs_.rejected_bad_shard->Increment();
    return;
  }

  if (in_oc_) {
    if (net_id_ != system_->oc().leader) return;
    // Leader side. Equivocation detection is content-hash based: one
    // aggregator, one aggregate per (batch, shard). First-wins mirrors the
    // BA* vote rule, so a tampered second copy becomes evidence, never
    // state.
    const crypto::Hash256 h = crypto::Sha256::Hash(msg.payload);
    auto key = std::make_tuple(agg->batch_round, agg->shard, msg.from);
    auto seen = agg_seen_.find(key);
    if (seen != agg_seen_.end()) {
      if (seen->second != h) {
        system_->adversary()->NoteEvidence("relay_equivocation",
                                           TraceName());
      }
      return;
    }
    agg_seen_.emplace(key, h);
    if (!Listable(agg->batch_round)) return;  // Dead on arrival.
    auto& merged = bundles_[agg->batch_round];
    for (auto& block : agg->blocks) {
      if (block.header.shard != agg->shard) {
        obs_.rejected_bad_shard->Increment();
        continue;  // A relay must not smuggle foreign-shard blocks.
      }
      MergeWitnessed(&merged, std::move(block));
    }
    // Per-shard aggregates arrive independently; propose once every shard
    // reported. (The round-start fallback deadline covers missing shards.)
    if (agg->batch_round + 1 == current_round_) {
      std::set<uint32_t> shards_seen;
      for (auto it = agg_seen_.lower_bound(std::make_tuple(
               agg->batch_round, uint32_t{0}, net::NodeId{0}));
           it != agg_seen_.end() &&
           std::get<0>(it->first) == agg->batch_round;
           ++it) {
        shards_seen.insert(std::get<1>(it->first));
      }
      if (shards_seen.size() ==
          static_cast<size_t>(system_->params().shard_count())) {
        MaybePropose();
      }
    }
    return;
  }

  // Relay duty: merge the per-storage sub-bundles for our shard. Flush to
  // the leader once every storage reported, or when the deadline fires —
  // whichever comes first.
  const auto agg_key = std::make_pair(agg->batch_round, agg->shard);
  auto& wa = witness_agg_[agg_key];
  if (wa.flushed) return;
  wa.senders.insert(msg.from);
  for (auto& block : agg->blocks) {
    if (block.header.shard != agg->shard) {
      obs_.rejected_bad_shard->Increment();
      continue;
    }
    MergeWitnessed(&wa.blocks, std::move(block));
  }
  if (!wa.deadline_armed) {
    wa.deadline_armed = true;
    system_->events()->ScheduleAfter(
        system_->params().phase_interval_us / 2, [this, agg_key] {
          FlushWitnessAgg(agg_key.first, agg_key.second);
        });
  }
  if (wa.senders.size() >=
      static_cast<size_t>(system_->num_storage_nodes())) {
    FlushWitnessAgg(agg->batch_round, agg->shard);
  }
}

void StatelessNodeActor::FlushWitnessAgg(uint64_t batch_round,
                                         uint32_t shard) {
  auto it = witness_agg_.find({batch_round, shard});
  if (it == witness_agg_.end() || it->second.flushed) return;
  it->second.flushed = true;
  if (it->second.blocks.empty()) return;
  AggregatedWitness out;
  out.batch_round = batch_round;
  out.shard = shard;
  out.aggregator = net_id_;
  for (auto& [id, wb] : it->second.blocks) out.blocks.push_back(wb);
  const obs::TraceContext lane = system_->tracer()->RoundContext(batch_round);
  auto ship = [&](const AggregatedWitness& aw) {
    system_->network()->Send(net_id_, system_->oc().leader, kMsgAggWitness,
                             aw.Encode(), aw.WireSize(), lane);
  };
  ship(out);
  if (strategy_ == AdvStrategy::kEquivocate && out.blocks.size() > 1) {
    // A Byzantine relay equivocates on the aggregate: a second, conflicting
    // digest right behind the honest one. The leader's content-hash check
    // turns it into relay_equivocation evidence; first-wins keeps the
    // honest copy authoritative.
    AggregatedWitness tampered = out;
    tampered.blocks.pop_back();
    system_->adversary()->NoteAction(strategy_, "relay_equivocate",
                                     TraceName());
    ship(tampered);
  }
}

void StatelessNodeActor::OnExecResult(const net::Message& msg) {
  // In tree mode the elected ESC relay — a non-OC node — receives its
  // siblings' attestations here and pools them instead of voting.
  const bool relay_collect = system_->dissemination().tree() && !in_oc_;
  if (!in_oc_ && !relay_collect) return;
  PreparedExecResult checked = system_->TakePrepared<PreparedExecResult>(msg);
  if (!checked.result.has_value()) return;
  ExecResultMsg* result = &*checked.result;
  if (!checked.shard_ok) {
    obs_.rejected_bad_shard->Increment();
    return;
  }
  // Identity check before the (costlier) signature check: a result signed
  // by a key outside the stateless-node registry is an outsider forgery.
  if (!checked.known_signer) {
    obs_.rejected_unknown_signer->Increment();
    return;
  }
  // The signature was checked in the front half, one verification per
  // received copy, counted here as before.
  obs_.runtime_verify_tasks->Increment();
  if (!checked.signature_ok) {
    obs_.rejected_bad_exec_sig->Increment();
    return;
  }
  // A full result whose S set does not hash to its own s_hash is
  // internally inconsistent: drop it before it can vote.
  if (!checked.s_hash_ok) {
    obs_.rejected_s_hash_mismatch->Increment();
    return;
  }
  if (relay_collect) {
    CollectExecAttestation(*result);
    return;
  }
  auto& pending =
      exec_results_[{result->exec_round, result->shard}];
  if (!pending.voters.insert(result->signer).second) return;
  if (net_id_ == system_->oc().leader) {
    system_->NoteExecPhaseEnd(result->exec_round);
  }

  // Result key: (root, s_hash); identical execution -> identical key. Full
  // payloads (from the shard's lowest-ranked members) carry the S data.
  const std::string key =
      ExecResultMsg::ResultKey(result->new_root, result->s_hash);
  pending.result_votes[key] += 1;
  // s_hash consistency was verified on entry, so every full result can
  // serve as the payload for its key.
  if (result->full) pending.payloads.emplace(key, std::move(*result));
}

void StatelessNodeActor::OnAggExecResult(const net::Message& msg) {
  // Tree-only kind: a direct deployment never sends it.
  if (!in_oc_ || !system_->dissemination().tree()) return;
  auto agg = AggregatedExecResult::Decode(msg.payload);
  if (!agg.ok()) return;
  if (agg->shard >=
      static_cast<uint32_t>(system_->params().shard_count())) {
    obs_.rejected_bad_shard->Increment();
    return;
  }
  if (agg->signers.empty() ||
      agg->signers.size() != agg->signatures.size()) {
    return;
  }
  for (const auto& signer : agg->signers) {
    if (!system_->IsStatelessKey(signer)) {
      obs_.rejected_unknown_signer->Increment();
      return;
    }
  }
  // One batch verification over the shared member signing bytes: the
  // aggregate is exactly the relay's list of individual attestations, so
  // each signature still verifies against its signer.
  Bytes signing = agg->MemberSigningBytes();
  std::vector<crypto::CryptoProvider::VerifyJob> jobs;
  jobs.reserve(agg->signers.size());
  for (size_t i = 0; i < agg->signers.size(); ++i) {
    jobs.push_back({agg->signers[i], signing, agg->signatures[i]});
  }
  obs_.runtime_verify_tasks->Add(jobs.size());
  const std::vector<uint8_t> ok = system_->provider()->VerifyBatch(jobs);

  auto& pending = exec_results_[{agg->exec_round, agg->shard}];
  const std::string key = ExecResultMsg::ResultKey(agg->new_root, agg->s_hash);
  int accepted = 0;
  for (size_t i = 0; i < agg->signers.size(); ++i) {
    if (ok[i] == 0) {
      obs_.rejected_bad_exec_sig->Increment();
      continue;
    }
    if (!pending.voters.insert(agg->signers[i]).second) continue;
    pending.result_votes[key] += 1;
    ++accepted;
  }
  if (accepted == 0) return;
  if (net_id_ == system_->oc().leader) {
    system_->NoteExecPhaseEnd(agg->exec_round);
  }
}

void StatelessNodeActor::MaybePropose() {
  // Only the leader holds a coordinator, and only the leader proposes, from
  // the round it was seated at on: a lagging new leader's current round is
  // already committed.
  if (!coordinator_ || proposed_this_round_ || decided_hash_) return;
  if (current_round_ < seated_round_) return;
  proposed_this_round_ = true;
  const Params& p = system_->params();
  const uint64_t r = current_round_;

  tx::ProposalBlock proposal;
  proposal.height = tip_.height + 1;
  proposal.prev_hash = tip_.hash;
  proposal.round = r;
  proposal.leader = keys_.public_key;
  proposal.shard_tx_blocks.assign(p.shard_count(), {});
  proposal.ordering_threshold = p.ordering_fraction;
  proposal.execution_threshold = p.execution_fraction;

  // --- Ordering Phase: list batch r-1 blocks with enough witness proofs.
  std::vector<TxAccess> round_txs;
  auto bundle = bundles_.find(r - 1);
  if (bundle != bundles_.end()) {
    // Verify every distinct witness signature of the bundle in one batch
    // (the round's biggest verification fan-out), then count valid
    // witnesses per block. Dedup-then-verify semantics and block order are
    // those of the former serial loop.
    std::vector<crypto::CryptoProvider::VerifyJob> jobs;
    struct BlockJobs {
      const WitnessedBlock* wb;
      size_t begin;
      size_t count;
    };
    std::vector<BlockJobs> per_block;
    for (const auto& [key, wb] : bundle->second) {
      Bytes signing = WitnessSigningBytes(wb.header);
      std::set<crypto::PublicKey> seen;
      const size_t begin = jobs.size();
      for (const auto& proof : wb.proofs) {
        if (!seen.insert(proof.witness).second) continue;
        jobs.push_back({proof.witness, signing, proof.signature});
      }
      per_block.push_back({&wb, begin, jobs.size() - begin});
    }
    obs_.runtime_verify_tasks->Add(jobs.size());
    const uint64_t wall_before = system_->task_pool()->wall_us();
    const std::vector<uint8_t> ok = system_->provider()->VerifyBatch(jobs);
    obs_.runtime_verify_wall_us->Add(static_cast<double>(
        system_->task_pool()->wall_us() - wall_before));

    std::vector<const WitnessedBlock*> ordered;
    for (const BlockJobs& bj : per_block) {
      size_t valid = 0;
      for (size_t i = bj.begin; i < bj.begin + bj.count; ++i) {
        valid += ok[i];
      }
      if (valid >= static_cast<size_t>(p.witness_threshold)) {
        ordered.push_back(bj.wb);
      }
    }
    // Deterministic order (map iteration is already id-sorted). Only the
    // ordered blocks' access records are ever decoded.
    size_t listed = 0;
    for (const WitnessedBlock* wb : ordered) listed += wb->records.size();
    round_txs.reserve(listed);
    for (const WitnessedBlock* wb : ordered) {
      proposal.shard_tx_blocks[wb->header.shard].push_back(wb->header.Id());
      wb->records.DecodeTo(&round_txs);
    }
  }

  // --- Cross-shard conflict filtering + locking (§IV-D2).
  auto filtered = coordinator_->FilterAndLock(r, round_txs);
  proposal.discarded = std::move(filtered.discarded);
  if (system_->tracer()->enabled()) {
    // Sampled transactions close their "ordering" span here (listed in the
    // round-r proposal) or terminate with a "discarded" span.
    const std::string name = TraceName();
    for (uint32_t i : filtered.accepted_intra) {
      system_->TraceTxOrdered(round_txs[i].id, r, /*accepted=*/true, name);
    }
    for (uint32_t i : filtered.accepted_cross) {
      system_->TraceTxOrdered(round_txs[i].id, r, /*accepted=*/true, name);
    }
    for (const auto& id : proposal.discarded) {
      system_->TraceTxOrdered(id, r, /*accepted=*/false, name);
    }
  }

  // --- Aggregate execution results of exec round r-2 (T and S).
  proposal.shard_roots = tip_.shard_roots.empty()
                             ? system_->chain().front().shard_roots
                             : tip_.shard_roots;
  std::vector<std::vector<tx::StateUpdate>> s_sets;
  // B_{r-2}: what the ESCs were asked to execute (shards it gives no
  // blocks and no updates get no exec request, so owe no result).
  const tx::ProposalBlock* executed =
      r >= 3 && system_->chain().size() > r - 2 ? &system_->chain()[r - 2]
                                                : nullptr;
  for (int d = 0; d < p.shard_count(); ++d) {
    auto pending = exec_results_.find({r - 2, static_cast<uint32_t>(d)});
    bool accepted = false;
    if (pending != exec_results_.end()) {
      if (pending->second.result_votes.size() > 1) {
        // Two distinct (root, s_hash) keys for the same (round, shard):
        // someone executed-and-signed a divergent result. Evidence, not
        // fatal — the vote count below picks the honest majority.
        system_->adversary()->NoteEvidence("divergent_exec_result",
                                           TraceName());
      }
      // Most-voted key reaching the execution threshold wins. A key is
      // usable only when its S data is in hand: either a full payload
      // arrived, or its s_hash half commits to the empty S set (nothing to
      // carry). Map order breaks exact ties deterministically.
      const crypto::Hash256 empty_s_hash = ExecResultMsg::HashSSet({});
      const std::string* best_key = nullptr;
      int best_votes = 0;
      for (const auto& [key, votes] : pending->second.result_votes) {
        if (votes < p.execution_threshold) continue;
        const bool has_payload = pending->second.payloads.count(key) > 0;
        const bool empty_s =
            key.size() == 64 &&
            std::memcmp(key.data() + 32, empty_s_hash.data(), 32) == 0;
        if (!has_payload && !empty_s) continue;
        if (votes > best_votes) {
          best_votes = votes;
          best_key = &key;
        }
      }
      if (best_key != nullptr) {
        std::memcpy(proposal.shard_roots[d].data(), best_key->data(), 32);
        auto payload = pending->second.payloads.find(*best_key);
        if (payload != pending->second.payloads.end() &&
            !payload->second.s_set.empty()) {
          s_sets.push_back(payload->second.s_set);
        }
        accepted = true;
      }
    }
    // A result that misses Te is a missing attestation, not a missing
    // application: the shard keeps its last agreed root, which the next
    // accepted (cumulative) root covers. Counted, never re-applied.
    if (!accepted && executed != nullptr &&
        (!executed->shard_tx_blocks[d].empty() ||
         !executed->shard_updates[d].empty())) {
      obs_.exec_attestation_gaps->Increment();
    }
  }

  // --- Build the update list U_r from batch r-2's S sets (Single-Shard
  // Execution results route to owning shards for Multi-Shard Update). This
  // releases the batch, whether or not any S set arrived: the block that
  // carries U is its only record.
  proposal.shard_updates = coordinator_->BuildUpdateList(r - 2, s_sets);

  proposal.state_root =
      state::ShardedState::AggregateRoots(proposal.shard_roots);

  // One encoding serves the broadcast and the hash.
  Bytes enc = proposal.Encode();
  const crypto::Hash256 hash = crypto::Sha256::Hash(enc);
  pending_proposal_ = proposal;
  proposals_seen_[IdKey(hash)] = std::move(proposal);
  BroadcastToOc(kMsgProposal, std::move(enc),
                system_->tracer()->RoundContext(r));
  StartConsensus(hash);
}

void StatelessNodeActor::StartConsensus(const crypto::Hash256& proposal_hash) {
  if (!ba_) {
    ba_ = std::make_unique<consensus::BaStar>(
        system_->provider(), keys_, system_->oc().keys,
        [this](const consensus::Vote& v) {
          obs::Tracer* tracer = system_->tracer();
          const obs::TraceContext lane = tracer->RoundContext(v.instance);
          if (tracer->enabled()) tracer->Instant(lane, "vote", TraceName());
          RouteVote(v, lane);
          if (strategy_ == AdvStrategy::kEquivocate) {
            // Classic equivocation: a second, conflicting, *properly
            // signed* vote for a forged value right behind the honest one.
            // First-vote-wins keeps honest counting intact; the conflict
            // becomes signed evidence at every honest member. The value is
            // index-salted so equivocators never agree with each other and
            // forged values can never gather a quorum.
            AdversaryController* adv = system_->adversary();
            consensus::Vote forged = v;
            forged.value = adv->ForgedValue(
                "equivocate", v.instance,
                static_cast<uint64_t>(v.step) * 2 + v.kind,
                static_cast<uint64_t>(index_));
            forged.voter = keys_.public_key;
            forged.signature = system_->provider()->Sign(
                keys_.private_key, forged.SigningBytes());
            adv->NoteAction(strategy_, "equivocate_vote", TraceName());
            RouteVote(forged, lane);
          }
        },
        [this](const consensus::DecisionCert& cert) { OnDecision(cert); });
    ba_->set_instruments(obs_.consensus);
    ba_->set_evidence_sink(
        [this](const consensus::EquivocationEvidence& ev) {
          system_->adversary()->NoteEvidence("equivocation", TraceName());
          system_->RecordEquivocationEvidence(ev);
        });
    ba_->set_backoff(system_->params().phase_interval_us,
                     system_->params().consensus_backoff_cap_us);
    if (system_->tracer()->enabled()) {
      ba_->set_trace(system_->tracer(),
                     system_->tracer()->RoundContext(current_round_),
                     TraceName());
    }
    ba_->Propose(current_round_, proposal_hash);
    // Replay buffered early votes as one batch (signatures verify on the
    // pool; counting order is the buffer order, as before).
    ba_->OnVotes(pending_votes_);
    pending_votes_.clear();
    ArmConsensusTimeout(current_round_, 12);
  }
}

// BA* timeouts: re-drives the instance while the round is open, `tries`
// more times. Undecided, each firing re-steps BA* — and the leader
// re-broadcasts its proposal: a member whose copy was lost can buffer votes
// but never join the instance, and a small committee with an equivocator
// may be unable to decide one member short. Decided, each firing
// re-publishes the decision cert (and, at the leader, the commit) until the
// round actually advances — any single hand-off or commit message can be
// lost or withheld.
void StatelessNodeActor::ArmConsensusTimeout(uint64_t round, int tries) {
  if (tries <= 0 || !ba_ || current_round_ != round) return;
  // Capped exponential backoff: the delay doubles with the retry step
  // (min(phase_interval << step, consensus_backoff_cap_us)).
  system_->events()->ScheduleAfter(
      ba_->NextTimeoutDelay(), [this, round, tries] {
        if (!ba_ || current_round_ != round) return;
        if (ba_->decided()) {
          PublishDecision();
        } else {
          // A firing timeout means the vote relay (if any) is not
          // delivering quorums: latch back to direct broadcast for the rest
          // of the instance.
          vote_relay_direct_ = true;
          if (net_id_ == system_->oc().leader) {
            BroadcastToOc(kMsgProposal, pending_proposal_.Encode(),
                          system_->tracer()->RoundContext(round));
          }
          ba_->OnTimeout();
        }
        ArmConsensusTimeout(round, tries - 1);
      });
}

void StatelessNodeActor::OnProposal(const net::Message& msg) {
  if (!in_oc_) return;
  PreparedProposal proposal = system_->TakePrepared<PreparedProposal>(msg);
  if (!proposal.block.has_value()) return;
  if (proposal.block->round != current_round_) return;
  // Structural validation; leader must extend our tip.
  if (proposal.block->prev_hash != tip_.hash) return;
  if (proposal.block->height != tip_.height + 1) return;
  proposals_seen_[IdKey(proposal.hash)] = std::move(*proposal.block);
  StartConsensus(proposal.hash);
}

void StatelessNodeActor::OnVote(const net::Message& msg) {
  if (!in_oc_) return;
  auto vote = consensus::Vote::Decode(msg.payload);
  if (!vote.ok()) return;
  if (system_->dissemination().VoteRelay(system_->oc().ids,
                                         system_->oc().leader,
                                         vote->instance) == net_id_) {
    // Relay duty rides alongside normal counting: pool the vote toward a
    // compact certificate for the rest of the committee.
    CollectVote(*vote);
  }
  if (!ba_) {
    // Buffer votes that outrun the leader's proposal on a faster route.
    if (vote->instance == current_round_) pending_votes_.push_back(*vote);
    return;
  }
  ba_->OnVote(*vote);
}

void StatelessNodeActor::OnDecisionCert(const net::Message& msg) {
  if (!in_oc_ || !ba_ || ba_->decided()) return;
  auto cert = consensus::DecisionCert::Decode(msg.payload);
  if (!cert.ok()) return;
  // AdoptCert verifies the quorum signatures and, on success, fires the
  // decision callback — so OnDecision/PublishDecision run exactly as if we
  // had assembled the quorum ourselves (the leader publishes the commit).
  ba_->AdoptCert(*cert);
}

// Vote transport. Every OC member sends its votes to the instance's
// elected relay (rotating per instance, never the leader), which answers
// with a CompactVoteCert carrying a whole quorum at once — collapsing the
// O(n^2) vote mesh into O(n). With no relay elected (always, in direct
// mode), or any sign of a dead one, votes are broadcast.
void StatelessNodeActor::RouteVote(const consensus::Vote& v,
                                   obs::TraceContext lane) {
  const net::NodeId relay =
      vote_relay_direct_
          ? net::kInvalidNode
          : system_->dissemination().VoteRelay(
                system_->oc().ids, system_->oc().leader, v.instance);
  if (relay == net::kInvalidNode || system_->network()->IsCrashed(relay)) {
    BroadcastToOc(kMsgVote, v.Encode(), lane);
  } else if (relay == net_id_) {
    CollectVote(v);  // Self-elected: pool locally, nothing on the wire.
  } else {
    system_->network()->Send(net_id_, relay, kMsgVote, v.Encode(), 0, lane);
  }
}

void StatelessNodeActor::CollectVote(const consensus::Vote& v) {
  std::string value_key(reinterpret_cast<const char*>(v.value.data()),
                        v.value.size());
  auto& agg = vote_agg_[{v.instance, v.step, v.kind, value_key}];
  if (agg.emitted) return;
  if (!agg.voters.insert(v.voter).second) return;
  agg.votes.push_back(v);
  // Same quorum rule as BA* (2f+1 of the committee): one cert carries the
  // whole threshold, so a member counts a full quorum from one message.
  const size_t quorum = system_->oc().keys.size() * 2 / 3 + 1;
  if (agg.votes.size() < quorum) return;
  agg.emitted = true;
  CompactVoteCert cert;
  cert.instance = v.instance;
  cert.step = v.step;
  cert.kind = v.kind;
  cert.value = v.value;
  // Bitmap over the canonical committee order; signatures in ascending
  // set-bit order so receivers can zip them back to their voters.
  std::vector<std::pair<size_t, crypto::Signature>> indexed;
  for (const auto& vote : agg.votes) {
    for (size_t i = 0; i < system_->oc().keys.size(); ++i) {
      if (system_->oc().keys[i] == vote.voter) {
        indexed.push_back({i, vote.signature});
        break;
      }
    }
  }
  std::sort(indexed.begin(), indexed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [bit, sig] : indexed) {
    cert.bitmap |= uint64_t{1} << bit;
    cert.signatures.push_back(sig);
  }
  const SharedBytes enc = cert.Encode();
  const obs::TraceContext lane = system_->tracer()->RoundContext(v.instance);
  // The relay received (and already counted) every individual vote, so the
  // cert only goes out — never back into our own BA* instance.
  for (net::NodeId oc : system_->oc().ids) {
    if (oc == net_id_) continue;
    system_->network()->Send(net_id_, oc, kMsgVoteCert, enc, cert.WireSize(),
                             lane);
  }
}

void StatelessNodeActor::OnVoteCert(const net::Message& msg) {
  // Tree-only kind: a direct deployment never sends it.
  if (!in_oc_ || !system_->dissemination().tree()) return;
  auto cert = CompactVoteCert::Decode(msg.payload);
  if (!cert.ok()) return;
  std::vector<consensus::Vote> votes = cert->ToVotes(system_->oc().keys);
  if (votes.empty()) return;
  if (!ba_) {
    // Same buffering rule as individual votes that outrun the proposal.
    if (cert->instance == current_round_) {
      pending_votes_.insert(pending_votes_.end(), votes.begin(),
                            votes.end());
    }
    return;
  }
  ba_->OnVotes(votes);
}

void StatelessNodeActor::OnRelayAck(const net::Message& msg) {
  auto ack = RelayAck::Decode(msg.payload);
  if (!ack.ok()) return;
  // Tree mode suppresses the broadcast self-echo; this ack replaces it as
  // the delivery signal, named by payload digest. Settle the failover
  // tracker so no retransmit chain keeps running for a delivered relay.
  for (auto it = pending_reqs_.begin(); it != pending_reqs_.end(); ++it) {
    if (it->second.kind != kMsgRelay) continue;
    if (crypto::Sha256::Hash(it->second.payload) == ack->digest) {
      pending_reqs_.erase(it);
      return;
    }
  }
}

void StatelessNodeActor::OnDecision(const consensus::DecisionCert& cert) {
  decided_hash_ = cert.value;
  decided_cert_ = cert;
  system_->RecordOrderingDecision(cert.instance);
  PublishDecision();
}

void StatelessNodeActor::PublishDecision() {
  if (!decided_cert_.has_value()) return;
  const consensus::DecisionCert& cert = *decided_cert_;
  // Decisions are transferable: broadcast the deciding certificate to the
  // committee as one self-certifying unit. A decided member stops voting,
  // so when the other members' copies of the cert votes were lost or
  // withheld, a lone partial decision would otherwise strand the rest of
  // the instance — including a leader that still owes storage the commit —
  // forever. Shipping the cert whole (instead of replaying its votes
  // through the tally) matters under equivocation: a member that counted
  // the equivocator's salted cert vote first has burned that (step, cert)
  // slot and could never re-assemble the quorum vote-by-vote. The timeout
  // driver calls back in here while the round stays open, so the hand-off
  // (and the leader's commit below) survives any one loss.
  const obs::TraceContext lane =
      system_->tracer()->RoundContext(cert.instance);
  BroadcastToOc(kMsgDecisionCert, cert.Encode(), lane);
  // The leader publishes the committed block (with its certificate) to its
  // first CommitFanout connected storage nodes; gossip spreads it (OnCommit
  // forwards to peers).
  if (net_id_ != system_->oc().leader) return;
  auto it = proposals_seen_.find(IdKey(cert.value));
  if (it == proposals_seen_.end()) return;
  const SharedBytes enc = it->second.Encode();
  const size_t fanout =
      system_->dissemination().CommitFanout(storages_.size());
  for (size_t i = 0; i < fanout; ++i) {
    system_->network()->Send(net_id_, storages_[i], kMsgCommit, enc,
                             enc.size() + cert.WireSize(), lane);
  }
}

}  // namespace porygon::core
