#include <algorithm>
#include <iterator>
#include <unordered_set>

#include "common/erasure.h"
#include "common/log.h"
#include "core/system.h"
#include "crypto/sha256.h"

namespace porygon::core {

StorageNodeActor::StorageNodeActor(PorygonSystem* system, int index,
                                   net::NodeId net_id, AdvStrategy strategy)
    : system_(system),
      obs_(system->instruments()),
      index_(index),
      net_id_(net_id),
      strategy_(strategy),
      pool_(system->params().shard_bits) {}

void StorageNodeActor::HandleMessage(const net::Message& msg) {
  switch (msg.kind) {
    case kMsgWitnessUpload:
      OnWitnessUpload(msg, /*from_gossip=*/false);
      break;
    case kMsgRelay:
      OnRelay(msg);
      break;
    case kMsgStateRequest:
      OnStateRequest(msg);
      break;
    case kMsgResync:
      OnResync(msg);
      break;
    case kMsgCommit:
      OnCommit(msg, /*from_gossip=*/false);
      break;
    case kMsgRoleAnnounce:
      OnRoleAnnounce(msg, /*from_gossip=*/false);
      break;
    case kMsgGossip:
      OnGossip(msg);
      break;
    default:
      break;
  }
}

void StorageNodeActor::OnRoundStart(uint64_t round) {
  net::SimNetwork* net = system_->network();

  // 1. Tell our primary stateless nodes the round has started, attaching
  // the header of the committed proposal block B_{r-1}: its hash seeds
  // sortition, and OC members extend its height and shard roots. Execution
  // inputs arrive separately as per-shard ExecRequests ("both the list and
  // the state tree are not completely sent to each shard", §IV-D2).
  const TipHeader& tip = system_->tip();
  const SharedBytes tip_enc = tip.Encode();
  const obs::TraceContext lane = system_->tracer()->RoundContext(round);
  const net::Dissemination& diss = system_->dissemination();
  for (int i = 0; i < system_->num_stateless_nodes(); ++i) {
    const StatelessNodeActor* node = system_->stateless_node(i);
    if (node->primary_storage() != net_id_) continue;
    net->Send(net_id_, node->net_id(), kMsgNewRound, tip_enc,
              diss.RoundStartBytes(node->in_oc(), tip.encoded_size), lane);
  }

  // 2. After a short grace period (role announcements propagate), package
  // and distribute transaction blocks and push bundles / exec requests.
  system_->events()->ScheduleAfter(net::FromMillis(200), [this, round] {
    DistributeRoundWork(round);
  });
}

void StorageNodeActor::GossipToPeers(uint16_t inner_kind, ByteView payload,
                                     size_t wire_size) {
  net::SimNetwork* net = system_->network();
  const SharedBytes wrapped =
      wire::Writer().U16(inner_kind).Blob(payload).Take();
  for (int i = 0; i < system_->num_storage_nodes(); ++i) {
    const net::NodeId peer = system_->storage_node(i)->net_id();
    if (peer == net_id_) continue;
    net->Send(net_id_, peer, kMsgGossip, wrapped, wire_size + 8);
  }
}

void StorageNodeActor::OnGossip(const net::Message& msg) {
  net::Message unwrapped;
  Bytes inner;
  wire::Reader r(msg.payload);
  r.U16(&unwrapped.kind).Blob(&inner);
  if (!r.Finish("gossip").ok()) return;
  unwrapped.payload = std::move(inner);
  unwrapped.from = msg.from;
  unwrapped.to = msg.to;
  unwrapped.wire_size = msg.wire_size;
  switch (unwrapped.kind) {
    case kMsgWitnessUpload:
      OnWitnessUpload(unwrapped, /*from_gossip=*/true);
      break;
    case kMsgCommit:
      OnCommit(unwrapped, /*from_gossip=*/true);
      break;
    case kMsgRoleAnnounce:
      OnRoleAnnounce(unwrapped, /*from_gossip=*/true);
      break;
    default:
      break;
  }
}

void StorageNodeActor::OnRoleAnnounce(const net::Message& msg,
                                      bool from_gossip) {
  auto a = RoleAnnounce::Decode(msg.payload);
  if (!a.ok()) return;
  // Verify the sortition proof before accepting the claimed role.
  Assignment claimed;
  claimed.role = static_cast<Role>(a->role);
  claimed.shard = a->shard;
  claimed.sortition = a->sortition;
  claimed.proof = a->proof;
  // Per-round EC announces draw against the execution thresholds;
  // epoch-boundary OC announces (ReconfigureEpoch) against the ordering
  // thresholds with no shard bits.
  const bool ordering = static_cast<Role>(a->role) == Role::kOrdering;
  if (!Sortition::Verify(system_->provider(), a->node_key, a->round,
                         system_->tip().hash,
                         ordering ? 1.0 : 0.0, ordering ? 0.0 : 1.0,
                         ordering ? 0 : system_->params().shard_bits,
                         claimed)) {
    // Announcements referencing an older tip can fail the hash check during
    // handoff; tolerate only exact-match proofs.
    return;
  }
  system_->RegisterAnnounce(*a);
  // If this node's shard blocks were already distributed this round, the
  // announcement simply arrived after the grace period (large proposal
  // blocks delay NewRound); ship the blocks to it directly.
  if (static_cast<Role>(a->role) == Role::kExecution &&
      a->round == last_distributed_round_ && !withholds_bodies()) {
    auto it = offered_blocks_.find(a->shard);
    if (it != offered_blocks_.end()) {
      const auto& store = system_->block_store();
      for (const auto& block_id : it->second) {
        auto stored = store.find(block_id);
        if (stored == store.end()) continue;
        const tx::TransactionBlock& outgoing = stored->second.block;
        system_->network()->Send(net_id_, a->node_id, kMsgTxBlock,
                                 outgoing.Encode(), outgoing.WireSize(),
                                 system_->tracer()->RoundContext(a->round));
      }
    }
  }
  if (!from_gossip && !suppresses_gossip()) {
    std::string key = "ra" + std::to_string(a->round) +
                      std::string(reinterpret_cast<const char*>(
                                      a->node_key.data()),
                                  32);
    if (gossip_seen_.insert(key).second) {
      GossipToPeers(kMsgRoleAnnounce, msg.payload, msg.payload.size());
    } else {
      obs_.gossip_dedup_hits->Increment();
    }
  }
}

void StorageNodeActor::DistributeRoundWork(uint64_t round) {
  // The grace-period event may outlive a crash that happened meanwhile; a
  // down node distributes nothing (it rejoins through OnRejoin).
  if (system_->network()->IsCrashed(net_id_)) return;
  const Params& p = system_->params();
  const SystemOptions& opt = system_->options();
  net::SimNetwork* net = system_->network();
  const auto* reg = system_->RegistryFor(round);
  auto& store = system_->block_store();
  const net::Dissemination& diss = system_->dissemination();
  obs::Tracer* tracer = system_->tracer();
  const bool tracing = tracer->enabled();
  const obs::TraceContext lane = tracer->RoundContext(round);

  // --- Package new transaction blocks for batch `round` ------------------
  size_t quota = opt.blocks_per_shard_round / system_->num_storage_nodes();
  if (static_cast<size_t>(index_) <
      opt.blocks_per_shard_round % system_->num_storage_nodes()) {
    ++quota;
  }
  // Every storage node drains its own mempool: nobody else can package the
  // transactions submitted to it.
  if (quota == 0) quota = 1;
  // Blocks to send this round, each by its store key and its one copy in
  // the store (unordered_map nodes never move).
  std::vector<std::pair<const std::string*, const tx::TransactionBlock*>>
      to_offer;
  for (int shard = 0; shard < p.shard_count(); ++shard) {
    for (size_t b = 0; b < quota; ++b) {
      if (pool_.PendingInShard(shard) == 0) break;
      std::vector<tx::TxId> tx_ids;
      tx::TransactionBlock block =
          pool_.PackBlock(shard, p.block_tx_limit,
                          static_cast<uint32_t>(index_), round, &tx_ids);
      if (block.transactions.empty()) break;
      if (tracing) {
        // Sampled transactions close their "submit" (mempool wait) span.
        for (const auto& id : tx_ids) system_->TraceTxPackaged(id, TraceName());
      }
      std::string key = IdKey(block.header.Id());
      unlisted_blocks_[key] = round;
      auto stored = store.insert_or_assign(
          std::move(key), StoredBlock{std::move(block), round,
                                      std::move(tx_ids)}).first;
      to_offer.emplace_back(&stored->first, &stored->second.block);
    }
  }

  // --- Send blocks to this round's EC members (witness phase). Blocks that
  // missed Tw in their own round are re-offered to the next round's EC —
  // the Cross-Batch Witness path (§IV-C2).
  for (auto& [key, stored] : store) {
    if (stored.batch_round + 1 == round &&
        stored.block.header.creator_storage_node ==
            static_cast<uint32_t>(index_) &&
        witness_state_.find(key) != witness_state_.end() &&
        witness_state_[key].proofs.size() <
            static_cast<size_t>(p.witness_threshold)) {
      stored.batch_round = round;  // Rolls into the next batch.
      to_offer.emplace_back(&key, &stored.block);
    }
  }
  last_distributed_round_ = round;
  offered_blocks_.clear();
  for (const auto& [key, block] : to_offer) {
    offered_blocks_[block->header.shard].push_back(*key);
  }
  if (reg != nullptr) {
    for (const auto& [key, block] : to_offer) {
      uint32_t shard = block->header.shard;
      auto it = reg->ec_by_shard.find(shard);
      if (it == reg->ec_by_shard.end()) continue;
      const std::vector<net::NodeId>& members = it->second;
      // Tree mode: erasure-code the body across the EC instead of shipping
      // |EC| full copies. One chunk per member (n = |EC|, any chunk_k
      // reconstruct); each member forwards its seed chunk to the next
      // chunk_k peers, so our uplink carries |EC|/k bodies instead of
      // |EC|. Small committees (no headroom over k) keep the full ship.
      if (diss.ChunksBodies(members.size())) {
        const int k = diss.spec().chunk_k;
        const int n = static_cast<int>(members.size());
        std::vector<Bytes> chunks;
        if (withholds_bodies()) {
          // Header-only chunks: receivers can never gather k payloads, the
          // exact tree-mode analogue of the bodyless direct ship.
          system_->adversary()->NoteAction(strategy_, "withhold_body",
                                           TraceName(), /*trace=*/false);
        } else {
          auto encoded = erasure::Encode(block->Encode(), k, n);
          if (encoded.ok()) chunks = std::move(*encoded);
        }
        for (size_t j = 0; j < members.size(); ++j) {
          BodyChunk c;
          c.round = round;
          c.shard = shard;
          c.header = block->header;
          c.index = static_cast<uint16_t>(j);
          c.k = static_cast<uint16_t>(k);
          c.n = static_cast<uint16_t>(n);
          c.peers = members;
          if (!chunks.empty()) c.payload = std::move(chunks[j]);
          net->Send(net_id_, members[j], kMsgBodyChunk, c.Encode(),
                    c.WireSize(), lane);
        }
        continue;
      }
      // A withholding storage node ships headers with no bodies: members
      // cannot witness what they cannot download (Challenge 2).
      tx::TransactionBlock header_only;
      const tx::TransactionBlock* outgoing = block;
      if (withholds_bodies()) {
        system_->adversary()->NoteAction(strategy_, "withhold_body",
                                         TraceName(), /*trace=*/false);
        header_only.header = block->header;
        outgoing = &header_only;
      }
      // One encoding of the stored block, shared by the whole EC.
      const SharedBytes enc = outgoing->Encode();
      for (net::NodeId member : members) {
        net->Send(net_id_, member, kMsgTxBlock, enc, outgoing->WireSize(),
                  lane);
      }
    }
  }

  // --- Push the witnessed bundle of batch round-1 to OC members we serve.
  // Access records are written from the stored bodies, with the ids hashed
  // at admission (StoredBlock::tx_ids), straight into the message buffer.
  auto witnessed_block = [](const StoredBlock& sb, const WitnessState& ws) {
    StoredWitness wb;
    wb.block = &sb.block;
    wb.tx_ids = &sb.tx_ids;
    for (const auto& [pk, proof] : ws.proofs) wb.proofs.push_back(proof);
    return wb;
  };
  if (round >= 1) {
    std::vector<StoredWitness> bundle;
    auto wit = witnessed_by_batch_.find(round - 1);
    if (wit != witnessed_by_batch_.end()) {
      for (const auto& id : wit->second) {
        auto stored = store.find(IdKey(id));
        auto wstate = witness_state_.find(IdKey(id));
        if (stored == store.end() ||
            wstate == witness_state_.end()) {
          continue;
        }
        bundle.push_back(witnessed_block(stored->second, wstate->second));
      }
    }
    // Orphan recovery: our packaged blocks that reached Tw in an earlier
    // batch but never made a committed listing — their bundle window passed
    // while the OC members' primary was unreachable — ride the current
    // bundle (the OC merges by block id, so re-offers are idempotent). The
    // stored value is the batch of the last push; waiting two rounds before
    // re-pushing leaves a normal listing time to commit and prune.
    for (auto& [key, last_push] : unlisted_blocks_) {
      if (last_push + 2 > round) continue;
      auto stored = store.find(key);
      auto wstate = witness_state_.find(key);
      if (stored == store.end() ||
          wstate == witness_state_.end() ||
          wstate->second.proofs.size() <
              static_cast<size_t>(p.witness_threshold)) {
        continue;
      }
      bundle.push_back(witnessed_block(stored->second, wstate->second));
      last_push = round - 1;  // Joins batch round-1's listing window.
    }
    // Hand the bundle to per-shard aggregation relays instead of pushing a
    // full copy onto every served OC member's downlink. The election is the
    // same arithmetic every honest node runs over the batch's EC, refined
    // with a skip-scan past struck and crashed relays. If any shard has no
    // relay (always, in direct mode), the whole bundle takes the direct
    // push to the OC members we serve.
    const obs::TraceContext batch_lane = tracer->RoundContext(round - 1);
    const auto* batch_reg = system_->RegistryFor(round - 1);
    const int strike_limit = diss.spec().relay_strikes;
    auto skip = [&](net::NodeId cand) {
      auto struck = relay_strikes_.find(cand);
      return (struck != relay_strikes_.end() &&
              struck->second >= strike_limit) ||
             net->IsCrashed(cand);
    };
    std::map<uint32_t, net::NodeId> relays;  // By shard.
    bool tree_routed = !bundle.empty() && batch_reg != nullptr;
    for (size_t i = 0; tree_routed && i < bundle.size(); ++i) {
      const uint32_t shard = bundle[i].block->header.shard;
      if (relays.count(shard) > 0) continue;
      auto mem = batch_reg->ec_by_shard.find(shard);
      const net::NodeId relay =
          mem == batch_reg->ec_by_shard.end()
              ? net::kInvalidNode
              : diss.WitnessRelay(mem->second, round - 1, skip);
      tree_routed = relay != net::kInvalidNode;
      relays[shard] = relay;
    }
    if (tree_routed) {
      std::map<uint32_t, std::vector<StoredWitness>> subs;  // By shard.
      for (StoredWitness& wb : bundle) {
        subs[wb.block->header.shard].push_back(std::move(wb));
      }
      for (const auto& [shard, sub] : subs) {
        RelayAudit audit;
        audit.listing_round = round;
        audit.relay = relays[shard];
        for (const StoredWitness& wb : sub) {
          audit.block_ids.push_back(IdKey(wb.block->header.Id()));
        }
        pending_relay_audit_.push_back(std::move(audit));
        net->Send(net_id_, relays[shard], kMsgAggWitness,
                  AggregatedWitness::Encode(round - 1, shard, net_id_, sub),
                  AggregatedWitness::WireSize(sub), batch_lane);
      }
    } else {
      const SharedBytes enc = WitnessBundle::Encode(round - 1, bundle);
      const size_t wire = WitnessBundle::WireSize(bundle);
      for (net::NodeId oc : system_->oc().ids) {
        // Only the member's primary storage node ships the bundle.
        const auto* member = system_->StatelessByNetId(oc);
        if (member == nullptr || member->primary_storage() != net_id_) {
          continue;
        }
        net->Send(net_id_, oc, kMsgWitnessBundle, enc, wire, batch_lane);
      }
    }
  }

  // --- Push execution requests derived from B_{r-1} to the ESCs formed at
  // round r-2 (they witnessed the bodies they are about to execute).
  if (round >= 2 && system_->chain().size() > round - 1) {
    const tx::ProposalBlock& basis = system_->chain()[round - 1];
    const auto* exec_reg = system_->RegistryFor(round - 2);
    bool exec_requests_sent = false;
    if (exec_reg != nullptr && !basis.shard_tx_blocks.empty()) {
      for (int shard = 0; shard < p.shard_count(); ++shard) {
        ExecRequest req;
        req.round = round - 1;
        req.shard = shard;
        if (shard < static_cast<int>(basis.shard_tx_blocks.size())) {
          req.block_ids = basis.shard_tx_blocks[shard];
        }
        if (shard < static_cast<int>(basis.shard_updates.size())) {
          req.updates = basis.shard_updates[shard];
        }
        req.discarded = basis.discarded;
        if (shard < static_cast<int>(basis.shard_roots.size())) {
          req.shard_root = basis.shard_roots[shard];
        }
        req.all_roots = basis.shard_roots;
        if (req.block_ids.empty() && req.updates.empty()) continue;
        auto it = exec_reg->ec_by_shard.find(shard);
        if (it == exec_reg->ec_by_shard.end()) continue;
        req.members = it->second;
        const SharedBytes enc = req.Encode();
        for (net::NodeId member : it->second) {
          const auto* node = system_->StatelessByNetId(member);
          if (node == nullptr || node->primary_storage() != net_id_) continue;
          net->Send(net_id_, member, kMsgExecRequest, enc, 0,
                    tracer->RoundContext(req.round));
          exec_requests_sent = true;
        }
      }
    }
    if (exec_requests_sent) system_->NoteExecPhaseStart(round - 1);
  }
}

void StorageNodeActor::OnWitnessUpload(const net::Message& msg,
                                       bool from_gossip) {
  auto up = WitnessUpload::Decode(msg.payload);
  if (!up.ok()) return;
  const std::string key = IdKey(up->proof.block_id);
  const auto& store = system_->block_store();
  auto stored = store.find(key);
  if (stored == store.end()) {
    // No such block: a proof over a ghost id (or, benignly, an upload for a
    // block this node pruned/erased around a crash window).
    obs_.rejected_unknown_block->Increment();
    return;
  }

  // Identity check: only registered stateless nodes can witness.
  if (!system_->IsStatelessKey(up->proof.witness)) {
    obs_.rejected_unknown_witness->Increment();
    return;
  }

  // Verify the witness signature over the block header.
  Bytes signing = WitnessSigningBytes(stored->second.block.header);
  if (!system_->provider()->Verify(up->proof.witness, signing,
                                   up->proof.signature)) {
    obs_.rejected_bad_witness_sig->Increment();
    return;
  }

  WitnessState& w = witness_state_[key];
  bool inserted = w.proofs.emplace(up->proof.witness, up->proof).second;
  if (!inserted) return;

  if (w.proofs.size() ==
      static_cast<size_t>(system_->params().witness_threshold)) {
    // Eligible for ordering: joins the batch of the round it completed in.
    uint64_t batch = std::max(stored->second.batch_round, up->round);
    witnessed_by_batch_[batch].push_back(up->proof.block_id);
    system_->RecordWitnessReached(batch);
    if (system_->tracer()->enabled()) {
      system_->TraceBlockWitnessed(up->proof.block_id, TraceName());
    }
  }

  if (!from_gossip && !suppresses_gossip()) {
    std::string gossip_key =
        "wu" + key +
        std::string(reinterpret_cast<const char*>(up->proof.witness.data()),
                    32);
    if (gossip_seen_.insert(gossip_key).second) {
      GossipToPeers(kMsgWitnessUpload, msg.payload, msg.payload.size());
    } else {
      obs_.gossip_dedup_hits->Increment();
    }
  }
}

void StorageNodeActor::OnRelay(const net::Message& msg) {
  auto relay = Relay::Decode(msg.payload);
  if (!relay.ok()) return;
  // Storage forwards only what stateless nodes broadcast to the committee:
  // a relay naming any other target or inner kind (say, a forged round
  // start that would move the committee's round) is dropped unforwarded.
  if (relay->target != Relay::kToOrderingCommittee) return;
  switch (relay->inner_kind) {
    case kMsgProposal:
    case kMsgVote:
    case kMsgExecResult:
    case kMsgDecisionCert:
      break;
    default:
      return;
  }
  if (drops_relays()) {
    // Withholding and censoring storage both drop routed traffic; the
    // sender's failover layer retries through its other connections.
    system_->adversary()->NoteAction(strategy_, "censor_relay", TraceName(),
                                     /*trace=*/false);
    return;
  }
  net::SimNetwork* net = system_->network();
  // Tree mode: an in-committee sender does not need its own broadcast
  // echoed back as a full copy — suppress it and answer with a 40-byte
  // digest ack instead, which the failover layer accepts as the same proof
  // of delivery.
  const std::vector<net::NodeId>& oc_ids = system_->oc().ids;
  const bool ack_sender =
      system_->dissemination().AcksOcRelays() &&
      std::find(oc_ids.begin(), oc_ids.end(), msg.from) != oc_ids.end();
  // One copy of the inner message, shared by every OC member.
  const SharedBytes inner = std::move(relay->inner);
  for (net::NodeId oc : oc_ids) {
    if (ack_sender && oc == msg.from) continue;
    // The sender's trace survives the storage hop.
    net->Send(net_id_, oc, relay->inner_kind, inner, 0, relay->trace);
  }
  if (ack_sender) {
    RelayAck ack;
    ack.round = relay->round;
    ack.digest = crypto::Sha256::Hash(msg.payload);
    net->Send(net_id_, msg.from, kMsgRelayAck, ack.Encode(), 40);
  }
}

void StorageNodeActor::OnStateRequest(const net::Message& msg) {
  auto req = StateRequest::Decode(msg.payload);
  if (!req.ok()) return;
  if (system_->tracer()->enabled() && msg.trace.active()) {
    system_->tracer()->Instant(msg.trace, "state_read", TraceName());
  }

  const SystemOptions& opt = system_->options();
  StateResponse resp;
  resp.round = req->round;
  resp.shard = req->shard;
  if (!opt.faithful_execution) {
    // Fast mode: the ESC adopts the canonical results and never reads the
    // reply's values, so the reply is its bill alone. It reads no state,
    // and so never waits on the launched execution.
    resp.billed_bytes =
        req->accounts.size() * (StateResponse::kEntryBytes +
                                opt.state_proof_bytes_per_account);
  } else {
    // Faithful proofs read the subtrees, which only the settle makes
    // current.
    const state::ShardedState& st = system_->canonical_state();
    for (state::AccountId id : req->accounts) {
      StateResponse::Entry e;
      e.account = id;
      auto acc = st.GetAccount(id);
      e.present = acc.ok();
      if (acc.ok()) e.value = *acc;
      resp.entries.push_back(e);
      state::MerkleProof proof = st.ProveAccount(id);
      resp.billed_bytes += StateResponse::kEntryBytes + proof.WireSize();
      resp.proofs.push_back(proof.Encode());
      if (tampers_state()) {
        // Doctor the entry *after* proving: the proof commits to the true
        // value, so the mismatch is exactly what the stateless node's
        // cross-check (ProveStateResponse) catches. The perturbation is a
        // pure hash of (round, account) — deterministic and non-zero.
        StateResponse::Entry& doctored = resp.entries.back();
        doctored.value.balance +=
            1 + crypto::HashPrefixU64(system_->adversary()->ForgedValue(
                    "state", req->round, id)) %
                    997;
        doctored.present = true;
      }
    }
  }
  if (tampers_state() && !req->accounts.empty()) {
    system_->adversary()->NoteAction(strategy_, "tamper_state", TraceName());
  }

  system_->network()->Send(net_id_, msg.from, kMsgStateResponse,
                           resp.Encode(), resp.WireSize());
}

void StorageNodeActor::OnResync(const net::Message& msg) {
  auto req = ResyncRequest::Decode(msg.payload);
  if (!req.ok()) return;
  // Reply with our committed tip's header as a NewRound. The receiver's
  // stale-round check makes this idempotent; a node that fell behind
  // catches up. Like state serving, this answers even on malicious nodes
  // (withholding the tip would be instantly detectable; the modeled attacks
  // are on bodies or on freshness: a stale-replying node always answers
  // with the genesis header, which the receiver's stale-round check rejects
  // and counts).
  if (stale_replies()) {
    system_->adversary()->NoteAction(strategy_, "stale_reply", TraceName());
  }
  const TipHeader tip = stale_replies()
                            ? TipHeader::Of(system_->chain().front())
                            : system_->tip();
  const StatelessNodeActor* node = system_->StatelessByNetId(msg.from);
  system_->network()->Send(
      net_id_, msg.from, kMsgNewRound, tip.Encode(),
      system_->dissemination().RoundStartBytes(
          node != nullptr && node->in_oc(), tip.encoded_size));
}

void StorageNodeActor::OnRejoin(uint64_t round) {
  PORYGON_LOG(kInfo) << "storage" << index_ << " rejoining at round "
                     << round;
  // Per-round offer bookkeeping is stale after the outage; rebuilt when the
  // next round distributes. Durable state (pool, the shared block store)
  // survived the crash, so catching up is joining the current round.
  offered_blocks_.clear();
  last_distributed_round_ = 0;

  // We missed every commit during the outage, so first settle
  // unlisted_blocks_ against the chain, then re-queue the transactions of
  // blocks that genuinely never made a listing — their witness bundle died
  // with us. Re-queuing is replay-safe: anything that somehow committed
  // anyway fails the nonce check at execution.
  for (const auto& committed : system_->chain()) {
    for (const auto& shard_list : committed.shard_tx_blocks) {
      for (const auto& id : shard_list) unlisted_blocks_.erase(IdKey(id));
    }
  }
  auto& store = system_->block_store();
  for (auto it = unlisted_blocks_.begin(); it != unlisted_blocks_.end();) {
    auto stored = store.find(it->first);
    // Blocks pruned from the store are past the pipeline's lookback and
    // unrecoverable; blocks of the still-in-flight batch may yet be listed.
    if (stored == store.end()) {
      it = unlisted_blocks_.erase(it);
      continue;
    }
    if (stored->second.batch_round + 1 >= round) {
      ++it;
      continue;
    }
    // Blocks that already reached Tw stay put: the bundle push re-offers
    // them to the OC directly (see DistributeRoundWork). Re-queuing those
    // too would list the same transactions under two block ids.
    auto wstate = witness_state_.find(it->first);
    if (wstate != witness_state_.end() &&
        wstate->second.proofs.size() >=
            static_cast<size_t>(system_->params().witness_threshold)) {
      ++it;
      continue;
    }
    uint64_t requeued = 0;
    const StoredBlock& sb = stored->second;
    for (size_t i = 0; i < sb.block.transactions.size(); ++i) {
      if (pool_.Add(sb.block.transactions[i], sb.tx_ids[i])) ++requeued;
    }
    if (requeued > 0) obs_.failover_requeued_txs->Add(requeued);
    store.erase(stored);
    it = unlisted_blocks_.erase(it);
  }

  if (round > 0 && round == system_->chain().back().round + 1) {
    OnRoundStart(round);
  }
}

void StorageNodeActor::OnCommit(const net::Message& msg, bool from_gossip) {
  auto block = tx::ProposalBlock::Decode(msg.payload);
  if (!block.ok()) return;
  std::string key = "cm" + std::to_string(block->round);
  if (!gossip_seen_.insert(key).second) {
    obs_.gossip_dedup_hits->Increment();
    return;
  }

  if (system_->tracer()->enabled()) {
    system_->tracer()->Instant(system_->tracer()->RoundContext(block->round),
                               "apply_block", TraceName());
  }

  // Our packaged blocks that made this listing are no longer orphan
  // candidates.
  for (const auto& shard_list : block->shard_tx_blocks) {
    for (const auto& id : shard_list) unlisted_blocks_.erase(IdKey(id));
  }

  // Settle witness-relay audits against this listing (there are none in
  // direct mode). A relay whose aggregate dropped any of the blocks we
  // offered it collects a strike (enough strikes and the election skips
  // it); a clean listing resets. Audits whose window passed during an
  // outage are dropped unjudged — we cannot tell a withholding relay from
  // our own absence.
  if (!pending_relay_audit_.empty()) {
    std::unordered_set<std::string> listed;
    for (const auto& shard_list : block->shard_tx_blocks) {
      for (const auto& id : shard_list) listed.insert(IdKey(id));
    }
    for (auto it = pending_relay_audit_.begin();
         it != pending_relay_audit_.end();) {
      if (it->listing_round > block->round) {
        ++it;
        continue;
      }
      if (it->listing_round == block->round) {
        bool all_listed = true;
        for (const auto& id : it->block_ids) {
          if (listed.count(id) == 0) {
            all_listed = false;
            break;
          }
        }
        if (all_listed) {
          relay_strikes_[it->relay] = 0;
        } else {
          ++relay_strikes_[it->relay];
        }
      }
      it = pending_relay_audit_.erase(it);
    }
  }

  system_->OnBlockCommitted(*block, system_->events()->now());

  if (!from_gossip && !suppresses_gossip()) {
    GossipToPeers(kMsgCommit, msg.payload, msg.payload.size());
  }
}

void StorageNodeActor::PruneWitnessBookkeeping() {
  // The re-offer loop, the bundle build, orphan recovery, OnWitnessUpload
  // and OnRejoin all look a block up in the store first: the entries of a
  // block the store dropped are dead.
  const auto& store = system_->block_store();
  for (auto it = witness_state_.begin(); it != witness_state_.end();) {
    it = store.count(it->first) > 0 ? std::next(it) : witness_state_.erase(it);
  }
  for (auto it = witnessed_by_batch_.begin();
       it != witnessed_by_batch_.end();) {
    std::vector<tx::BlockId>& ids = it->second;
    ids.erase(std::remove_if(ids.begin(), ids.end(),
                             [&](const tx::BlockId& id) {
                               return store.count(IdKey(id)) == 0;
                             }),
              ids.end());
    it = ids.empty() ? witnessed_by_batch_.erase(it) : std::next(it);
  }
}

std::vector<std::string> StorageNodeActor::WitnessedBlockKeys() const {
  std::vector<std::string> keys;
  for (const auto& [key, state] : witness_state_) keys.push_back(key);
  for (const auto& [batch, ids] : witnessed_by_batch_) {
    for (const auto& id : ids) keys.push_back(IdKey(id));
  }
  return keys;
}

}  // namespace porygon::core
