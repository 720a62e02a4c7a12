#include "core/messages.h"

#include "common/wire.h"
#include "crypto/sha256.h"

namespace porygon::core {

std::string IdKey(const crypto::Hash256& h) {
  return std::string(reinterpret_cast<const char*>(h.data()), h.size());
}

Bytes WitnessSigningBytes(const tx::TransactionBlockHeader& header) {
  return wire::Writer()
      .Raw(ByteView("porygon.witness"))
      .Raw(header.Encode())
      .Take();
}

int PhaseOfKind(uint16_t kind) {
  switch (kind) {
    case kMsgTxBlock:
    case kMsgWitnessUpload:
    case kMsgBodyChunk:
      return 0;  // Witness.
    case kMsgWitnessBundle:
    case kMsgProposal:
    case kMsgVote:
    case kMsgAggWitness:
    case kMsgVoteCert:
    case kMsgDecisionCert:
      return 1;  // Ordering.
    case kMsgExecRequest:
    case kMsgStateRequest:
    case kMsgStateResponse:
    case kMsgExecResult:
    case kMsgAggExecResult:
      return 2;  // Execution.
    case kMsgCommit:
    case kMsgNewRound:
      return 3;  // Commit.
    default:
      return -1;
  }
}

const char* MsgKindName(uint16_t kind) {
  switch (kind) {
    case kMsgTxBlock: return "tx_block";
    case kMsgWitnessUpload: return "witness_upload";
    case kMsgWitnessBundle: return "witness_bundle";
    case kMsgRelay: return "relay";
    case kMsgProposal: return "proposal";
    case kMsgVote: return "vote";
    case kMsgExecRequest: return "exec_request";
    case kMsgStateRequest: return "state_request";
    case kMsgStateResponse: return "state_response";
    case kMsgExecResult: return "exec_result";
    case kMsgCommit: return "commit";
    case kMsgNewRound: return "new_round";
    case kMsgRoleAnnounce: return "role_announce";
    case kMsgGossip: return "gossip";
    case kMsgResync: return "resync";
    case kMsgBodyChunk: return "body_chunk";
    case kMsgAggWitness: return "agg_witness";
    case kMsgAggExecResult: return "agg_exec_result";
    case kMsgVoteCert: return "vote_cert";
    case kMsgRelayAck: return "relay_ack";
    case kMsgDecisionCert: return "decision_cert";
    default: return "unknown";
  }
}

const char* PhaseLabelName(int phase) {
  switch (phase) {
    case 0: return "witness";
    case 1: return "ordering";
    case 2: return "execution";
    case 3: return "commit";
    default: return "other";
  }
}

Bytes RoleAnnounce::Encode() const {
  return wire::Writer()
      .U64(round)
      .U8(role)
      .U32(shard)
      .F64(sortition)
      .Array(node_key)
      .Array(proof.proof)
      .Array(proof.output)
      .U32(node_id)
      .Take();
}

Result<RoleAnnounce> RoleAnnounce::Decode(ByteView data) {
  RoleAnnounce a;
  wire::Reader r(data);
  r.U64(&a.round)
      .U8(&a.role)
      .U32(&a.shard)
      .F64(&a.sortition)
      .Array(&a.node_key)
      .Array(&a.proof.proof)
      .Array(&a.proof.output)
      .U32(&a.node_id);
  PORYGON_RETURN_IF_ERROR(r.Finish("announce"));
  return a;
}

Bytes ResyncRequest::Encode() const { return wire::Writer().U64(round).Take(); }

Result<ResyncRequest> ResyncRequest::Decode(ByteView data) {
  ResyncRequest req;
  wire::Reader r(data);
  r.U64(&req.round);
  PORYGON_RETURN_IF_ERROR(r.Finish("resync"));
  return req;
}

TipHeader TipHeader::Of(const tx::ProposalBlock& block) {
  const Bytes enc = block.Encode();
  TipHeader h;
  h.height = block.height;
  h.round = block.round;
  h.hash = crypto::Sha256::Hash(enc);
  h.shard_roots = block.shard_roots;
  h.encoded_size = enc.size();
  return h;
}

Bytes TipHeader::Encode() const {
  return wire::Writer()
      .U64(height)
      .U64(round)
      .Array(hash)
      .List(shard_roots)
      .U64(encoded_size)
      .Take();
}

Result<TipHeader> TipHeader::Decode(ByteView data) {
  TipHeader h;
  wire::Reader r(data);
  r.U64(&h.height)
      .U64(&h.round)
      .Array(&h.hash)
      .List(&h.shard_roots)
      .U64(&h.encoded_size);
  PORYGON_RETURN_IF_ERROR(r.Finish("tip-header"));
  return h;
}

Bytes WitnessUpload::Encode() const {
  wire::Writer w;
  w.U64(round).U32(shard);
  proof.EncodeTo(&w);
  return w.Take();
}

Result<WitnessUpload> WitnessUpload::Decode(ByteView data) {
  WitnessUpload w;
  wire::Reader r(data);
  r.U64(&w.round).U32(&w.shard);
  w.proof.DecodeFrom(&r);
  PORYGON_RETURN_IF_ERROR(r.Finish("witness-upload"));
  return w;
}

size_t WitnessedBlock::WireSize() const {
  // Access summaries ship compressed (~6 B per transaction amortized:
  // delta-coded varint account pairs for intra-shard transactions, fuller
  // ~16 B entries only for the cross-shard ones the OC's conflict detection
  // inspects, per §IV-D2 "the OC will download states that CTx will
  // access"). The in-memory payload carries the uncompressed records for
  // implementation convenience; the bandwidth model charges the wire
  // encoding.
  return header.WireSize() + proofs.size() * tx::WitnessProof::kWireSize +
         records.size() * 6;
}

AccessRecords::AccessRecords(const std::vector<TxAccess>& accesses) {
  wire::Writer w;
  for (const TxAccess& a : accesses) a.EncodeTo(&w);
  buffer_ = w.Take();
  records_ = buffer_;
}

AccessRecords::AccessRecords(const std::vector<tx::Transaction>& transactions,
                             const std::vector<tx::TxId>& ids) {
  wire::Writer w;
  for (size_t i = 0; i < transactions.size(); ++i) {
    ToAccess(transactions[i], ids[i]).EncodeTo(&w);
  }
  buffer_ = w.Take();
  records_ = buffer_;
}

TxAccess AccessRecords::At(size_t i) const {
  TxAccess a;
  wire::Reader r(ByteView(records_.data() + i * kRecordSize, kRecordSize));
  a.DecodeFrom(&r);
  return a;
}

void AccessRecords::DecodeTo(std::vector<TxAccess>* out) const {
  out->reserve(out->size() + size());
  wire::Reader r(records_);
  for (size_t i = 0; i < size(); ++i) out->emplace_back().DecodeFrom(&r);
}

void AccessRecords::EncodeTo(wire::Writer* w) const {
  w->Varint(size()).Raw(records_);
}

void AccessRecords::DecodeFrom(wire::Reader* r, const SharedBytes& owner) {
  uint64_t n = 0;
  ByteView view;
  r->Count(&n, kRecordSize).Raw(n * kRecordSize, &view);
  if (!r->ok()) return;
  buffer_ = owner.size() > 0 ? owner : SharedBytes(view.ToBytes());
  records_ = owner.size() > 0 ? view : ByteView(buffer_);
}

void WitnessedBlock::EncodeTo(wire::Writer* w) const {
  w->Nested(header).List(proofs);
  records.EncodeTo(w);
}

Bytes WitnessedBlock::Encode() const {
  wire::Writer w;
  EncodeTo(&w);
  return w.Take();
}

Result<WitnessedBlock> WitnessedBlock::Decode(ByteView data,
                                              const SharedBytes& owner) {
  WitnessedBlock b;
  wire::Reader r(data);
  r.Nested(&b.header).List(&b.proofs);
  b.records.DecodeFrom(&r, owner);
  PORYGON_RETURN_IF_ERROR(r.Finish("witnessed-block"));
  return b;
}

size_t WitnessBundle::WireSize() const {
  size_t total = 8;
  for (const auto& b : blocks) total += b.WireSize();
  return total;
}

Bytes WitnessBundle::Encode() const {
  return wire::Writer().U64(batch_round).List(blocks).Take();
}

Result<WitnessBundle> WitnessBundle::Decode(ByteView data,
                                            const SharedBytes& owner) {
  WitnessBundle w;
  wire::Reader r(data);
  r.U64(&w.batch_round).List(&w.blocks, owner);
  PORYGON_RETURN_IF_ERROR(r.Finish("bundle"));
  return w;
}

Bytes ExecRequest::Encode() const {
  return wire::Writer()
      .U64(round)
      .U32(shard)
      .List(block_ids)
      .List(updates)
      .List(discarded)
      .Array(shard_root)
      .List(all_roots)
      .List(members)
      .Take();
}

Result<ExecRequest> ExecRequest::Decode(ByteView data) {
  ExecRequest req;
  wire::Reader r(data);
  r.U64(&req.round)
      .U32(&req.shard)
      .List(&req.block_ids)
      .List(&req.updates)
      .List(&req.discarded)
      .Array(&req.shard_root)
      .List(&req.all_roots)
      .List(&req.members);
  PORYGON_RETURN_IF_ERROR(r.Finish("exec-request"));
  return req;
}

Bytes StateRequest::Encode() const {
  return wire::Writer().U64(round).U32(shard).List(accounts).Take();
}

Result<StateRequest> StateRequest::Decode(ByteView data) {
  StateRequest req;
  wire::Reader r(data);
  r.U64(&req.round).U32(&req.shard).List(&req.accounts);
  PORYGON_RETURN_IF_ERROR(r.Finish("state-request"));
  return req;
}

size_t StateResponse::WireSize() const { return 12 + billed_bytes; }

void StateResponse::Entry::EncodeTo(wire::Writer* w) const {
  w->U64(account).Bool(present).U64(value.balance).U64(value.nonce);
}

void StateResponse::Entry::DecodeFrom(wire::Reader* r) {
  r->U64(&account).Bool(&present).U64(&value.balance).U64(&value.nonce);
}

Bytes StateResponse::Encode() const {
  return wire::Writer()
      .U64(round)
      .U32(shard)
      .List(entries)
      .U64(billed_bytes)
      .List(proofs)
      .Take();
}

Result<StateResponse> StateResponse::Decode(ByteView data) {
  StateResponse resp;
  wire::Reader r(data);
  r.U64(&resp.round)
      .U32(&resp.shard)
      .List(&resp.entries)
      .U64(&resp.billed_bytes)
      .List(&resp.proofs);
  PORYGON_RETURN_IF_ERROR(r.Finish("state-response"));
  return resp;
}

crypto::Hash256 ExecResultMsg::HashSSet(
    const std::vector<tx::StateUpdate>& s) {
  return crypto::Sha256::Hash(wire::Writer().List(s).Take());
}

std::string ExecResultMsg::ResultKey(const crypto::Hash256& new_root,
                                     const crypto::Hash256& s_hash) {
  return IdKey(new_root) + IdKey(s_hash);
}

Bytes ExecResultMsg::SigningBytes() const {
  return wire::Writer()
      .Str("porygon.exec-result")
      .U64(exec_round)
      .U32(shard)
      .Array(new_root)
      .Array(s_hash)
      .U32(intra_applied)
      .U32(cross_pre_executed)
      .Take();
}

Bytes ExecResultMsg::Encode() const {
  wire::Writer w;
  w.U64(exec_round).U32(shard).Array(new_root).Array(s_hash).Bool(full);
  if (full) w.List(s_set);
  w.U32(intra_applied).U32(cross_pre_executed).Array(signer).Array(signature);
  return w.Take();
}

Result<ExecResultMsg> ExecResultMsg::Decode(ByteView data) {
  ExecResultMsg m;
  wire::Reader r(data);
  r.U64(&m.exec_round)
      .U32(&m.shard)
      .Array(&m.new_root)
      .Array(&m.s_hash)
      .Bool(&m.full);
  if (m.full) r.List(&m.s_set);
  r.U32(&m.intra_applied)
      .U32(&m.cross_pre_executed)
      .Array(&m.signer)
      .Array(&m.signature);
  PORYGON_RETURN_IF_ERROR(r.Finish("exec-result"));
  return m;
}

Bytes Relay::Encode() const {
  wire::Writer w;
  w.U8(target).U64(round).U32(shard).U32(dest).U16(inner_kind).Blob(inner);
  if (trace.trace_id != 0) w.U64(trace.trace_id).U64(trace.parent_span);
  return w.Take();
}

Result<Relay> Relay::Decode(ByteView data) {
  Relay relay;
  wire::Reader r(data);
  r.U8(&relay.target)
      .U64(&relay.round)
      .U32(&relay.shard)
      .U32(&relay.dest)
      .U16(&relay.inner_kind)
      .Blob(&relay.inner);
  if (r.remaining() > 0) {
    r.U64(&relay.trace.trace_id).U64(&relay.trace.parent_span);
  }
  PORYGON_RETURN_IF_ERROR(r.Finish("relay"));
  return relay;
}

size_t BodyChunk::WireSize() const {
  // Fixed fields + member roster + the chunk payload itself.
  return 22 + header.WireSize() + 4 * peers.size() + payload.size();
}

Bytes BodyChunk::Encode() const {
  return wire::Writer()
      .U64(round)
      .U32(shard)
      .Nested(header)
      .U16(index)
      .U16(k)
      .U16(n)
      .List(peers)
      .Blob(payload)
      .Take();
}

Result<BodyChunk> BodyChunk::Decode(ByteView data) {
  BodyChunk c;
  wire::Reader r(data);
  r.U64(&c.round)
      .U32(&c.shard)
      .Nested(&c.header)
      .U16(&c.index)
      .U16(&c.k)
      .U16(&c.n)
      .List(&c.peers)
      .Blob(&c.payload);
  PORYGON_RETURN_IF_ERROR(r.Finish("body-chunk"));
  return c;
}

size_t AggregatedWitness::WireSize() const {
  // Same compressed-access model as WitnessBundle: the aggregate replaces m
  // per-storage bundles with one deduplicated copy, so it must be charged
  // with the identical per-block cost model.
  size_t total = 16;
  for (const auto& b : blocks) total += b.WireSize();
  return total;
}

Bytes AggregatedWitness::Encode() const {
  return wire::Writer()
      .U64(batch_round)
      .U32(shard)
      .U32(aggregator)
      .List(blocks)
      .Take();
}

Result<AggregatedWitness> AggregatedWitness::Decode(ByteView data,
                                                    const SharedBytes& owner) {
  AggregatedWitness a;
  wire::Reader r(data);
  r.U64(&a.batch_round)
      .U32(&a.shard)
      .U32(&a.aggregator)
      .List(&a.blocks, owner);
  PORYGON_RETURN_IF_ERROR(r.Finish("agg-witness"));
  return a;
}

Bytes AggregatedExecResult::MemberSigningBytes() const {
  ExecResultMsg m;
  m.exec_round = exec_round;
  m.shard = shard;
  m.new_root = new_root;
  m.s_hash = s_hash;
  m.intra_applied = intra_applied;
  m.cross_pre_executed = cross_pre_executed;
  return m.SigningBytes();
}

size_t AggregatedExecResult::WireSize() const {
  // Fixed fields + varint-coded S set (modeled at the same ~8 B/update as
  // the exec-result path) + one 96-byte attestation pair per member.
  return 90 + (has_payload ? 8 * s_set.size() : 0) + 96 * signers.size();
}

Bytes AggregatedExecResult::Encode() const {
  wire::Writer w;
  w.U64(exec_round)
      .U32(shard)
      .Array(new_root)
      .Array(s_hash)
      .U32(intra_applied)
      .U32(cross_pre_executed)
      .Bool(has_payload);
  if (has_payload) w.List(s_set);
  // Attestations travel as (signer, signature) pairs under one count.
  w.U32(aggregator).Varint(signers.size());
  for (size_t i = 0; i < signers.size(); ++i) {
    w.Array(signers[i]).Array(signatures[i]);
  }
  return w.Take();
}

Result<AggregatedExecResult> AggregatedExecResult::Decode(ByteView data) {
  AggregatedExecResult a;
  wire::Reader r(data);
  r.U64(&a.exec_round)
      .U32(&a.shard)
      .Array(&a.new_root)
      .Array(&a.s_hash)
      .U32(&a.intra_applied)
      .U32(&a.cross_pre_executed)
      .Bool(&a.has_payload);
  if (a.has_payload) r.List(&a.s_set);
  uint64_t n = 0;
  r.U32(&a.aggregator).Count(&n, 32 + 64);
  if (r.ok()) {
    a.signers.resize(n);
    a.signatures.resize(n);
  }
  for (uint64_t i = 0; i < a.signers.size(); ++i) {
    r.Array(&a.signers[i]).Array(&a.signatures[i]);
  }
  PORYGON_RETURN_IF_ERROR(r.Finish("agg-exec-result"));
  return a;
}

std::vector<consensus::Vote> CompactVoteCert::ToVotes(
    const std::vector<crypto::PublicKey>& committee) const {
  std::vector<consensus::Vote> votes;
  size_t sig_idx = 0;
  for (size_t i = 0; i < 64; ++i) {
    if (!(bitmap & (uint64_t{1} << i))) continue;
    // A bit past the committee or beyond the signature list makes the whole
    // cert malformed — return nothing rather than a partial vote set.
    if (i >= committee.size() || sig_idx >= signatures.size()) return {};
    consensus::Vote v;
    v.instance = instance;
    v.step = step;
    v.kind = kind;
    v.value = value;
    v.voter = committee[i];
    v.signature = signatures[sig_idx++];
    votes.push_back(v);
  }
  if (sig_idx != signatures.size()) return {};  // Unclaimed signatures.
  return votes;
}

size_t CompactVoteCert::WireSize() const {
  return 54 + 64 * signatures.size();
}

Bytes CompactVoteCert::Encode() const {
  return wire::Writer()
      .U64(instance)
      .U32(step)
      .U8(kind)
      .Array(value)
      .U64(bitmap)
      .List(signatures)
      .Take();
}

Result<CompactVoteCert> CompactVoteCert::Decode(ByteView data) {
  CompactVoteCert c;
  wire::Reader r(data);
  r.U64(&c.instance)
      .U32(&c.step)
      .U8(&c.kind)
      .Array(&c.value)
      .U64(&c.bitmap)
      .List(&c.signatures);
  PORYGON_RETURN_IF_ERROR(r.Finish("vote-cert"));
  return c;
}

Bytes RelayAck::Encode() const {
  return wire::Writer().U64(round).Array(digest).Take();
}

Result<RelayAck> RelayAck::Decode(ByteView data) {
  RelayAck a;
  wire::Reader r(data);
  r.U64(&a.round).Array(&a.digest);
  PORYGON_RETURN_IF_ERROR(r.Finish("relay-ack"));
  return a;
}

}  // namespace porygon::core
