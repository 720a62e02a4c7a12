#ifndef PORYGON_CORE_MESSAGES_H_
#define PORYGON_CORE_MESSAGES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "consensus/ba_star.h"
#include "core/committee.h"
#include "net/network.h"
#include "obs/trace.h"
#include "state/account.h"
#include "tx/blocks.h"
#include "tx/transaction.h"

namespace porygon::core {

/// Protocol message kinds. Values double as traffic-accounting buckets
/// (Fig 9b groups them into phases).
enum MsgKind : uint16_t {
  kMsgTxBlock = 2,        ///< storage -> EC member: full transaction block.
  kMsgWitnessUpload = 3,  ///< EC member -> storage: witness proof.
  kMsgWitnessBundle = 4,  ///< storage -> OC member: witnessed headers+proofs.
  kMsgRelay = 5,          ///< stateless -> storage: routed inner message.
  kMsgProposal = 6,       ///< OC leader -> OC members: proposal block.
  kMsgVote = 7,           ///< OC member -> OC members: BA* vote.
  kMsgExecRequest = 8,    ///< storage -> ESC member: per-shard exec inputs.
  kMsgStateRequest = 9,   ///< ESC member -> storage: account list.
  kMsgStateResponse = 10, ///< storage -> ESC member: accounts (+proof bytes).
  kMsgExecResult = 11,    ///< ESC member -> OC: signed execution results.
  kMsgCommit = 12,        ///< OC leader -> storage: committed block + cert.
  kMsgNewRound = 13,      ///< storage -> stateless: round start.
  kMsgRoleAnnounce = 14,  ///< stateless -> storage: my role this round.
  kMsgGossip = 15,        ///< storage <-> storage: replication.
  kMsgResync = 16,        ///< stateless -> storage: chain-tip catch-up ask.
  // Tree-dissemination kinds (net::DisseminationMode::kTree only; a direct
  // run never sends them, keeping its byte stream identical to builds that
  // predate the strategy layer).
  kMsgBodyChunk = 17,     ///< storage/EC peer: erasure-coded body chunk.
  kMsgAggWitness = 18,    ///< relay -> OC leader: merged witnessed blocks.
  kMsgAggExecResult = 19, ///< relay -> OC: batched exec-result votes.
  kMsgVoteCert = 20,      ///< vote relay -> OC: compact bitmap vote cert.
  kMsgRelayAck = 21,      ///< storage -> sender: relay-delivery digest ack.
  kMsgDecisionCert = 22,  ///< OC member -> OC members: transferable cert.
};

/// Maps a message kind to the pipeline phase whose budget it spends
/// (Fig 9b): 0 = Witness, 1 = Ordering, 2 = Execution, 3 = Commit,
/// -1 = other (client traffic, gossip).
int PhaseOfKind(uint16_t kind);

/// Stable export-label name for a message kind ("tx_block", "vote", ...);
/// unknown kinds map to "unknown".
const char* MsgKindName(uint16_t kind);

/// Stable export-label name for a PhaseOfKind() result ("witness",
/// "ordering", "execution", "commit"; -1 maps to "other").
const char* PhaseLabelName(int phase);

/// The 32 raw bytes of an id (block, tx or proposal hash) as a map key.
std::string IdKey(const crypto::Hash256& h);

/// What an EC member signs to witness a block: "porygon.witness" followed
/// by the header encoding (§IV-C1(a)).
Bytes WitnessSigningBytes(const tx::TransactionBlockHeader& header);

/// A stateless node announcing its self-selected role for a round, with the
/// VRF proof that storage nodes and peers verify (§IV-B3).
struct RoleAnnounce {
  uint64_t round = 0;
  uint8_t role = 0;  ///< Mirrors core::Role.
  uint32_t shard = 0;
  double sortition = 1.0;
  crypto::PublicKey node_key{};
  crypto::VrfProof proof{};
  net::NodeId node_id = net::kInvalidNode;  ///< Sim address for replies.

  Bytes Encode() const;
  static Result<RoleAnnounce> Decode(ByteView data);
};

/// Chain-tip catch-up request (stateless -> storage): sent by the failover
/// watchdog after rotating primaries, and by recovery probes. The storage
/// node answers with a kMsgNewRound carrying its committed tip's header;
/// the receiver's stale-round check makes the reply idempotent.
struct ResyncRequest {
  uint64_t round = 0;  ///< The requester's current round (diagnostics).

  Bytes Encode() const;
  static Result<ResyncRequest> Decode(ByteView data);
};

/// The committed tip as a stateless node keeps it (storage -> stateless,
/// kMsgNewRound): the verification material of the last proposal block,
/// never its lists (§VI, Fig 9a). Every receiver gets this one layout.
struct TipHeader {
  /// tx::ProposalBlock{}.WireSize(): a node that never heard a round start
  /// keeps an empty block's footprint.
  static constexpr uint64_t kEmptyBlockSize = 132;

  uint64_t height = 0;  ///< OC members propose height + 1.
  uint64_t round = 0;   ///< The next round is round + 1 (stale-round check).
  /// SHA-256 of the block's encoding: the sortition seed and the next
  /// proposal's prev_hash.
  crypto::Hash256 hash{};
  /// T: the block's shard roots, which OC members carry into the next
  /// proposal.
  std::vector<crypto::Hash256> shard_roots;
  /// The block's encoded size: what a direct-mode OC member is billed for
  /// the round start, and the block term of StorageFootprintBytes.
  uint64_t encoded_size = kEmptyBlockSize;

  /// The header of `block`, hashed and sized from one encoding.
  static TipHeader Of(const tx::ProposalBlock& block);

  Bytes Encode() const;
  static Result<TipHeader> Decode(ByteView data);
};

/// Witness proof upload (EC member -> storage node).
struct WitnessUpload {
  uint64_t round = 0;
  uint32_t shard = 0;
  tx::WitnessProof proof{};

  Bytes Encode() const;
  static Result<WitnessUpload> Decode(ByteView data);
};

// Access records live beside Transaction (tx/transaction.h); witnessed
// blocks carry them encoded (AccessRecords).
using tx::TxAccess;
using tx::ToAccess;

/// A witnessed block's access list as it travels: one TxAccess record of
/// kRecordSize bytes per transaction, kept encoded in the buffer it arrived
/// in and decoded on read. Copies share the buffer, so an OC member's
/// bundles keep their received payloads alive rather than a decoded copy;
/// only the leader decodes, and only the blocks it orders.
class AccessRecords {
 public:
  /// One record: TxAccess::EncodeTo's fixed-width layout.
  static constexpr size_t kRecordSize = TxAccess::kMinWireSize;

  AccessRecords() = default;
  /// `accesses`, encoded into a buffer of their own.
  explicit AccessRecords(const std::vector<TxAccess>& accesses);
  /// The records of a stored block: transaction i with id ids[i], encoded
  /// into a buffer of their own.
  AccessRecords(const std::vector<tx::Transaction>& transactions,
                const std::vector<tx::TxId>& ids);

  size_t size() const { return records_.size() / kRecordSize; }
  /// Record i (i < size()), decoded.
  TxAccess At(size_t i) const;
  /// Appends every record, decoded, to `out`.
  void DecodeTo(std::vector<TxAccess>* out) const;
  /// The buffer the records live in (shared with every copy).
  const SharedBytes& buffer() const { return buffer_; }

  /// Writer::List's layout: a varint count, then the records.
  void EncodeTo(wire::Writer* w) const;
  /// Reads that layout (the count bounded by Reader::Count). The records
  /// stay in `owner` when it is given, which must hold the reader's input;
  /// otherwise they are copied into a buffer of their own.
  void DecodeFrom(wire::Reader* r, const SharedBytes& owner);

 private:
  SharedBytes buffer_;
  ByteView records_;  // Inside buffer_.
};

/// One witnessed block as shipped to the OC: header, witness proofs, and
/// access records. Wire cost: header + proofs + ~6 B per transaction —
/// never the 112 B bodies.
struct WitnessedBlock {
  tx::TransactionBlockHeader header{};
  std::vector<tx::WitnessProof> proofs;
  AccessRecords records;

  /// As a bundle element: length prefix, header blob, two empty counts.
  static constexpr size_t kMinWireSize = 1 + 53 + 2;
  size_t WireSize() const;
  Bytes Encode() const;
  /// Decodes `data`. A receiver passes the payload `data` lies in as
  /// `owner`, and the access records stay in it (see AccessRecords).
  static Result<WitnessedBlock> Decode(ByteView data,
                                       const SharedBytes& owner = {});
  /// Encodes in place (bundles nest their blocks without a copy).
  void EncodeTo(wire::Writer* w) const;
};

/// Bundle of witnessed blocks for one batch round (storage -> OC member).
struct WitnessBundle {
  uint64_t batch_round = 0;
  std::vector<WitnessedBlock> blocks;

  size_t WireSize() const;
  Bytes Encode() const;
  /// As WitnessedBlock::Decode, for every block.
  static Result<WitnessBundle> Decode(ByteView data,
                                      const SharedBytes& owner = {});
};

/// Per-shard execution assignment derived from a committed proposal block
/// (storage -> ESC member). Blocks are referenced by id: the ESC witnessed
/// the bodies already.
struct ExecRequest {
  uint64_t round = 0;   ///< Round of the proposal block (B_r).
  uint32_t shard = 0;
  std::vector<tx::BlockId> block_ids;          ///< L_r[shard].
  std::vector<tx::StateUpdate> updates;        ///< U_r[shard].
  std::vector<tx::TxId> discarded;             ///< Conflict-discarded txs.
  crypto::Hash256 shard_root{};                ///< T_r[shard] to start from.
  /// All shard roots T_r (foreign-account proofs verify against these).
  std::vector<crypto::Hash256> all_roots;
  /// This shard's ESC member addresses; a member's rank decides whether it
  /// ships the full S set or only an attestation (bandwidth optimization on
  /// the result fan-in to the OC).
  std::vector<net::NodeId> members;

  Bytes Encode() const;
  static Result<ExecRequest> Decode(ByteView data);
};

/// State download request (ESC member -> storage).
struct StateRequest {
  uint64_t round = 0;
  uint32_t shard = 0;
  std::vector<state::AccountId> accounts;

  Bytes Encode() const;
  static Result<StateRequest> Decode(ByteView data);
};

/// State download response. The bandwidth model bills each requested
/// account's entry and Merkle proof. A faithful reply
/// (SystemOptions::faithful_execution) carries both, and its receiver
/// proves every entry against the committed roots. A fast-mode reply
/// carries neither: its receiver adopts the canonical execution results
/// and reads nothing here, so the reply is its round, shard and bill.
struct StateResponse {
  /// Modeled wire bytes of one entry.
  static constexpr uint64_t kEntryBytes = 17;

  uint64_t round = 0;
  uint32_t shard = 0;
  struct Entry {
    state::AccountId account = 0;
    bool present = false;
    state::Account value{};

    static constexpr size_t kMinWireSize = 8 + 1 + 8 + 8;
    void EncodeTo(wire::Writer* w) const;
    void DecodeFrom(wire::Reader* r);
  };
  std::vector<Entry> entries;  ///< Faithful mode only.
  /// What the reply is billed beyond its 12-byte head: kEntryBytes plus the
  /// proof's size per requested account (the materialized proof's wire
  /// size, or the modeled multiproof share in fast mode).
  uint64_t billed_bytes = 0;
  /// Serialized MerkleProofs aligned with `entries` (faithful mode only).
  std::vector<Bytes> proofs;

  size_t WireSize() const;
  Bytes Encode() const;
  static Result<StateResponse> Decode(ByteView data);
};

/// Signed execution result (ESC member -> OC members): the new subtree root
/// T and the cross-shard update set S for one batch.
struct ExecResultMsg {
  uint64_t exec_round = 0;   ///< Round whose proposal drove the execution.
  uint32_t shard = 0;
  crypto::Hash256 new_root{};
  /// Hash of the canonical S-set encoding; what Te-consistency counts.
  crypto::Hash256 s_hash{};
  /// Full payload carried only by the shard's lowest-ranked members; other
  /// members send 150-byte attestations (root + s_hash + signature), so the
  /// OC's downlink is not multiplied by the committee size.
  bool full = false;
  std::vector<tx::StateUpdate> s_set;
  uint32_t intra_applied = 0;
  uint32_t cross_pre_executed = 0;
  crypto::PublicKey signer{};
  crypto::Signature signature{};

  /// Computes s_hash from s_set.
  static crypto::Hash256 HashSSet(const std::vector<tx::StateUpdate>& s);

  /// Map key for one execution outcome, new_root || s_hash (64 bytes):
  /// identical execution gives an identical key, and the OC leader reads
  /// the root back from the first 32 bytes and the S hash from the last.
  static std::string ResultKey(const crypto::Hash256& new_root,
                               const crypto::Hash256& s_hash);

  /// Bytes covered by the signature.
  Bytes SigningBytes() const;
  Bytes Encode() const;
  static Result<ExecResultMsg> Decode(ByteView data);
};

/// Relay envelope for a stateless node's broadcast to the ordering
/// committee via a storage node. Storage forwards only target
/// kToOrderingCommittee with one of the kinds stateless nodes broadcast
/// there (proposal, vote, exec result, decision cert) and drops the rest.
/// The other targets and the `shard` / `dest` fields are never routed;
/// they stay because they are part of the billed wire layout.
struct Relay {
  /// 0 = single destination (dest), 1 = all OC members of `round`,
  /// 2 = all EC members of (`round`, `shard`).
  uint8_t target = 0;
  uint64_t round = 0;
  uint32_t shard = 0;
  net::NodeId dest = net::kInvalidNode;
  uint16_t inner_kind = 0;
  Bytes inner;
  /// Trace context of the sender, restored onto the forwarded message so a
  /// trace survives the storage hop. Encoded as an optional tail only when
  /// active: with tracing off the wire bytes (and thus all modeled timing)
  /// are identical to an untraced build.
  obs::TraceContext trace;

  static constexpr uint8_t kToNode = 0;
  static constexpr uint8_t kToOrderingCommittee = 1;
  static constexpr uint8_t kToShardCommittee = 2;

  Bytes Encode() const;
  static Result<Relay> Decode(ByteView data);
};

/// One erasure-coded chunk of a transaction-block body (tree mode). The
/// packaging storage node seeds chunk i of n to EC member i % |EC|; members
/// exchange chunks over the shard mesh and reconstruct once any k arrive
/// (common/erasure.h), so no single link carries |EC| full copies.
struct BodyChunk {
  uint64_t round = 0;
  uint32_t shard = 0;
  tx::TransactionBlockHeader header{};  ///< Identifies + validates the body.
  uint16_t index = 0;                   ///< Chunk index in [0, n).
  uint16_t k = 0;
  uint16_t n = 0;
  /// The shard's EC member addresses, so receivers can forward their seed
  /// chunks peer-to-peer without waiting for an ExecRequest roster.
  std::vector<net::NodeId> peers;
  Bytes payload;

  size_t WireSize() const;
  Bytes Encode() const;
  static Result<BodyChunk> Decode(ByteView data);
};

/// Per-shard witness aggregate (tree mode): the elected relay merges the m
/// storage nodes' witnessed blocks for one shard — deduplicating headers and
/// unioning proofs — and ships one message to the OC leader, replacing m
/// full WitnessBundle copies on the leader's downlink.
struct AggregatedWitness {
  uint64_t batch_round = 0;
  uint32_t shard = 0;
  net::NodeId aggregator = net::kInvalidNode;
  std::vector<WitnessedBlock> blocks;

  size_t WireSize() const;
  Bytes Encode() const;
  /// As WitnessedBlock::Decode, for every block.
  static Result<AggregatedWitness> Decode(ByteView data,
                                          const SharedBytes& owner = {});
};

/// Aggregated execution result (tree mode): one shard's exec-result votes
/// for a single (root, S-hash) outcome, batch-verified by the relay and
/// re-verified by receivers. Replaces |ESC| individual ExecResultMsg
/// broadcasts on every OC downlink with one message of 96-byte (signer,
/// signature) attestation pairs; the S set comes from the shard's rank-0
/// full ExecResultMsg. Relays send `has_payload` false and receivers read
/// neither it nor `s_set`; both stay because they are part of the billed
/// wire layout.
struct AggregatedExecResult {
  uint64_t exec_round = 0;
  uint32_t shard = 0;
  crypto::Hash256 new_root{};
  crypto::Hash256 s_hash{};
  uint32_t intra_applied = 0;
  uint32_t cross_pre_executed = 0;
  bool has_payload = false;
  std::vector<tx::StateUpdate> s_set;
  net::NodeId aggregator = net::kInvalidNode;
  std::vector<crypto::PublicKey> signers;
  std::vector<crypto::Signature> signatures;  ///< Aligned with `signers`.

  /// The per-member ExecResultMsg signing payload these signatures cover.
  Bytes MemberSigningBytes() const;

  size_t WireSize() const;
  Bytes Encode() const;
  static Result<AggregatedExecResult> Decode(ByteView data);
};

/// Compact BA* vote certificate (tree mode): all votes for one
/// (instance, step, kind, value) cell, with voters named by a bitmap over
/// the OC committee's canonical key order instead of 32-byte keys per vote.
/// ToVotes() reconstructs the exact consensus::Vote sequence, so BA* counts
/// them through its normal batch-verified OnVotes path.
struct CompactVoteCert {
  uint64_t instance = 0;
  uint32_t step = 0;
  uint8_t kind = 0;  ///< consensus::Vote::kSoft / kCert.
  crypto::Hash256 value{};
  uint64_t bitmap = 0;  ///< Bit i set = committee[i] voted (oc_size <= 64).
  std::vector<crypto::Signature> signatures;  ///< Ascending set-bit order.

  /// Votes in ascending committee order; empty if the bitmap popcount
  /// disagrees with `signatures` or indexes past the committee.
  std::vector<consensus::Vote> ToVotes(
      const std::vector<crypto::PublicKey>& committee) const;

  size_t WireSize() const;
  Bytes Encode() const;
  static Result<CompactVoteCert> Decode(ByteView data);
};

/// Delivery acknowledgement for tree-mode relays (storage -> sender): in
/// direct mode a committee broadcast echoes back to its in-committee sender
/// as a full copy, which doubles as the failover layer's delivery signal;
/// tree mode suppresses the echo and sends this 40-byte digest instead.
struct RelayAck {
  uint64_t round = 0;
  crypto::Hash256 digest{};  ///< SHA-256 of the acked relay payload.

  Bytes Encode() const;
  static Result<RelayAck> Decode(ByteView data);
};

}  // namespace porygon::core

#endif  // PORYGON_CORE_MESSAGES_H_
