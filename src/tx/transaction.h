#ifndef PORYGON_TX_TRANSACTION_H_
#define PORYGON_TX_TRANSACTION_H_

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "common/wire.h"
#include "crypto/ed25519.h"
#include "crypto/sha256.h"
#include "state/account.h"

namespace porygon::tx {

using TxId = crypto::Hash256;

/// A value transfer in the account model. The paper's transactions are
/// ~112 bytes on the wire; our encoding matches that budget (5 x u64 body +
/// 64-byte signature + framing).
struct Transaction {
  state::AccountId from = 0;
  state::AccountId to = 0;
  uint64_t amount = 0;
  /// Sender nonce; execution rejects replays/duplicates (§IV-C1(c)).
  uint64_t nonce = 0;
  /// Client submission time (µs, virtual) — drives user-perceived latency.
  uint64_t submitted_at = 0;
  crypto::Signature signature{};

  /// Hash of the body (everything but the signature): SHA-256 of the first
  /// kBodySize bytes of Encode().
  TxId Id() const;
  /// Id() of `count` transactions into out[0..count), their bodies staged
  /// side by side and hashed in batches (Sha256::HashBatch).
  static void Ids(const Transaction* transactions, size_t count, TxId* out);
  /// Id() of `count` encoded transactions (EncodeTo's records, back to back
  /// from `records`) into out[0..count), with no decode: a record starts
  /// with the body Id() hashes, so its first kBodySize bytes are hashed as
  /// they are, in batches.
  static void IdsOfRecords(const uint8_t* records, size_t count, TxId* out);
  /// The transfer an encoded record describes, without its signature: the
  /// fields its id covers.
  static Transaction BodyOfRecord(const uint8_t* record);

  /// Declared read/write set, the paper's "accessed states ... pre-recorded
  /// using software tools": a transfer touches exactly {from, to}.
  std::vector<state::AccountId> AccessedAccounts() const { return {from, to}; }

  /// Cross-shard iff the two accounts map to different shards.
  bool IsCrossShard(int shard_bits) const {
    return state::ShardOfAccount(from, shard_bits) !=
           state::ShardOfAccount(to, shard_bits);
  }

  /// Encoded body: five little-endian u64 fields.
  static constexpr size_t kBodySize = 5 * 8;
  /// Body plus signature: the whole encoding, and its size as a list
  /// element of a block body.
  static constexpr size_t kMinWireSize = kBodySize + sizeof(crypto::Signature);

  /// Wire footprint charged by the bandwidth model.
  static constexpr size_t kWireSize = 112;

  Bytes Encode() const;
  static Result<Transaction> Decode(ByteView data);
  /// Streamed forms of Encode/Decode, for block bodies.
  void EncodeTo(wire::Writer* w) const;
  void DecodeFrom(wire::Reader* r);

  bool operator==(const Transaction& other) const;
};

}  // namespace porygon::tx

#endif  // PORYGON_TX_TRANSACTION_H_
