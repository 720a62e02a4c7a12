#include "tx/transaction.h"

#include <algorithm>
#include <cstring>

#include "common/wire.h"

namespace porygon::tx {

namespace {
// The body encoding: five little-endian u64s, as wire::Writer::U64 writes
// them. It is Id()'s preimage and the first kBodySize bytes of every
// record (EncodeTo), which is what lets IdsOfRecords hash records without
// decoding them; BodyOfRecord reads it back.
void WriteBody(const Transaction& t, uint8_t out[Transaction::kBodySize]) {
  StoreLittleEndian64(out, t.from);
  StoreLittleEndian64(out + 8, t.to);
  StoreLittleEndian64(out + 16, t.amount);
  StoreLittleEndian64(out + 24, t.nonce);
  StoreLittleEndian64(out + 32, t.submitted_at);
}

// The ids of `count` bodies into out[0..count): stage(i, body) writes body i
// into a stack chunk, and each chunk is hashed in one batch
// (Sha256::HashBatch).
template <typename Stage>
void HashBodies(size_t count, TxId* out, Stage stage) {
  constexpr size_t kChunk = 16 * crypto::Sha256::kLanes;
  uint8_t bodies[kChunk * Transaction::kBodySize];
  for (size_t base = 0; base < count; base += kChunk) {
    const size_t n = std::min(kChunk, count - base);
    for (size_t i = 0; i < n; ++i) {
      stage(base + i, bodies + i * Transaction::kBodySize);
    }
    crypto::Sha256::HashBatch(bodies, Transaction::kBodySize, n, out + base);
  }
}

static_assert(Transaction::kBodySize == 5 * 8 &&
                  Transaction::kMinWireSize ==
                      Transaction::kBodySize + sizeof(crypto::Signature),
              "a record is WriteBody's five fields, then the signature");
}  // namespace

TxId Transaction::Id() const {
  uint8_t body[kBodySize];
  WriteBody(*this, body);
  return crypto::Sha256::Hash(ByteView(body, sizeof(body)));
}

void Transaction::Ids(const Transaction* transactions, size_t count,
                      TxId* out) {
  HashBodies(count, out, [transactions](size_t i, uint8_t* body) {
    WriteBody(transactions[i], body);
  });
}

void Transaction::IdsOfRecords(const uint8_t* records, size_t count,
                               TxId* out) {
  HashBodies(count, out, [records](size_t i, uint8_t* body) {
    std::memcpy(body, records + i * kMinWireSize, kBodySize);
  });
}

Transaction Transaction::BodyOfRecord(const uint8_t* record) {
  Transaction t;
  t.from = LoadLittleEndian64(record);
  t.to = LoadLittleEndian64(record + 8);
  t.amount = LoadLittleEndian64(record + 16);
  t.nonce = LoadLittleEndian64(record + 24);
  t.submitted_at = LoadLittleEndian64(record + 32);
  return t;
}

void Transaction::EncodeTo(wire::Writer* w) const {
  uint8_t out[kMinWireSize];
  WriteBody(*this, out);
  std::memcpy(out + kBodySize, signature.data(), signature.size());
  w->Raw(ByteView(out, sizeof(out)));
}

Bytes Transaction::Encode() const {
  wire::Writer w;
  EncodeTo(&w);
  return w.Take();
}

void Transaction::DecodeFrom(wire::Reader* r) {
  ByteView record;
  if (!r->Raw(kMinWireSize, &record).ok()) return;
  *this = BodyOfRecord(record.data());
  std::memcpy(signature.data(), record.data() + kBodySize, signature.size());
}

Result<Transaction> Transaction::Decode(ByteView data) {
  Transaction t;
  wire::Reader r(data);
  t.DecodeFrom(&r);
  PORYGON_RETURN_IF_ERROR(r.Finish("tx"));
  return t;
}

bool Transaction::operator==(const Transaction& other) const {
  return from == other.from && to == other.to && amount == other.amount &&
         nonce == other.nonce && submitted_at == other.submitted_at &&
         signature == other.signature;
}

}  // namespace porygon::tx
