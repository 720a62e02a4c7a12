#include "tx/transaction.h"

#include <algorithm>
#include <cstring>

#include "common/wire.h"

namespace porygon::tx {

namespace {
// The body encoding: five little-endian u64s, as wire::Writer::U64 writes
// them.
void WriteBody(const Transaction& t, uint8_t out[Transaction::kBodySize]) {
  StoreLittleEndian64(out, t.from);
  StoreLittleEndian64(out + 8, t.to);
  StoreLittleEndian64(out + 16, t.amount);
  StoreLittleEndian64(out + 24, t.nonce);
  StoreLittleEndian64(out + 32, t.submitted_at);
}
}  // namespace

TxId Transaction::Id() const {
  uint8_t body[kBodySize];
  WriteBody(*this, body);
  return crypto::Sha256::Hash(ByteView(body, sizeof(body)));
}

void Transaction::Ids(const Transaction* transactions, size_t count,
                      TxId* out) {
  constexpr size_t kChunk = 16 * crypto::Sha256::kLanes;
  uint8_t bodies[kChunk * kBodySize];
  for (size_t base = 0; base < count; base += kChunk) {
    const size_t n = std::min(kChunk, count - base);
    for (size_t i = 0; i < n; ++i) {
      WriteBody(transactions[base + i], bodies + i * kBodySize);
    }
    crypto::Sha256::HashBatch(bodies, kBodySize, n, out + base);
  }
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
  r->U64(&from).U64(&to).U64(&amount).U64(&nonce).U64(&submitted_at).Array(
      &signature);
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
