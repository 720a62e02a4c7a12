#include "tx/transaction.h"

#include <cstring>

namespace porygon::tx {

namespace {
// The body encoding: five little-endian u64s, as Encoder::PutU64 writes them.
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

Bytes Transaction::Encode() const {
  Bytes out(kBodySize + signature.size());
  WriteBody(*this, out.data());
  std::memcpy(out.data() + kBodySize, signature.data(), signature.size());
  return out;
}

Result<Transaction> Transaction::Decode(ByteView data) {
  Decoder dec(data);
  PORYGON_ASSIGN_OR_RETURN(Transaction t, [&]() -> Result<Transaction> {
    return DecodeFrom(&dec);
  }());
  if (!dec.Done()) return Status::Corruption("trailing bytes after tx");
  return t;
}

Result<Transaction> Transaction::DecodeFrom(Decoder* dec) {
  Transaction t;
  PORYGON_ASSIGN_OR_RETURN(t.from, dec->GetU64());
  PORYGON_ASSIGN_OR_RETURN(t.to, dec->GetU64());
  PORYGON_ASSIGN_OR_RETURN(t.amount, dec->GetU64());
  PORYGON_ASSIGN_OR_RETURN(t.nonce, dec->GetU64());
  PORYGON_ASSIGN_OR_RETURN(t.submitted_at, dec->GetU64());
  PORYGON_ASSIGN_OR_RETURN(Bytes sig, dec->GetFixed(t.signature.size()));
  std::memcpy(t.signature.data(), sig.data(), t.signature.size());
  return t;
}

bool Transaction::operator==(const Transaction& other) const {
  return from == other.from && to == other.to && amount == other.amount &&
         nonce == other.nonce && submitted_at == other.submitted_at &&
         signature == other.signature;
}

}  // namespace porygon::tx
