#include "state/account.h"

#include "common/wire.h"

namespace porygon::state {

Bytes EncodeAccount(const Account& account) {
  Bytes out(kAccountSize);
  EncodeAccountTo(account, out.data());
  return out;
}

void EncodeAccountTo(const Account& account, uint8_t* out) {
  StoreLittleEndian64(out, account.balance);
  StoreLittleEndian64(out + 8, account.nonce);
}

Result<Account> DecodeAccount(ByteView data) {
  Account account;
  wire::Reader r(data);
  r.U64(&account.balance).U64(&account.nonce);
  PORYGON_RETURN_IF_ERROR(r.Finish("account"));
  return account;
}

Bytes AccountKey(AccountId id) { return wire::Writer().U64(id).Take(); }

Result<AccountId> DecodeAccountKey(ByteView data) {
  AccountId id = 0;
  wire::Reader r(data);
  r.U64(&id);
  PORYGON_RETURN_IF_ERROR(r.Finish("account key"));
  return id;
}

}  // namespace porygon::state
