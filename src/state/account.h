#ifndef PORYGON_STATE_ACCOUNT_H_
#define PORYGON_STATE_ACCOUNT_H_

#include <cstdint>

#include "common/bytes.h"
#include "common/status.h"

namespace porygon::state {

/// Account identifier. The paper shards accounts by the last N digits of
/// their IDs; we use the last N *bits* of this 64-bit id.
using AccountId = uint64_t;

/// Account-based state: balance plus a nonce for replay protection
/// ("duplicate transactions ... are abandoned", §IV-C1(c)).
struct Account {
  uint64_t balance = 0;
  uint64_t nonce = 0;

  bool operator==(const Account&) const = default;
};

/// Shard index of an account under 2^n_bits shards.
inline uint32_t ShardOfAccount(AccountId id, int n_bits) {
  if (n_bits <= 0) return 0;
  return static_cast<uint32_t>(id & ((uint64_t{1} << n_bits) - 1));
}

/// 16-byte little-endian encoding (balance | nonce).
constexpr size_t kAccountSize = 16;
Bytes EncodeAccount(const Account& account);
/// The same encoding into `out` (kAccountSize bytes), for callers that stage
/// many without a heap buffer each.
void EncodeAccountTo(const Account& account, uint8_t* out);
Result<Account> DecodeAccount(ByteView data);

/// Canonical 8-byte little-endian key for the state tree / storage engine.
Bytes AccountKey(AccountId id);
Result<AccountId> DecodeAccountKey(ByteView data);

}  // namespace porygon::state

#endif  // PORYGON_STATE_ACCOUNT_H_
