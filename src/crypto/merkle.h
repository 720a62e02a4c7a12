#ifndef PORYGON_CRYPTO_MERKLE_H_
#define PORYGON_CRYPTO_MERKLE_H_

#include <vector>

#include "crypto/sha256.h"

namespace porygon::crypto {

/// Merkle root over an ordered list of hashes (binary; odd nodes pair with
/// themselves). Empty list hashes to ZeroHash(). Used for transaction-block
/// tx roots and for aggregating shard subtree roots into the global state
/// root.
Hash256 ComputeMerkleRoot(const std::vector<Hash256>& leaves);

}  // namespace porygon::crypto

#endif  // PORYGON_CRYPTO_MERKLE_H_
