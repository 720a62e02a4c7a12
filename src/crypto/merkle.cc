#include "crypto/merkle.h"

#include <algorithm>

namespace porygon::crypto {

namespace {
// Hashes the `n` nodes of one level into its (n + 1) / 2 parents, in
// batches of pairs staged on the stack; an odd last node pairs with itself.
// `parents` may be `level` itself: each batch is staged before its parents
// are written, and parent i overwrites node i, which only pairs at or
// before i read.
void FoldLevel(const Hash256* level, size_t n, Hash256* parents) {
  constexpr size_t kChunk = 16 * Sha256::kLanes;
  Hash256 pairs[2 * kChunk];
  const size_t count = (n + 1) / 2;
  for (size_t base = 0; base < count; base += kChunk) {
    const size_t batch = std::min(kChunk, count - base);
    for (size_t i = 0; i < 2 * batch; ++i) {
      pairs[i] = level[std::min(2 * base + i, n - 1)];
    }
    Sha256::HashBatch(pairs[0].data(), 2 * sizeof(Hash256), batch,
                      parents + base);
  }
}
}  // namespace

// One buffer: the first level reads the leaves, and every later level
// folds the buffer in place.
Hash256 ComputeMerkleRoot(const std::vector<Hash256>& leaves) {
  if (leaves.empty()) return ZeroHash();
  std::vector<Hash256> buffer((leaves.size() + 1) / 2);
  const Hash256* level = leaves.data();
  for (size_t n = leaves.size(); n > 1; n = (n + 1) / 2) {
    FoldLevel(level, n, buffer.data());
    level = buffer.data();
  }
  return level[0];
}

}  // namespace porygon::crypto
