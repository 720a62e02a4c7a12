#ifndef PORYGON_STATE_SMT_H_
#define PORYGON_STATE_SMT_H_

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "common/flat_map.h"
#include "crypto/sha256.h"

namespace porygon::state {

/// Membership/absence proof: one sibling hash per level, root-adjacent first.
struct MerkleProof {
  std::vector<crypto::Hash256> siblings;  // Depth entries.
  /// Serialized size in bytes, for the bandwidth model (storage nodes ship
  /// proofs alongside states, §IV-C1(c)).
  size_t WireSize() const { return siblings.size() * sizeof(crypto::Hash256); }

  Bytes Encode() const;
  static Result<MerkleProof> Decode(ByteView data);
};

/// Sparse Merkle tree of fixed depth over 64-bit keys. Absent keys hash to a
/// per-level default, so the tree is O(occupied keys) in memory while proofs
/// behave as if all 2^64 leaves existed. Leaf hash = H(0x00 || key_le ||
/// value); inner = H(0x01 || left || right); the empty leaf is H(0x02).
///
/// This is the authenticated index over accounts that storage nodes maintain
/// and stateless nodes verify: updates with Merkle paths, root computation,
/// and incremental rehashing of the written paths. The tree stores hashes
/// only; callers keep the values themselves (ShardedState, PartialState).
class SparseMerkleTree {
 public:
  static constexpr int kDepth = 64;

  SparseMerkleTree();

  /// Sets `key` to `value` (empty value deletes the leaf).
  void Put(uint64_t key, ByteView value);
  void Delete(uint64_t key) { Put(key, ByteView()); }

  /// Applies many writes and rehashes each affected tree path once,
  /// level by level. For a block of k updates this costs
  /// O(k + distinct-path-nodes) hashes instead of O(k * depth) — the
  /// difference between microseconds and milliseconds per committed block
  /// (see bench/micro_state). Last write wins for duplicate keys.
  void PutBatch(const std::vector<std::pair<uint64_t, Bytes>>& writes);

  /// Current root hash.
  crypto::Hash256 Root() const;

  /// Proof for `key` (valid for both membership and absence).
  MerkleProof Prove(uint64_t key) const;

  /// Verifies that `value` (empty = absent) is the value of `key` under
  /// `root`. Static: verification needs no tree, only the proof — this is
  /// what stateless nodes run.
  static bool Verify(const crypto::Hash256& root, uint64_t key, ByteView value,
                     const MerkleProof& proof);

  /// Builds a *partial* tree from a proof: verifies (key, value, proof)
  /// against `expected_root`, then stores the leaf hash, every node on its
  /// path, and every sibling hash. After injecting proofs for all accounts a
  /// block touches, a stateless node can PutBatch updated values and read
  /// the correct new Root() without ever holding the full state — this is
  /// the Execution Phase of a stateless ESC member (§IV-C1(c)).
  Status InjectProof(uint64_t key, ByteView value, const MerkleProof& proof,
                     const crypto::Hash256& expected_root);

  /// Number of non-default leaf hashes: the live leaves of a full tree (a
  /// partial tree also counts the sibling leaves its proofs carried).
  size_t LeafCount() const { return nodes_[kDepth].size(); }

 private:
  // (prefix, hash) at one level, sorted by prefix with no repeats.
  using Frontier = std::vector<std::pair<uint64_t, crypto::Hash256>>;

  static crypto::Hash256 LeafHash(uint64_t key, ByteView value);
  static const std::array<crypto::Hash256, kDepth + 1>& Defaults();

  // Node hash at (level, prefix); falls back to the level default.
  const crypto::Hash256& NodeAt(int level, uint64_t prefix) const;
  // Stores (or, for the level default, drops) one node hash.
  void SetNode(int level, uint64_t prefix, const crypto::Hash256& hash);
  // Stores the leaf-level frontier and rehashes it up to the root.
  void Rehash(Frontier frontier);

  // nodes_[level] maps prefix -> hash for non-default nodes. Level 0 is the
  // root (prefix 0), level kDepth are leaves (prefix == key).
  std::vector<U64Map<crypto::Hash256>> nodes_;
};

}  // namespace porygon::state

#endif  // PORYGON_STATE_SMT_H_
