#ifndef PORYGON_STATE_SMT_H_
#define PORYGON_STATE_SMT_H_

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
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
/// per-level default, so proofs behave as if all 2^64 leaves existed. Leaf
/// hash = H(0x00 || key_le || value); inner = H(0x01 || left || right); the
/// empty leaf is H(0x02). The node at level l on a key's path holds the
/// keys sharing its top l bits; level 0 is the root, level 64 the leaves.
///
/// This is the authenticated index over accounts that storage nodes maintain
/// and stateless nodes verify: updates with Merkle paths, root computation,
/// and incremental rehashing of the written paths. The tree stores hashes
/// only; callers keep the values themselves (ShardedState, PartialState).
///
/// Storage is path-compressed: one record per live leaf (key, leaf hash)
/// and one per branch node (level, two children), so a tree of n leaves
/// holds 2n − 1 records. Every other non-default node lies on a chain of
/// single children between a record and its parent branch, and its hash is
/// the record's hash lifted through the per-level defaults; each record
/// caches that lift up to the level just below its parent (level 0 for the
/// topmost record, whose lift is the root). A tree built from proofs
/// (InjectProof) also holds stubs: a proof sibling's position and hash,
/// with nothing known below it until a later proof expands it.
class SparseMerkleTree {
 public:
  static constexpr int kDepth = 64;

  /// Sets `key` to `value` (empty value deletes the leaf): PutBatch with
  /// one write.
  void Put(uint64_t key, ByteView value);
  void Delete(uint64_t key) { Put(key, ByteView()); }

  /// Applies many writes (an empty value deletes; last write wins for
  /// duplicate keys), hashing each affected node once: O(k +
  /// distinct-path-nodes) hashes for k writes instead of O(k * depth).
  /// The leaf hashes are one batch per value length. A recursive merge of
  /// the sorted leaf frontier into the records then fixes the structure
  /// and lists, by level, each branch whose own hash is stale and each
  /// record whose lift is. One sweep from the leaves to the root rehashes
  /// them: at each level, the branches there in one batch (their children
  /// are already lifted to the level below), then every pending lift one
  /// step up in another. See Sha256::HashBatch.
  ///
  /// Precondition: no written key lies under a stub (a key whose proof was
  /// injected never does). A violation trips a debug assert; release
  /// builds leave the stub and drop the writes under it.
  void PutBatch(const std::vector<std::pair<uint64_t, ByteView>>& writes);
  void PutBatch(const std::vector<std::pair<uint64_t, Bytes>>& writes);

  /// Current root hash.
  crypto::Hash256 Root() const;

  /// Proof for `key` (valid for both membership and absence). For a key
  /// under a stub the siblings below the stub are unknown and read as
  /// defaults.
  MerkleProof Prove(uint64_t key) const;

  /// Verifies that `value` (empty = absent) is the value of `key` under
  /// `root`. Static: verification needs no tree, only the proof — this is
  /// what stateless nodes run.
  static bool Verify(const crypto::Hash256& root, uint64_t key, ByteView value,
                     const MerkleProof& proof);

  /// Builds a *partial* tree from a proof: verifies (key, value, proof)
  /// against `expected_root`, then adds the records of the key's path that
  /// the tree lacks, keeping each non-default sibling as a stub (a leaf
  /// for a sibling leaf). After injecting proofs for all accounts a block
  /// touches, a stateless node can PutBatch updated values and read the
  /// correct new Root() without ever holding the full state — this is the
  /// Execution Phase of a stateless ESC member (§IV-C1(c)). Every proof
  /// injected into one tree is against the same root, before any write.
  Status InjectProof(uint64_t key, ByteView value, const MerkleProof& proof,
                     const crypto::Hash256& expected_root);

  /// Number of leaf records: the live leaves of a full tree (a partial
  /// tree also counts the sibling leaves its proofs carried).
  size_t LeafCount() const { return leaves_; }
  /// Records held: leaves, branches and stubs.
  size_t NodeCount() const { return nodes_.size() - free_.size(); }
  /// Bytes allocated for the records and their free list.
  size_t MemoryBytes() const {
    return nodes_.capacity() * sizeof(Node) +
           free_.capacity() * sizeof(uint32_t);
  }

 private:
  static constexpr uint32_t kNone = ~uint32_t{0};

  // A leaf (level kDepth), a branch (two children) or a stub (level below
  // kDepth, no children).
  struct Node {
    uint64_t key;            // Leaf: its key; else the level's prefix bits.
    crypto::Hash256 lifted;  // `hash` lifted to just below the parent.
    crypto::Hash256 hash;    // This node's own hash at `level`.
    uint32_t child[2];       // Branch only; kNone otherwise.
    uint8_t level;
  };
  // The records, in chunks of 8,192 (720 KB): growing adds a chunk and never
  // copies a record, so a large tree grows without a transient second copy
  // of its store. A chunk's untouched pages are never resident.
  class Records {
   public:
    Node& operator[](size_t i) { return chunks_[i >> kShift][i & kMask]; }
    const Node& operator[](size_t i) const {
      return chunks_[i >> kShift][i & kMask];
    }
    size_t size() const { return size_; }
    size_t capacity() const { return chunks_.size() << kShift; }
    void push_back(const Node& node) {
      if (size_ == capacity()) {
        chunks_.push_back(
            std::make_unique_for_overwrite<Node[]>(size_t{1} << kShift));
      }
      (*this)[size_++] = node;
    }

   private:
    static constexpr int kShift = 13;
    static constexpr size_t kMask = (size_t{1} << kShift) - 1;
    std::vector<std::unique_ptr<Node[]>> chunks_;
    size_t size_ = 0;
  };

  // One frontier entry: a key and its new leaf hash (the empty-leaf default
  // deletes).
  struct Write {
    uint64_t key;
    crypto::Hash256 hash;
  };
  // A record whose cached lift must be recomputed for a chain that now
  // starts at `top`.
  struct LiftJob {
    uint32_t index;
    int top;
  };
  // What a merge leaves stale: branches whose own hash must be recomputed
  // from their children's lifts, and records whose lift must be.
  struct Stale {
    std::vector<uint32_t> branches;
    std::vector<LiftJob> lifts;
  };

  static crypto::Hash256 LeafHash(uint64_t key, ByteView value);
  static const std::array<crypto::Hash256, kDepth + 1>& Defaults();
  // `hash` of the node at `level` on `key`'s path, lifted through single
  // children up to level `top`.
  static crypto::Hash256 Lift(crypto::Hash256 hash, int level, uint64_t key,
                              int top);

  static bool IsStub(const Node& n) {
    return n.level < kDepth && n.child[0] == kNone;
  }
  uint32_t Alloc(uint64_t key, int level, const crypto::Hash256& hash);
  void Free(uint32_t index);
  // A branch at `level` over `children`; its hash and their lifts to
  // level + 1 are left stale.
  uint32_t NewBranch(int level, uint64_t key, const uint32_t children[2],
                     Stale* stale);

  // Merges the sorted, deduplicated frontier (leaf hashes set) into the
  // records, then rehashes what the merge left stale, level by level.
  void Apply(const Write* first, const Write* last);
  // Applies the writes [first, last) to the subtree whose topmost record is
  // `index` (kNone: empty) and returns its new topmost record (kNone if it
  // emptied). The returned record's own hash is listed stale or current;
  // the caller lists its lift to wherever its chain now starts.
  uint32_t Merge(uint32_t index, const Write* first, const Write* last,
                 Stale* stale);
  // Merge into an empty subtree: deletes are skipped.
  uint32_t Build(const Write* first, const Write* last, Stale* stale);
  // The level sweep over what Merge left stale.
  void Rehash(const Stale& stale);
  // The records a verified proof adds below level `top`, from its path
  // hashes (`path[l]` = the key's node hash at level l); returns the
  // topmost one, lifted to `top`.
  uint32_t BuildFromProof(uint64_t key, bool present, const MerkleProof& proof,
                          const std::array<crypto::Hash256, kDepth + 1>& path,
                          int top);

  Records nodes_;               // Freed slots are reused.
  std::vector<uint32_t> free_;  // Indices of freed records.
  uint32_t root_ = kNone;       // Topmost record; kNone when empty.
  size_t leaves_ = 0;
};

}  // namespace porygon::state

#endif  // PORYGON_STATE_SMT_H_
