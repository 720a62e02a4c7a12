#include "state/smt.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

namespace porygon::state {

using crypto::Hash256;
using crypto::Sha256;

namespace {
// Domain tags keep leaf and inner hashes from colliding.
constexpr uint8_t kLeafTag = 0x00;
constexpr uint8_t kInnerTag = 0x01;
constexpr uint8_t kEmptyTag = 0x02;

Hash256 InnerHash(const Hash256& left, const Hash256& right) {
  return Sha256::HashTaggedNodes(kInnerTag, left, right);
}

// Which child of its parent the node at `level` (1..64) on `key`'s path is.
int BitAt(uint64_t key, int level) {
  return static_cast<int>((key >> (SparseMerkleTree::kDepth - level)) & 1);
}

// The top `level` bits of `key`, the rest cleared.
uint64_t PrefixOf(uint64_t key, int level) {
  return level == 0 ? 0 : key & (~uint64_t{0} << (64 - level));
}

// Levels whose nodes two keys share.
int CommonLevels(uint64_t a, uint64_t b) {
  return a == b ? 64 : std::countl_zero(a ^ b);
}

// The first write whose key takes the 1-child at `level`: all keys in
// [first, last) share the levels above, so the 0-side sorts first.
template <typename W>
const W* SplitAt(const W* first, const W* last, int level) {
  return std::partition_point(
      first, last, [level](const W& w) { return BitAt(w.key, level) == 0; });
}
}  // namespace

Bytes MerkleProof::Encode() const {
  Bytes out;
  out.reserve(siblings.size() * 32);
  for (const auto& s : siblings) out.insert(out.end(), s.begin(), s.end());
  return out;
}

Result<MerkleProof> MerkleProof::Decode(ByteView data) {
  if (data.size() % 32 != 0) {
    return Status::Corruption("proof length not a multiple of 32");
  }
  MerkleProof p;
  p.siblings.resize(data.size() / 32);
  for (size_t i = 0; i < p.siblings.size(); ++i) {
    std::memcpy(p.siblings[i].data(), data.data() + 32 * i, 32);
  }
  return p;
}

Hash256 SparseMerkleTree::LeafHash(uint64_t key, ByteView value) {
  if (value.empty()) return Defaults()[kDepth];
  uint8_t prefix[1 + 8];
  prefix[0] = kLeafTag;
  StoreLittleEndian64(prefix + 1, key);
  return Sha256::Hash(ByteView(prefix, sizeof(prefix)), value);
}

const std::array<Hash256, SparseMerkleTree::kDepth + 1>&
SparseMerkleTree::Defaults() {
  static const std::array<Hash256, kDepth + 1>* defaults = [] {
    auto* d = new std::array<Hash256, kDepth + 1>();
    (*d)[kDepth] = Sha256::Hash(ByteView(&kEmptyTag, 1));
    for (int level = kDepth - 1; level >= 0; --level) {
      (*d)[level] = InnerHash((*d)[level + 1], (*d)[level + 1]);
    }
    return d;
  }();
  return *defaults;
}

Hash256 SparseMerkleTree::Lift(Hash256 hash, int level, uint64_t key,
                               int top) {
  const auto& defaults = Defaults();
  for (; level > top; --level) {
    hash = BitAt(key, level) ? InnerHash(defaults[level], hash)
                             : InnerHash(hash, defaults[level]);
  }
  return hash;
}

uint32_t SparseMerkleTree::Alloc(uint64_t key, int level, const Hash256& hash) {
  const Node node{key, hash, hash, {kNone, kNone}, static_cast<uint8_t>(level)};
  if (level == kDepth) ++leaves_;
  if (free_.empty()) {
    nodes_.push_back(node);
    return static_cast<uint32_t>(nodes_.size() - 1);
  }
  const uint32_t index = free_.back();
  free_.pop_back();
  nodes_[index] = node;
  return index;
}

void SparseMerkleTree::Free(uint32_t index) {
  if (nodes_[index].level == kDepth) --leaves_;
  free_.push_back(index);
}

void SparseMerkleTree::LiftTo(uint32_t index, int top) {
  Node& n = nodes_[index];
  n.lifted = Lift(n.hash, n.level, n.key, top);
}

uint32_t SparseMerkleTree::NewBranch(int level, uint64_t key,
                                     const uint32_t children[2]) {
  LiftTo(children[0], level + 1);
  LiftTo(children[1], level + 1);
  const uint32_t index =
      Alloc(PrefixOf(key, level), level,
            InnerHash(nodes_[children[0]].lifted, nodes_[children[1]].lifted));
  nodes_[index].child[0] = children[0];
  nodes_[index].child[1] = children[1];
  return index;
}

void SparseMerkleTree::Put(uint64_t key, ByteView value) {
  const Write write{key, LeafHash(key, value)};
  root_ = Merge(root_, &write, &write + 1);
  if (root_ != kNone) LiftTo(root_, 0);
}

void SparseMerkleTree::PutBatch(
    const std::vector<std::pair<uint64_t, Bytes>>& writes) {
  // Sort by key, ties by position, so the last write to a key ends its run;
  // only that write is hashed.
  std::vector<std::pair<uint64_t, size_t>> order;
  order.reserve(writes.size());
  for (size_t i = 0; i < writes.size(); ++i) {
    order.emplace_back(writes[i].first, i);
  }
  std::sort(order.begin(), order.end());
  std::vector<Write> frontier;
  frontier.reserve(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    if (i + 1 < order.size() && order[i + 1].first == order[i].first) continue;
    const auto& [key, value] = writes[order[i].second];
    frontier.push_back({key, LeafHash(key, value)});
  }
  if (frontier.empty()) return;
  root_ = Merge(root_, frontier.data(), frontier.data() + frontier.size());
  if (root_ != kNone) LiftTo(root_, 0);
}

uint32_t SparseMerkleTree::Merge(uint32_t index, const Write* first,
                                 const Write* last) {
  if (index == kNone) return Build(first, last);
  const int level = nodes_[index].level;
  const uint64_t key = nodes_[index].key;
  const int common =
      std::min({CommonLevels(key, first->key),
                CommonLevels(key, last[-1].key), level});
  const Hash256& deleted = Defaults()[kDepth];

  if (common == level) {
    if (level == kDepth) {
      // A leaf: the one write is to its key.
      if (first->hash == deleted) {
        Free(index);
        return kNone;
      }
      nodes_[index].hash = first->hash;
      return index;
    }
    if (IsStub(nodes_[index])) {
      assert(false && "SparseMerkleTree: write under an unexpanded stub");
      return index;
    }
    const Write* mid = SplitAt(first, last, level + 1);
    uint32_t children[2] = {nodes_[index].child[0], nodes_[index].child[1]};
    const bool dirty[2] = {first != mid, mid != last};
    if (dirty[0]) children[0] = Merge(children[0], first, mid);
    if (dirty[1]) children[1] = Merge(children[1], mid, last);
    if (children[0] == kNone || children[1] == kNone) {
      // The branch collapses: the survivor's chain now runs up to this
      // branch's parent, which lifts it.
      Free(index);
      return children[0] == kNone ? children[1] : children[0];
    }
    for (int side = 0; side < 2; ++side) {
      if (dirty[side]) LiftTo(children[side], level + 1);
    }
    Node& n = nodes_[index];
    n.child[0] = children[0];
    n.child[1] = children[1];
    n.hash = InnerHash(nodes_[children[0]].lifted, nodes_[children[1]].lifted);
    return index;
  }

  // Some writes leave this record's chain at level common + 1: a new branch
  // at `common` unless they only delete absent keys.
  const int side = BitAt(key, common + 1);
  const Write* mid = SplitAt(first, last, common + 1);
  const Write* own_first = side == 0 ? first : mid;
  const Write* own_last = side == 0 ? mid : last;
  const Write* other_first = side == 0 ? mid : first;
  const Write* other_last = side == 0 ? last : mid;
  const bool inserts = std::any_of(other_first, other_last, [&](const Write& w) {
    return w.hash != deleted;
  });
  const uint32_t own =
      own_first == own_last ? index : Merge(index, own_first, own_last);
  if (!inserts) return own;
  if (own == kNone) return Build(other_first, other_last);
  uint32_t children[2];
  children[side] = own;  // Re-lifted below the new branch.
  children[1 - side] = Build(other_first, other_last);
  return NewBranch(common, key, children);
}

uint32_t SparseMerkleTree::Build(const Write* first, const Write* last) {
  const Hash256& deleted = Defaults()[kDepth];
  while (first != last && first->hash == deleted) ++first;
  while (first != last && last[-1].hash == deleted) --last;
  if (first == last) return kNone;
  if (last - first == 1) return Alloc(first->key, kDepth, first->hash);
  // The first and last keys differ, so they split at some level; the live
  // ends land on either side.
  const int level = CommonLevels(first->key, last[-1].key);
  const Write* mid = SplitAt(first, last, level + 1);
  const uint32_t children[2] = {Build(first, mid), Build(mid, last)};
  return NewBranch(level, first->key, children);
}

Status SparseMerkleTree::InjectProof(uint64_t key, ByteView value,
                                     const MerkleProof& proof,
                                     const crypto::Hash256& expected_root) {
  if (proof.siblings.size() != kDepth) {
    return Status::InvalidArgument("proof has wrong depth");
  }
  // Verify first, keeping the key's node hash at every level; only then
  // mutate. Those hashes are the new records' own and lifted hashes, so
  // injecting hashes nothing beyond the verification.
  std::array<Hash256, kDepth + 1> path;
  path[kDepth] = LeafHash(key, value);
  for (int level = kDepth; level >= 1; --level) {
    const Hash256& sibling = proof.siblings[level - 1];
    path[level - 1] = BitAt(key, level) ? InnerHash(sibling, path[level])
                                        : InnerHash(path[level], sibling);
  }
  if (path[0] != expected_root) {
    return Status::PermissionDenied("proof does not match root");
  }
  assert(root_ == kNone || Root() == expected_root);

  // Walk the key's path to the first position the tree does not know: the
  // root of an empty tree, or a stub.
  uint32_t parent = kNone;
  int side = 0;
  int top = 0;
  uint32_t index = root_;
  while (index != kNone) {
    const Node& n = nodes_[index];
    // The key leaves a known chain, or reaches its own known leaf.
    if (CommonLevels(n.key, key) < n.level || n.level == kDepth) {
      return Status::Ok();
    }
    if (IsStub(n)) break;
    parent = index;
    side = BitAt(key, n.level + 1);
    top = n.level + 1;
    index = n.child[side];
  }
  if (index != kNone) Free(index);  // The stub gives way to its expansion.
  const uint32_t expanded =
      BuildFromProof(key, !value.empty(), proof, path, top);
  if (parent == kNone) {
    root_ = expanded;
  } else {
    nodes_[parent].child[side] = expanded;
  }
  return Status::Ok();
}

uint32_t SparseMerkleTree::BuildFromProof(
    uint64_t key, bool present, const MerkleProof& proof,
    const std::array<Hash256, kDepth + 1>& path, int top) {
  // Bottom-up: `below` is the topmost record found so far under the key's
  // path; each non-default sibling becomes a record beside it under a new
  // branch. An absent key has no leaf, so its lowest sibling takes its
  // place and that sibling's chain runs up through the key's path.
  uint32_t below = present ? Alloc(key, kDepth, path[kDepth]) : kNone;
  for (int level = kDepth; level > top; --level) {
    const Hash256& sibling = proof.siblings[level - 1];
    if (sibling == Defaults()[level]) continue;
    const uint64_t sibling_key =
        PrefixOf(key, level) ^ (uint64_t{1} << (kDepth - level));
    const uint32_t beside = Alloc(sibling_key, level, sibling);
    if (below == kNone) {
      below = beside;
      continue;
    }
    nodes_[below].lifted = path[level];
    uint32_t children[2];
    children[BitAt(key, level)] = below;
    children[1 - BitAt(key, level)] = beside;
    below = Alloc(PrefixOf(key, level - 1), level - 1, path[level - 1]);
    nodes_[below].child[0] = children[0];
    nodes_[below].child[1] = children[1];
  }
  if (below != kNone) nodes_[below].lifted = path[top];
  return below;
}

Hash256 SparseMerkleTree::Root() const {
  return root_ == kNone ? Defaults()[0] : nodes_[root_].lifted;
}

MerkleProof SparseMerkleTree::Prove(uint64_t key) const {
  MerkleProof proof;
  proof.siblings.assign(Defaults().begin() + 1, Defaults().end());
  // Walk down the key's path: a branch's sibling is its other child's lift;
  // every sibling along a chain is a default.
  uint32_t index = root_;
  while (index != kNone) {
    const Node& n = nodes_[index];
    const int common = CommonLevels(n.key, key);
    if (common < n.level) {
      // The key leaves this chain at level common + 1: the chain's node
      // there is the sibling, and everything below is empty.
      proof.siblings[common] = Lift(n.hash, n.level, n.key, common + 1);
      break;
    }
    if (n.level == kDepth || IsStub(n)) break;
    const int side = BitAt(key, n.level + 1);
    proof.siblings[n.level] = nodes_[n.child[1 - side]].lifted;
    index = n.child[side];
  }
  return proof;
}

bool SparseMerkleTree::Verify(const Hash256& root, uint64_t key,
                              ByteView value, const MerkleProof& proof) {
  if (proof.siblings.size() != kDepth) return false;
  Hash256 hash = LeafHash(key, value);
  for (int level = kDepth; level >= 1; --level) {
    const Hash256& sibling = proof.siblings[level - 1];
    hash = BitAt(key, level) ? InnerHash(sibling, hash)
                             : InnerHash(hash, sibling);
  }
  return hash == root;
}

}  // namespace porygon::state
