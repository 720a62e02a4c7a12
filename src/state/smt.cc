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

// Inner-node messages: tag ‖ left ‖ right.
constexpr size_t kInnerSize = 1 + 2 * sizeof(Hash256);
// Messages staged per HashBatch call: a multiple of the kernel's lanes, and
// small enough that the staging stays in cache and on the stack.
constexpr size_t kChunk = 16 * Sha256::kLanes;

// Hashes `count` inner nodes in chunks: `children(i)` returns node i's
// (left, right) children as pointers, and `store(i, hash)` takes its hash.
template <typename Children, typename Store>
void HashInnerNodes(size_t count, Children children, Store store) {
  uint8_t messages[kChunk * kInnerSize];
  Hash256 hashes[kChunk];
  for (size_t base = 0; base < count; base += kChunk) {
    const size_t n = std::min(kChunk, count - base);
    for (size_t i = 0; i < n; ++i) {
      const auto [left, right] = children(base + i);
      uint8_t* m = messages + i * kInnerSize;
      m[0] = kInnerTag;
      std::memcpy(m + 1, left->data(), left->size());
      std::memcpy(m + 1 + left->size(), right->data(), right->size());
    }
    Sha256::HashBatch(messages, kInnerSize, n, hashes);
    for (size_t i = 0; i < n; ++i) store(base + i, hashes[i]);
  }
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

uint32_t SparseMerkleTree::NewBranch(int level, uint64_t key,
                                     const uint32_t children[2],
                                     Stale* stale) {
  const uint32_t index = Alloc(PrefixOf(key, level), level, Hash256{});
  nodes_[index].child[0] = children[0];
  nodes_[index].child[1] = children[1];
  stale->lifts.push_back({children[0], level + 1});
  stale->lifts.push_back({children[1], level + 1});
  stale->branches.push_back(index);
  return index;
}

void SparseMerkleTree::Put(uint64_t key, ByteView value) {
  const Write write{key, LeafHash(key, value)};
  Apply(&write, &write + 1);
}

void SparseMerkleTree::PutBatch(
    const std::vector<std::pair<uint64_t, Bytes>>& writes) {
  PutBatch(std::vector<std::pair<uint64_t, ByteView>>(writes.begin(),
                                                      writes.end()));
}

void SparseMerkleTree::PutBatch(
    const std::vector<std::pair<uint64_t, ByteView>>& writes) {
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
  std::vector<ByteView> values;
  values.reserve(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    if (i + 1 < order.size() && order[i + 1].first == order[i].first) continue;
    frontier.push_back({order[i].first, Defaults()[kDepth]});
    values.push_back(writes[order[i].second].second);
  }
  if (frontier.empty()) return;

  // Leaf hashes: deletes keep the empty-leaf default, and the rest hash in
  // batches of one value length (callers write one length: one pass).
  std::vector<size_t> widths;
  for (ByteView value : values) {
    if (!value.empty() &&
        std::find(widths.begin(), widths.end(), value.size()) == widths.end()) {
      widths.push_back(value.size());
    }
  }
  std::vector<size_t> group;
  uint8_t messages[kChunk * Sha256::kMaxOneShot];
  Hash256 hashes[kChunk];
  for (size_t width : widths) {
    group.clear();
    for (size_t i = 0; i < values.size(); ++i) {
      if (values[i].size() == width) group.push_back(i);
    }
    const size_t size = 1 + 8 + width;
    if (size > Sha256::kMaxOneShot) {
      for (size_t i : group) {
        frontier[i].hash = LeafHash(frontier[i].key, values[i]);
      }
      continue;
    }
    for (size_t base = 0; base < group.size(); base += kChunk) {
      const size_t n = std::min(kChunk, group.size() - base);
      for (size_t k = 0; k < n; ++k) {
        uint8_t* m = messages + k * size;
        m[0] = kLeafTag;
        StoreLittleEndian64(m + 1, frontier[group[base + k]].key);
        std::memcpy(m + 9, values[group[base + k]].data(), width);
      }
      Sha256::HashBatch(messages, size, n, hashes);
      for (size_t k = 0; k < n; ++k) {
        frontier[group[base + k]].hash = hashes[k];
      }
    }
  }
  Apply(frontier.data(), frontier.data() + frontier.size());
}

void SparseMerkleTree::Apply(const Write* first, const Write* last) {
  Stale stale;
  root_ = Merge(root_, first, last, &stale);
  if (root_ != kNone) stale.lifts.push_back({root_, 0});
  Rehash(stale);
}

uint32_t SparseMerkleTree::Merge(uint32_t index, const Write* first,
                                 const Write* last, Stale* stale) {
  if (index == kNone) return Build(first, last, stale);
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
    if (dirty[0]) children[0] = Merge(children[0], first, mid, stale);
    if (dirty[1]) children[1] = Merge(children[1], mid, last, stale);
    if (children[0] == kNone || children[1] == kNone) {
      // The branch collapses: the survivor's chain now runs up to this
      // branch's parent, which lifts it.
      Free(index);
      return children[0] == kNone ? children[1] : children[0];
    }
    for (int side = 0; side < 2; ++side) {
      if (dirty[side]) stale->lifts.push_back({children[side], level + 1});
    }
    Node& n = nodes_[index];
    n.child[0] = children[0];
    n.child[1] = children[1];
    stale->branches.push_back(index);
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
  const uint32_t own = own_first == own_last
                           ? index
                           : Merge(index, own_first, own_last, stale);
  if (!inserts) return own;
  if (own == kNone) return Build(other_first, other_last, stale);
  uint32_t children[2];
  children[side] = own;  // Re-lifted below the new branch.
  children[1 - side] = Build(other_first, other_last, stale);
  return NewBranch(common, key, children, stale);
}

uint32_t SparseMerkleTree::Build(const Write* first, const Write* last,
                                 Stale* stale) {
  const Hash256& deleted = Defaults()[kDepth];
  while (first != last && first->hash == deleted) ++first;
  while (first != last && last[-1].hash == deleted) --last;
  if (first == last) return kNone;
  if (last - first == 1) return Alloc(first->key, kDepth, first->hash);
  // The first and last keys differ, so they split at some level; the live
  // ends land on either side.
  const int level = CommonLevels(first->key, last[-1].key);
  const Write* mid = SplitAt(first, last, level + 1);
  const uint32_t children[2] = {Build(first, mid, stale),
                                Build(mid, last, stale)};
  return NewBranch(level, first->key, children, stale);
}

void SparseMerkleTree::Rehash(const Stale& stale) {
  // Bucket both lists by level (a counting sort): branches by their own
  // level, lifts by the level of the record they start from.
  std::array<size_t, kDepth + 2> branch_at{};
  std::array<size_t, kDepth + 2> lift_at{};
  for (uint32_t b : stale.branches) ++branch_at[nodes_[b].level + 1];
  for (const LiftJob& j : stale.lifts) ++lift_at[nodes_[j.index].level + 1];
  for (int level = 0; level <= kDepth; ++level) {
    branch_at[level + 1] += branch_at[level];
    lift_at[level + 1] += lift_at[level];
  }
  std::vector<uint32_t> branches(stale.branches.size());
  std::vector<LiftJob> starts(stale.lifts.size());
  {
    std::array<size_t, kDepth + 2> next = branch_at;
    for (uint32_t b : stale.branches) branches[next[nodes_[b].level]++] = b;
    next = lift_at;
    for (const LiftJob& j : stale.lifts) {
      starts[next[nodes_[j.index].level]++] = j;
    }
  }

  // A lift under way carries its record's key and running hash, so a step
  // reads no record.
  struct Lifting {
    uint32_t index;
    int top;
    uint64_t key;
    Hash256 hash;
  };
  const auto& defaults = Defaults();
  std::vector<Lifting> active;
  for (int level = kDepth; level >= 0; --level) {
    // This level's branches: their children's lifts reached level + 1.
    const uint32_t* level_branches = branches.data() + branch_at[level];
    HashInnerNodes(
        branch_at[level + 1] - branch_at[level],
        [&](size_t i) {
          const Node& n = nodes_[level_branches[i]];
          return std::pair(&nodes_[n.child[0]].lifted,
                           &nodes_[n.child[1]].lifted);
        },
        [&](size_t i, const Hash256& h) {
          nodes_[level_branches[i]].hash = h;
        });
    // Lifts starting here; a chain that starts at this very level is done.
    for (size_t i = lift_at[level]; i < lift_at[level + 1]; ++i) {
      Node& n = nodes_[starts[i].index];
      if (starts[i].top < level) {
        active.push_back({starts[i].index, starts[i].top, n.key, n.hash});
      } else {
        n.lifted = n.hash;
      }
    }
    if (active.empty()) continue;  // Always so at level 0.
    // One step up, to level - 1, for every lift under way.
    HashInnerNodes(
        active.size(),
        [&](size_t i) {
          const Hash256* hash = &active[i].hash;
          return BitAt(active[i].key, level)
                     ? std::pair(&defaults[level], hash)
                     : std::pair(hash, &defaults[level]);
        },
        [&](size_t i, const Hash256& h) { active[i].hash = h; });
    std::erase_if(active, [&](const Lifting& j) {
      if (j.top != level - 1) return false;
      nodes_[j.index].lifted = j.hash;
      return true;
    });
  }
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
