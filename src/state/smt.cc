#include "state/smt.h"

#include <algorithm>
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

SparseMerkleTree::SparseMerkleTree() : nodes_(kDepth + 1) {}

const Hash256& SparseMerkleTree::NodeAt(int level, uint64_t prefix) const {
  const Hash256* hash = nodes_[level].Find(prefix);
  return hash != nullptr ? *hash : Defaults()[level];
}

void SparseMerkleTree::SetNode(int level, uint64_t prefix,
                               const Hash256& hash) {
  if (hash == Defaults()[level]) {
    nodes_[level].Erase(prefix);
  } else {
    nodes_[level][prefix] = hash;
  }
}

void SparseMerkleTree::Put(uint64_t key, ByteView value) {
  Rehash({{key, LeafHash(key, value)}});
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
  Frontier frontier;
  frontier.reserve(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    if (i + 1 < order.size() && order[i + 1].first == order[i].first) continue;
    const auto& [key, value] = writes[order[i].second];
    frontier.emplace_back(key, LeafHash(key, value));
  }
  Rehash(std::move(frontier));
}

void SparseMerkleTree::Rehash(Frontier frontier) {
  if (frontier.empty()) return;
  // Walk toward the root one level at a time. The frontier stays sorted, so
  // a dirty sibling is always the next entry; any other sibling is one table
  // lookup. Parents overwrite the frontier in place (they never outrun it).
  for (int level = kDepth; level >= 1; --level) {
    size_t parents = 0;
    for (size_t i = 0; i < frontier.size(); ++i) {
      const auto& [prefix, hash] = frontier[i];
      SetNode(level, prefix, hash);
      Hash256 parent;
      if ((prefix & 1) == 0 && i + 1 < frontier.size() &&
          frontier[i + 1].first == prefix + 1) {
        SetNode(level, prefix + 1, frontier[i + 1].second);
        parent = InnerHash(hash, frontier[i + 1].second);
        ++i;
      } else if (prefix & 1) {
        parent = InnerHash(NodeAt(level, prefix - 1), hash);
      } else {
        parent = InnerHash(hash, NodeAt(level, prefix + 1));
      }
      frontier[parents++] = {prefix >> 1, parent};
    }
    frontier.resize(parents);
  }
  // One root remains.
  SetNode(0, 0, frontier[0].second);
}

Status SparseMerkleTree::InjectProof(uint64_t key, ByteView value,
                                     const MerkleProof& proof,
                                     const crypto::Hash256& expected_root) {
  if (proof.siblings.size() != kDepth) {
    return Status::InvalidArgument("proof has wrong depth");
  }
  // First verify; only then mutate.
  if (!Verify(expected_root, key, value, proof)) {
    return Status::PermissionDenied("proof does not match root");
  }
  Hash256 hash = LeafHash(key, value);
  uint64_t prefix = key;
  for (int level = kDepth; level >= 1; --level) {
    SetNode(level, prefix, hash);
    const Hash256& sibling = proof.siblings[level - 1];
    SetNode(level, prefix ^ 1, sibling);
    hash = (prefix & 1) ? InnerHash(sibling, hash) : InnerHash(hash, sibling);
    prefix >>= 1;
  }
  SetNode(0, 0, hash);
  return Status::Ok();
}

Hash256 SparseMerkleTree::Root() const { return NodeAt(0, 0); }

MerkleProof SparseMerkleTree::Prove(uint64_t key) const {
  MerkleProof proof;
  proof.siblings.resize(kDepth);
  uint64_t prefix = key;
  // Collect siblings leaf-up, then store root-adjacent first.
  for (int level = kDepth; level >= 1; --level) {
    proof.siblings[level - 1] = NodeAt(level, prefix ^ 1);
    prefix >>= 1;
  }
  return proof;
}

bool SparseMerkleTree::Verify(const Hash256& root, uint64_t key,
                              ByteView value, const MerkleProof& proof) {
  if (proof.siblings.size() != kDepth) return false;
  Hash256 hash = LeafHash(key, value);
  uint64_t prefix = key;
  for (int level = kDepth; level >= 1; --level) {
    const Hash256& sibling = proof.siblings[level - 1];
    hash = (prefix & 1) ? InnerHash(sibling, hash) : InnerHash(hash, sibling);
    prefix >>= 1;
  }
  return hash == root;
}

}  // namespace porygon::state
