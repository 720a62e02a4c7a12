#include "state/smt.h"

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
  Sha256 h;
  h.Update(ByteView(&kInnerTag, 1));
  h.Update(ByteView(left.data(), left.size()));
  h.Update(ByteView(right.data(), right.size()));
  return h.Finish();
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
  uint8_t le_key[8];
  StoreLittleEndian64(le_key, key);
  Sha256 h;
  h.Update(ByteView(&kLeafTag, 1));
  h.Update(ByteView(le_key, sizeof(le_key)));
  h.Update(value);
  return h.Finish();
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

Hash256 SparseMerkleTree::NodeAt(int level, uint64_t prefix) const {
  auto it = nodes_[level].find(prefix);
  if (it != nodes_[level].end()) return it->second;
  return Defaults()[level];
}

void SparseMerkleTree::Put(uint64_t key, ByteView value) {
  if (value.empty()) {
    leaves_.erase(key);
  } else {
    leaves_[key] = value.ToBytes();
  }

  Hash256 hash = LeafHash(key, value);
  uint64_t prefix = key;
  for (int level = kDepth; level >= 0; --level) {
    if (hash == Defaults()[level]) {
      nodes_[level].erase(prefix);
    } else {
      nodes_[level][prefix] = hash;
    }
    if (level == 0) break;
    uint64_t sibling = prefix ^ 1;
    Hash256 sibling_hash = NodeAt(level, sibling);
    hash = (prefix & 1) ? InnerHash(sibling_hash, hash)
                        : InnerHash(hash, sibling_hash);
    prefix >>= 1;
  }
}

void SparseMerkleTree::PutBatch(
    const std::vector<std::pair<uint64_t, Bytes>>& writes) {
  if (writes.empty()) return;
  // Apply leaves; collect the dirty frontier.
  std::unordered_map<uint64_t, Hash256> dirty;
  for (const auto& [key, value] : writes) {
    if (value.empty()) {
      leaves_.erase(key);
    } else {
      leaves_[key] = value;
    }
    dirty[key] = LeafHash(key, value);
  }
  // Rehash level by level toward the root; each dirty node pulls its
  // sibling from the dirty set first, then the stored tree.
  for (int level = kDepth; level >= 1; --level) {
    std::unordered_map<uint64_t, Hash256> parent_dirty;
    for (const auto& [prefix, hash] : dirty) {
      if (hash == Defaults()[level]) {
        nodes_[level].erase(prefix);
      } else {
        nodes_[level][prefix] = hash;
      }
    }
    for (const auto& [prefix, hash] : dirty) {
      uint64_t parent = prefix >> 1;
      if (parent_dirty.count(parent) > 0) continue;  // Sibling handled it.
      uint64_t sibling = prefix ^ 1;
      auto sib_it = dirty.find(sibling);
      Hash256 sibling_hash =
          sib_it != dirty.end() ? sib_it->second : NodeAt(level, sibling);
      parent_dirty[parent] = (prefix & 1)
                                 ? InnerHash(sibling_hash, hash)
                                 : InnerHash(hash, sibling_hash);
    }
    dirty = std::move(parent_dirty);
  }
  // dirty now holds the root (level 0).
  for (const auto& [prefix, hash] : dirty) {
    if (hash == Defaults()[0]) {
      nodes_[0].erase(prefix);
    } else {
      nodes_[0][prefix] = hash;
    }
  }
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
  if (!value.empty()) {
    leaves_[key] = value.ToBytes();
  }
  Hash256 hash = LeafHash(key, value);
  uint64_t prefix = key;
  for (int level = kDepth; level >= 1; --level) {
    if (hash != Defaults()[level]) nodes_[level][prefix] = hash;
    const Hash256& sibling = proof.siblings[level - 1];
    if (sibling != Defaults()[level]) nodes_[level][prefix ^ 1] = sibling;
    hash = (prefix & 1) ? InnerHash(sibling, hash) : InnerHash(hash, sibling);
    prefix >>= 1;
  }
  nodes_[0][0] = hash;
  return Status::Ok();
}

Result<Bytes> SparseMerkleTree::Get(uint64_t key) const {
  auto it = leaves_.find(key);
  if (it == leaves_.end()) return Status::NotFound("no such leaf");
  return it->second;
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

void SparseMerkleTree::ForEach(
    const std::function<void(uint64_t, ByteView)>& fn) const {
  for (const auto& [key, value] : leaves_) fn(key, value);
}

}  // namespace porygon::state
