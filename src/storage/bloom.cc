#include "storage/bloom.h"

namespace porygon::storage {

uint64_t BloomHash(ByteView key) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint8_t b : key) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  // Final avalanche (splitmix-style) to decorrelate the double-hash probes.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

BloomFilterBuilder::BloomFilterBuilder(int bits_per_key)
    : bits_per_key_(bits_per_key) {}

void BloomFilterBuilder::Add(ByteView key) {
  key_hashes_.push_back(BloomHash(key));
}

Bytes BloomFilterBuilder::Finish() {
  // k = bits_per_key * ln(2), clamped to [1, 30].
  int k = static_cast<int>(bits_per_key_ * 0.69);
  if (k < 1) k = 1;
  if (k > 30) k = 30;

  size_t bits = key_hashes_.size() * static_cast<size_t>(bits_per_key_);
  if (bits < 64) bits = 64;
  size_t bytes = (bits + 7) / 8;
  bits = bytes * 8;

  Bytes out(bytes + 1, 0);
  for (uint64_t h : key_hashes_) {
    uint64_t delta = (h >> 33) | (h << 31);  // Second hash via rotation.
    for (int i = 0; i < k; ++i) {
      uint64_t bit = h % bits;
      out[bit / 8] |= static_cast<uint8_t>(1u << (bit % 8));
      h += delta;
    }
  }
  out[bytes] = static_cast<uint8_t>(k);
  return out;
}

bool BloomFilterReader::MayContain(ByteView key) const {
  if (data_.size() < 2) return true;  // Degenerate filter: cannot exclude.
  size_t bytes = data_.size() - 1;
  size_t bits = bytes * 8;
  int k = data_[bytes];
  if (k <= 0 || k > 30) return true;

  uint64_t h = BloomHash(key);
  uint64_t delta = (h >> 33) | (h << 31);
  for (int i = 0; i < k; ++i) {
    uint64_t bit = h % bits;
    if ((data_[bit / 8] & (1u << (bit % 8))) == 0) return false;
    h += delta;
  }
  return true;
}

}  // namespace porygon::storage
