#ifndef PORYGON_STORAGE_BLOOM_H_
#define PORYGON_STORAGE_BLOOM_H_

#include <cstdint>
#include <vector>

#include "common/bytes.h"

namespace porygon::storage {

/// Double-hashing Bloom filter over byte keys, serialized into SSTables so
/// point lookups can skip tables that cannot contain a key.
class BloomFilterBuilder {
 public:
  /// `bits_per_key` trades space for false-positive rate (10 ≈ 1%).
  explicit BloomFilterBuilder(int bits_per_key = 10);

  void Add(ByteView key);

  /// Serializes the filter (bit array + k in the last byte).
  Bytes Finish();

 private:
  int bits_per_key_;
  std::vector<uint64_t> key_hashes_;
};

/// Read-side view over a serialized filter.
class BloomFilterReader {
 public:
  /// `data` must outlive the reader.
  explicit BloomFilterReader(ByteView data) : data_(data) {}

  /// False means definitely absent; true means possibly present.
  bool MayContain(ByteView key) const;

 private:
  ByteView data_;
};

/// 64-bit FNV-1a style hash used by both sides of the filter.
uint64_t BloomHash(ByteView key);

}  // namespace porygon::storage

#endif  // PORYGON_STORAGE_BLOOM_H_
