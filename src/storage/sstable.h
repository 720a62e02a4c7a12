#ifndef PORYGON_STORAGE_SSTABLE_H_
#define PORYGON_STORAGE_SSTABLE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "common/wire.h"
#include "obs/metrics.h"
#include "storage/bloom.h"
#include "storage/env.h"
#include "storage/memtable.h"

namespace porygon::storage {

/// On-disk sorted-run format.
///
///   [data section]   entry*: varint klen | key | u8 type | u64 seq |
///                            varint vlen | value
///   [index section]  sparse index, one record per kIndexInterval entries:
///                    varint klen | key | u64 file offset
///   [bloom section]  serialized BloomFilter over user keys
///   [footer]         u64 index_off | u64 index_len | u64 bloom_off |
///                    u64 bloom_len | u64 entry_count | u32 crc(footer) |
///                    u64 magic
///
/// Entries are unique per user key within one table (the builder is fed a
/// deduplicated stream — newest version wins), sorted ascending.
class SstableBuilder {
 public:
  static constexpr int kIndexInterval = 16;
  static constexpr uint64_t kMagic = 0x706f7279676f6e31ULL;  // "porygon1"

  SstableBuilder(Env* env, std::string path);

  /// Adds the next entry; keys must arrive in strictly increasing order.
  Status Add(ByteView key, uint64_t sequence, ValueType type, ByteView value);

  /// Writes index/bloom/footer and closes the file.
  Status Finish();

  /// Fans the bloom-filter build inside Finish() out on `pool` (nullptr =
  /// serial; output bytes are identical either way).
  void set_pool(runtime::TaskPool* pool) { bloom_.set_pool(pool); }

  size_t entries_added() const { return entry_count_; }
  uint64_t file_size() const { return offset_; }

 private:
  Env* env_;
  std::string path_;
  std::unique_ptr<WritableFile> file_;
  Status open_status_;
  uint64_t offset_ = 0;
  size_t entry_count_ = 0;
  wire::Writer index_;
  BloomFilterBuilder bloom_;
  Bytes last_key_;
};

/// Immutable reader over a finished SSTable. Loads index + bloom into memory
/// at open; data is read on demand in index-group granules.
class SstableReader {
 public:
  struct Entry {
    Bytes key;
    Bytes value;
    uint64_t sequence;
    ValueType type;
  };

  static Result<std::unique_ptr<SstableReader>> Open(Env* env,
                                                     const std::string& path);

  /// Point lookup: the (single) version of `key` within this table.
  /// `found_tombstone` semantics match MemTable::Get.
  Result<Bytes> Get(ByteView key, bool* found_tombstone) const;

  /// Streams every entry in key order. `fn` returns false to stop early.
  Status ForEach(const std::function<bool(const Entry&)>& fn) const;

  size_t entry_count() const { return entry_count_; }
  uint64_t data_size() const { return index_offset_; }

  /// Mirrors bloom-filter effectiveness into registry counters (lookups
  /// consulting the filter, and lookups it short-circuited). Either pointer
  /// may be null. The hit rate is `1 - negatives / checks`.
  void set_bloom_metrics(obs::Counter* checks, obs::Counter* negatives) {
    bloom_checks_ = checks;
    bloom_negatives_ = negatives;
  }

 private:
  SstableReader() = default;

  // Parses one entry at `*offset` within `data`, advancing the offset.
  static Status ParseEntry(const Bytes& data, size_t* offset, Entry* out);

  std::unique_ptr<RandomAccessFile> file_;
  obs::Counter* bloom_checks_ = nullptr;
  obs::Counter* bloom_negatives_ = nullptr;
  uint64_t index_offset_ = 0;
  size_t entry_count_ = 0;
  Bytes bloom_raw_;
  // Decoded sparse index: (first key of group, file offset) per group.
  std::vector<std::pair<Bytes, uint64_t>> index_entries_;
};

}  // namespace porygon::storage

#endif  // PORYGON_STORAGE_SSTABLE_H_
