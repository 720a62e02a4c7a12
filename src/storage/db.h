#ifndef PORYGON_STORAGE_DB_H_
#define PORYGON_STORAGE_DB_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "storage/env.h"
#include "storage/memtable.h"
#include "storage/sstable.h"
#include "storage/wal.h"

namespace porygon::storage {

struct DbOptions {
  /// Flush the memtable to an L0 SSTable beyond this footprint.
  size_t write_buffer_size = 1 << 20;
  /// Merge L0 into the single L1 sorted run at this many L0 tables.
  int l0_compaction_trigger = 4;
  /// fsync the WAL on every write (off in simulations; MemEnv is lossless).
  bool sync_writes = false;
};

/// Embedded LSM key/value store: the block store of the ByShard baseline's
/// full nodes (Fig 9a) and the engine the state micro-benchmarks time.
/// Two-level layout (L0 overlapping tables + one L1 sorted run), WAL-backed
/// crash recovery, bloom-filtered reads.
///
/// Not internally synchronized: each owner serializes its accesses.
class Db {
 public:
  /// Opens (and recovers) a database rooted at `dir` inside `env`.
  static Result<std::unique_ptr<Db>> Open(Env* env, const std::string& dir,
                                          const DbOptions& options = {});

  ~Db();
  Db(const Db&) = delete;
  Db& operator=(const Db&) = delete;

  Status Put(ByteView key, ByteView value);
  Status Delete(ByteView key);
  Result<Bytes> Get(ByteView key) const;

  /// An ordered group of mutations applied atomically: either every
  /// operation is durable (single WAL append) or none is. Storage nodes use
  /// this to apply a committed block's state changes as one unit.
  class WriteBatch {
   public:
    void Put(ByteView key, ByteView value);
    void Delete(ByteView key);
    size_t size() const { return ops_.size(); }
    void Clear() { ops_.clear(); }

   private:
    friend class Db;
    struct Op {
      ValueType type;
      Bytes key;
      Bytes value;
    };
    std::vector<Op> ops_;
  };

  /// Applies `batch` atomically (one WAL record covering all mutations).
  Status Write(const WriteBatch& batch);

  /// Invokes `fn(key, value)` for every live key in [start, end) in order.
  /// An empty `end` means "to the last key".
  Status Scan(ByteView start, ByteView end,
              const std::function<void(ByteView, ByteView)>& fn) const;

  /// Forces a memtable flush (testing and checkpointing).
  Status Flush();

  /// Merges everything into L1 (testing and space reclamation).
  Status CompactAll();

  struct Stats {
    size_t memtable_entries = 0;
    size_t memtable_bytes = 0;
    int l0_tables = 0;
    bool has_l1 = 0;
    uint64_t table_bytes = 0;  ///< Total SSTable data bytes.
    uint64_t sequence = 0;
  };
  Stats GetStats() const;

 private:
  Db(Env* env, std::string dir, DbOptions options);

  Status Recover();
  Status FlushLocked();
  Status MaybeCompact();
  Status WriteManifest() const;
  std::string TablePath(uint64_t number) const;
  std::string WalPath() const { return dir_ + "/wal.log"; }
  std::string ManifestPath() const { return dir_ + "/MANIFEST"; }

  // Collects the newest version of every key in [start,end) across all
  // sources into `out` (tombstones included).
  Status CollectRange(
      ByteView start, ByteView end,
      std::map<Bytes, std::pair<uint64_t, std::pair<ValueType, Bytes>>>* out)
      const;

  Env* env_;
  std::string dir_;
  DbOptions options_;

  std::unique_ptr<MemTable> memtable_;
  std::unique_ptr<WalWriter> wal_;
  uint64_t sequence_ = 0;
  uint64_t next_table_number_ = 1;

  struct TableHandle {
    uint64_t number;
    std::unique_ptr<SstableReader> reader;
  };
  std::vector<TableHandle> l0_;  // Oldest first; search newest first.
  std::unique_ptr<TableHandle> l1_;
};

}  // namespace porygon::storage

#endif  // PORYGON_STORAGE_DB_H_
