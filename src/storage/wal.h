#ifndef PORYGON_STORAGE_WAL_H_
#define PORYGON_STORAGE_WAL_H_

#include <functional>
#include <memory>
#include <string>

#include "common/bytes.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "storage/env.h"
#include "storage/memtable.h"

namespace porygon::storage {

/// Write-ahead log. Each record is
///   u32 masked-crc | u32 length | payload
/// where the payload encodes either one mutation:
///   u64 sequence | u8 type (0/1) | varint klen | key | varint vlen | value
/// or an atomic batch (type 2):
///   u64 first_sequence | u8 2 | varint count | {u8 type | key | value}*
/// Replay stops cleanly at the first torn/corrupt record, which is the
/// correct crash-recovery semantic (that record — and for batches, the
/// whole batch — never committed).
class WalWriter {
 public:
  static Result<std::unique_ptr<WalWriter>> Open(Env* env,
                                                 const std::string& path);

  Status AddRecord(uint64_t sequence, ValueType type, ByteView key,
                   ByteView value);

  /// One mutation inside an atomic batch.
  struct Op {
    ValueType type;
    ByteView key;
    ByteView value;
  };
  /// Appends an atomic batch as a single framed record: a crash either
  /// preserves the whole batch or none of it.
  Status AddBatchRecord(uint64_t first_sequence, const std::vector<Op>& ops);

  Status Sync();

  /// Mirrors append volume into registry counters (framed bytes written and
  /// records appended). Either pointer may be null; the Db re-attaches these
  /// after every WAL rotation.
  void set_metrics(obs::Counter* bytes, obs::Counter* records) {
    bytes_counter_ = bytes;
    records_counter_ = records;
  }

 private:
  explicit WalWriter(std::unique_ptr<WritableFile> file)
      : file_(std::move(file)) {}
  // Frames `payload` (masked crc, length) and appends it.
  Status AppendFramed(ByteView payload);

  std::unique_ptr<WritableFile> file_;
  obs::Counter* bytes_counter_ = nullptr;
  obs::Counter* records_counter_ = nullptr;
};

/// One recovered mutation.
struct WalRecord {
  uint64_t sequence;
  ValueType type;
  Bytes key;
  Bytes value;
};

/// Replays `path`, invoking `fn` for each intact record in order. Returns
/// the highest sequence seen (0 if none). Missing file yields 0 records.
Result<uint64_t> WalReplay(Env* env, const std::string& path,
                           const std::function<void(const WalRecord&)>& fn);

}  // namespace porygon::storage

#endif  // PORYGON_STORAGE_WAL_H_
