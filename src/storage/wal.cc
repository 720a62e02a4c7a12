#include "storage/wal.h"

#include "common/crc32.h"
#include "common/wire.h"

namespace porygon::storage {

Result<std::unique_ptr<WalWriter>> WalWriter::Open(Env* env,
                                                   const std::string& path) {
  PORYGON_ASSIGN_OR_RETURN(auto file, env->NewWritableFile(path));
  return std::unique_ptr<WalWriter>(new WalWriter(std::move(file)));
}

Status WalWriter::AddRecord(uint64_t sequence, ValueType type, ByteView key,
                            ByteView value) {
  return AppendFramed(wire::Writer()
                          .U64(sequence)
                          .U8(static_cast<uint8_t>(type))
                          .Blob(key)
                          .Blob(value)
                          .Take());
}

Status WalWriter::AddBatchRecord(uint64_t first_sequence,
                                 const std::vector<Op>& ops) {
  wire::Writer payload;
  payload.U64(first_sequence).U8(2).Varint(ops.size());  // 2 = batch marker.
  for (const Op& op : ops) {
    payload.U8(static_cast<uint8_t>(op.type)).Blob(op.key).Blob(op.value);
  }
  return AppendFramed(payload.Take());
}

Status WalWriter::AppendFramed(ByteView payload) {
  const Bytes frame = wire::Writer()
                          .U32(Crc32cMask(Crc32c(payload)))
                          .U32(static_cast<uint32_t>(payload.size()))
                          .Raw(payload)
                          .Take();
  if (bytes_counter_ != nullptr) bytes_counter_->Add(frame.size());
  if (records_counter_ != nullptr) records_counter_->Increment();
  return file_->Append(frame);
}

Status WalWriter::Sync() { return file_->Sync(); }

Result<uint64_t> WalReplay(Env* env, const std::string& path,
                           const std::function<void(const WalRecord&)>& fn) {
  if (!env->FileExists(path)) return uint64_t{0};
  PORYGON_ASSIGN_OR_RETURN(Bytes data, env->ReadFile(path));

  uint64_t max_sequence = 0;
  size_t off = 0;
  while (off + 8 <= data.size()) {
    uint32_t crc = LoadLittleEndian32(data.data() + off);
    uint32_t len = LoadLittleEndian32(data.data() + off + 4);
    if (off + 8 + len > data.size()) break;  // Torn tail record.
    ByteView payload(data.data() + off + 8, len);
    if (Crc32cMask(Crc32c(payload)) != crc) break;  // Corrupt: stop replay.

    wire::Reader r(payload);
    uint64_t seq = 0;
    uint8_t type = 0;
    r.U64(&seq).U8(&type);
    if (!r.ok() || type > 2) break;

    if (type == 2) {
      // Atomic batch: parse every sub-op before emitting any of them.
      uint64_t count = 0;
      r.Count(&count, 3);  // Each op: type byte + two length prefixes.
      std::vector<WalRecord> batch(r.ok() ? count : 0);
      for (uint64_t i = 0; i < batch.size(); ++i) {
        uint8_t op_type = 0;
        r.U8(&op_type).Require(op_type <= 1, "bad op type");
        r.Blob(&batch[i].key).Blob(&batch[i].value);
        batch[i].sequence = seq + i;
        batch[i].type = static_cast<ValueType>(op_type);
      }
      if (!r.ok()) break;
      for (const WalRecord& rec : batch) {
        max_sequence = std::max(max_sequence, rec.sequence);
        fn(rec);
      }
      off += 8 + len;
      continue;
    }

    WalRecord rec;
    r.Blob(&rec.key).Blob(&rec.value);
    if (!r.ok()) break;
    rec.sequence = seq;
    rec.type = static_cast<ValueType>(type);
    max_sequence = std::max(max_sequence, rec.sequence);
    fn(rec);
    off += 8 + len;
  }
  return max_sequence;
}

}  // namespace porygon::storage
