#include "storage/db.h"

#include <algorithm>
#include <cstdio>

#include "common/wire.h"

namespace porygon::storage {

namespace {
std::string TableFileName(uint64_t number) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%06llu.sst",
                static_cast<unsigned long long>(number));
  return buf;
}
}  // namespace

Db::Db(Env* env, std::string dir, DbOptions options)
    : env_(env), dir_(std::move(dir)), options_(std::move(options)),
      memtable_(new MemTable()) {}

Db::~Db() = default;

Result<std::unique_ptr<Db>> Db::Open(Env* env, const std::string& dir,
                                     const DbOptions& options) {
  PORYGON_RETURN_IF_ERROR(env->CreateDirIfMissing(dir));
  std::unique_ptr<Db> db(new Db(env, dir, options));
  PORYGON_RETURN_IF_ERROR(db->Recover());
  return db;
}

std::string Db::TablePath(uint64_t number) const {
  return dir_ + "/" + TableFileName(number);
}

Status Db::Recover() {
  // 1. Load the manifest (if any): level + table number per line.
  if (env_->FileExists(ManifestPath())) {
    PORYGON_ASSIGN_OR_RETURN(Bytes manifest, env_->ReadFile(ManifestPath()));
    wire::Reader r(manifest);
    uint64_t manifest_seq = 0, count = 0;
    r.Varint(&manifest_seq).Count(&count, 2);  // Two varints per table.
    PORYGON_RETURN_IF_ERROR(r.status());
    sequence_ = std::max(sequence_, manifest_seq);
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t level = 0, number = 0;
      PORYGON_RETURN_IF_ERROR(r.Varint(&level).Varint(&number).status());
      PORYGON_ASSIGN_OR_RETURN(auto reader,
                               SstableReader::Open(env_, TablePath(number)));
      auto handle = std::make_unique<TableHandle>();
      handle->number = number;
      handle->reader = std::move(reader);
      next_table_number_ = std::max(next_table_number_, number + 1);
      if (level == 0) {
        l0_.push_back(std::move(*handle));
      } else {
        l1_ = std::move(handle);
      }
    }
  }

  // 2. Replay the WAL into a fresh memtable.
  PORYGON_ASSIGN_OR_RETURN(
      uint64_t max_seq,
      WalReplay(env_, WalPath(), [this](const WalRecord& rec) {
        memtable_->Add(rec.sequence, rec.type, rec.key, rec.value);
      }));
  sequence_ = std::max(sequence_, max_seq);

  // 3. Reopen the WAL for appending. MemEnv truncates on NewWritableFile, so
  // preserve replayed-but-unflushed data by flushing first when non-empty.
  if (memtable_->EntryCount() > 0) {
    PORYGON_RETURN_IF_ERROR(FlushLocked());
  }
  PORYGON_ASSIGN_OR_RETURN(wal_, WalWriter::Open(env_, WalPath()));
  return Status::Ok();
}

Status Db::WriteManifest() const {
  wire::Writer w;
  // Highest sequence covered by tables, then (level, number) per table.
  w.Varint(sequence_).Varint(l0_.size() + (l1_ ? 1 : 0));
  for (const auto& t : l0_) w.Varint(0).Varint(t.number);
  if (l1_) w.Varint(1).Varint(l1_->number);
  const std::string tmp = ManifestPath() + ".tmp";
  PORYGON_ASSIGN_OR_RETURN(auto file, env_->NewWritableFile(tmp));
  PORYGON_RETURN_IF_ERROR(file->Append(w.view()));
  PORYGON_RETURN_IF_ERROR(file->Sync());
  PORYGON_RETURN_IF_ERROR(file->Close());
  return env_->RenameFile(tmp, ManifestPath());
}

Status Db::Put(ByteView key, ByteView value) {
  ++sequence_;
  PORYGON_RETURN_IF_ERROR(
      wal_->AddRecord(sequence_, ValueType::kValue, key, value));
  if (options_.sync_writes) PORYGON_RETURN_IF_ERROR(wal_->Sync());
  memtable_->Add(sequence_, ValueType::kValue, key, value);
  if (memtable_->ApproximateMemoryUsage() > options_.write_buffer_size) {
    PORYGON_RETURN_IF_ERROR(Flush());
  }
  return Status::Ok();
}

Status Db::Delete(ByteView key) {
  ++sequence_;
  PORYGON_RETURN_IF_ERROR(
      wal_->AddRecord(sequence_, ValueType::kDeletion, key, ByteView()));
  if (options_.sync_writes) PORYGON_RETURN_IF_ERROR(wal_->Sync());
  memtable_->Add(sequence_, ValueType::kDeletion, key, ByteView());
  if (memtable_->ApproximateMemoryUsage() > options_.write_buffer_size) {
    PORYGON_RETURN_IF_ERROR(Flush());
  }
  return Status::Ok();
}

void Db::WriteBatch::Put(ByteView key, ByteView value) {
  ops_.push_back({ValueType::kValue, key.ToBytes(), value.ToBytes()});
}

void Db::WriteBatch::Delete(ByteView key) {
  ops_.push_back({ValueType::kDeletion, key.ToBytes(), Bytes()});
}

Status Db::Write(const WriteBatch& batch) {
  if (batch.ops_.empty()) return Status::Ok();
  std::vector<WalWriter::Op> wal_ops;
  wal_ops.reserve(batch.ops_.size());
  for (const auto& op : batch.ops_) {
    wal_ops.push_back({op.type, op.key, op.value});
  }
  uint64_t first = sequence_ + 1;
  PORYGON_RETURN_IF_ERROR(wal_->AddBatchRecord(first, wal_ops));
  if (options_.sync_writes) PORYGON_RETURN_IF_ERROR(wal_->Sync());
  for (const auto& op : batch.ops_) {
    ++sequence_;
    memtable_->Add(sequence_, op.type, op.key, op.value);
  }
  if (memtable_->ApproximateMemoryUsage() > options_.write_buffer_size) {
    PORYGON_RETURN_IF_ERROR(Flush());
  }
  return Status::Ok();
}

Result<Bytes> Db::Get(ByteView key) const {
  bool tombstone = false;
  // Memtable first (newest data).
  auto from_mem = memtable_->Get(key, &tombstone);
  if (from_mem.ok()) return from_mem;
  if (tombstone) return Status::NotFound("deleted");

  // L0 newest-to-oldest.
  for (auto it = l0_.rbegin(); it != l0_.rend(); ++it) {
    auto r = it->reader->Get(key, &tombstone);
    if (r.ok()) return r;
    if (tombstone) return Status::NotFound("deleted");
    if (!r.status().IsNotFound()) return r.status();
  }

  // L1 last.
  if (l1_) {
    auto r = l1_->reader->Get(key, &tombstone);
    if (r.ok()) return r;
    if (tombstone) return Status::NotFound("deleted");
    if (!r.status().IsNotFound()) return r.status();
  }
  return Status::NotFound("key absent");
}

Status Db::CollectRange(
    ByteView start, ByteView end,
    std::map<Bytes, std::pair<uint64_t, std::pair<ValueType, Bytes>>>* out)
    const {
  auto in_range = [&](ByteView key) {
    if (!start.empty() && key.Compare(start) < 0) return false;
    if (!end.empty() && key.Compare(end) >= 0) return false;
    return true;
  };
  auto consider = [&](ByteView key, uint64_t seq, ValueType type,
                      ByteView value) {
    if (!in_range(key)) return;
    Bytes k = key.ToBytes();
    auto it = out->find(k);
    if (it == out->end() || it->second.first < seq) {
      (*out)[std::move(k)] = {seq, {type, value.ToBytes()}};
    }
  };

  // Order of application does not matter: sequence numbers arbitrate.
  if (l1_) {
    PORYGON_RETURN_IF_ERROR(
        l1_->reader->ForEach([&](const SstableReader::Entry& e) {
          consider(e.key, e.sequence, e.type, e.value);
          return true;
        }));
  }
  for (const auto& t : l0_) {
    PORYGON_RETURN_IF_ERROR(
        t.reader->ForEach([&](const SstableReader::Entry& e) {
          consider(e.key, e.sequence, e.type, e.value);
          return true;
        }));
  }
  auto it = memtable_->NewIterator();
  it.SeekToFirst();
  while (it.Valid()) {
    consider(it.key(), it.sequence(), it.type(), it.value());
    it.Next();
  }
  return Status::Ok();
}

Status Db::Scan(ByteView start, ByteView end,
                const std::function<void(ByteView, ByteView)>& fn) const {
  std::map<Bytes, std::pair<uint64_t, std::pair<ValueType, Bytes>>> merged;
  PORYGON_RETURN_IF_ERROR(CollectRange(start, end, &merged));
  for (const auto& [key, versioned] : merged) {
    if (versioned.second.first == ValueType::kValue) {
      fn(key, versioned.second.second);
    }
  }
  return Status::Ok();
}

Status Db::FlushLocked() {
  if (memtable_->EntryCount() == 0) return Status::Ok();

  uint64_t number = next_table_number_++;
  SstableBuilder builder(env_, TablePath(number));
  // The memtable orders same-key versions newest-first; emit only the first.
  Bytes last_key;
  bool have_last = false;
  auto it = memtable_->NewIterator();
  it.SeekToFirst();
  while (it.Valid()) {
    ByteView key = it.key();
    if (!have_last || !(ByteView(last_key) == key)) {
      PORYGON_RETURN_IF_ERROR(
          builder.Add(key, it.sequence(), it.type(), it.value()));
      last_key = key.ToBytes();
      have_last = true;
    }
    it.Next();
  }
  PORYGON_RETURN_IF_ERROR(builder.Finish());

  PORYGON_ASSIGN_OR_RETURN(auto reader,
                           SstableReader::Open(env_, TablePath(number)));
  l0_.push_back(TableHandle{number, std::move(reader)});
  PORYGON_RETURN_IF_ERROR(WriteManifest());

  // The flushed data is durable; start a fresh memtable and WAL.
  memtable_ = std::make_unique<MemTable>();
  PORYGON_ASSIGN_OR_RETURN(wal_, WalWriter::Open(env_, WalPath()));
  return MaybeCompact();
}

Status Db::Flush() { return FlushLocked(); }

Status Db::MaybeCompact() {
  if (static_cast<int>(l0_.size()) < options_.l0_compaction_trigger) {
    return Status::Ok();
  }
  return CompactAll();
}

Status Db::CompactAll() {
  if (l0_.empty() && !l1_) return Status::Ok();

  // Merge newest-wins across all tables (sequence numbers arbitrate, so
  // the order tables are read in does not matter); a full compaction may
  // drop tombstones because nothing older remains underneath.
  std::map<Bytes, std::pair<uint64_t, std::pair<ValueType, Bytes>>> merged;
  auto merge = [&](const SstableReader::Entry& e) {
    auto it = merged.find(e.key);
    if (it == merged.end() || it->second.first < e.sequence) {
      merged[e.key] = {e.sequence, {e.type, e.value}};
    }
    return true;
  };
  if (l1_) PORYGON_RETURN_IF_ERROR(l1_->reader->ForEach(merge));
  for (const auto& t : l0_) PORYGON_RETURN_IF_ERROR(t.reader->ForEach(merge));

  uint64_t number = next_table_number_++;
  SstableBuilder builder(env_, TablePath(number));
  for (const auto& [key, versioned] : merged) {
    if (versioned.second.first == ValueType::kDeletion) continue;
    PORYGON_RETURN_IF_ERROR(builder.Add(key, versioned.first,
                                        ValueType::kValue,
                                        versioned.second.second));
  }
  PORYGON_RETURN_IF_ERROR(builder.Finish());

  std::vector<uint64_t> obsolete;
  for (const auto& t : l0_) obsolete.push_back(t.number);
  if (l1_) obsolete.push_back(l1_->number);
  l0_.clear();

  PORYGON_ASSIGN_OR_RETURN(auto reader,
                           SstableReader::Open(env_, TablePath(number)));
  l1_ = std::make_unique<TableHandle>();
  l1_->number = number;
  l1_->reader = std::move(reader);
  PORYGON_RETURN_IF_ERROR(WriteManifest());

  for (uint64_t n : obsolete) {
    PORYGON_RETURN_IF_ERROR(env_->RemoveFile(TablePath(n)));
  }
  return Status::Ok();
}

Db::Stats Db::GetStats() const {
  Stats s;
  s.memtable_entries = memtable_->EntryCount();
  s.memtable_bytes = memtable_->ApproximateMemoryUsage();
  s.l0_tables = static_cast<int>(l0_.size());
  s.has_l1 = l1_ != nullptr;
  for (const auto& t : l0_) s.table_bytes += t.reader->data_size();
  if (l1_) s.table_bytes += l1_->reader->data_size();
  s.sequence = sequence_;
  return s;
}

}  // namespace porygon::storage
