#include "storage/sstable.h"

#include <algorithm>

#include "common/crc32.h"

namespace porygon::storage {

namespace {
constexpr size_t kFooterSize = 8 * 5 + 4 + 8;  // 5 u64 + crc + magic.
}

SstableBuilder::SstableBuilder(Env* env, std::string path)
    : env_(env), path_(std::move(path)) {
  auto file = env_->NewWritableFile(path_);
  if (!file.ok()) {
    open_status_ = file.status();
  } else {
    file_ = std::move(file).value();
    open_status_ = Status::Ok();
  }
}

Status SstableBuilder::Add(ByteView key, uint64_t sequence, ValueType type,
                           ByteView value) {
  PORYGON_RETURN_IF_ERROR(open_status_);
  if (!last_key_.empty() || entry_count_ > 0) {
    if (!(ByteView(last_key_) < key)) {
      return Status::InvalidArgument("keys must be added in increasing order");
    }
  }

  // Sparse index entry at the start of each group.
  if (entry_count_ % kIndexInterval == 0) index_.Blob(key).U64(offset_);

  const Bytes rec = wire::Writer()
                        .Blob(key)
                        .U8(static_cast<uint8_t>(type))
                        .U64(sequence)
                        .Blob(value)
                        .Take();
  PORYGON_RETURN_IF_ERROR(file_->Append(rec));
  offset_ += rec.size();

  bloom_.Add(key);
  last_key_ = key.ToBytes();
  ++entry_count_;
  return Status::Ok();
}

Status SstableBuilder::Finish() {
  PORYGON_RETURN_IF_ERROR(open_status_);
  const uint64_t index_off = offset_;
  PORYGON_RETURN_IF_ERROR(file_->Append(index_.view()));
  offset_ += index_.size();

  Bytes bloom = bloom_.Finish();
  const uint64_t bloom_off = offset_;
  PORYGON_RETURN_IF_ERROR(file_->Append(bloom));
  offset_ += bloom.size();

  wire::Writer footer;
  footer.U64(index_off)
      .U64(index_.size())
      .U64(bloom_off)
      .U64(bloom.size())
      .U64(entry_count_);
  footer.U32(Crc32cMask(Crc32c(footer.view()))).U64(kMagic);
  PORYGON_RETURN_IF_ERROR(file_->Append(footer.view()));
  offset_ += footer.size();

  PORYGON_RETURN_IF_ERROR(file_->Sync());
  return file_->Close();
}

Result<std::unique_ptr<SstableReader>> SstableReader::Open(
    Env* env, const std::string& path) {
  PORYGON_ASSIGN_OR_RETURN(auto file, env->NewRandomAccessFile(path));
  PORYGON_ASSIGN_OR_RETURN(uint64_t size, file->Size());
  if (size < kFooterSize) return Status::Corruption("sstable too small");

  Bytes footer_raw;
  PORYGON_RETURN_IF_ERROR(file->Read(size - kFooterSize, kFooterSize,
                                     &footer_raw));
  if (footer_raw.size() != kFooterSize) {
    return Status::Corruption("short footer read");
  }
  uint64_t index_off = 0, index_len = 0, bloom_off = 0, bloom_len = 0;
  uint64_t entry_count = 0, magic = 0;
  uint32_t crc = 0;
  wire::Reader footer(footer_raw);
  footer.U64(&index_off)
      .U64(&index_len)
      .U64(&bloom_off)
      .U64(&bloom_len)
      .U64(&entry_count)
      .U32(&crc)
      .U64(&magic);
  PORYGON_RETURN_IF_ERROR(footer.status());
  if (magic != SstableBuilder::kMagic) {
    return Status::Corruption("bad sstable magic");
  }
  uint32_t expected =
      Crc32cMask(Crc32c(ByteView(footer_raw.data(), 8 * 5)));
  if (crc != expected) return Status::Corruption("footer crc mismatch");

  auto reader = std::unique_ptr<SstableReader>(new SstableReader());
  reader->index_offset_ = index_off;
  reader->entry_count_ = entry_count;

  Bytes index_raw;
  PORYGON_RETURN_IF_ERROR(file->Read(index_off, index_len, &index_raw));
  if (index_raw.size() != index_len) {
    return Status::Corruption("short index read");
  }
  wire::Reader idx(index_raw);
  while (idx.remaining() > 0) {
    Bytes key;
    uint64_t off = 0;
    PORYGON_RETURN_IF_ERROR(idx.Blob(&key).U64(&off).status());
    reader->index_entries_.emplace_back(std::move(key), off);
  }

  PORYGON_RETURN_IF_ERROR(file->Read(bloom_off, bloom_len,
                                     &reader->bloom_raw_));
  if (reader->bloom_raw_.size() != bloom_len) {
    return Status::Corruption("short bloom read");
  }
  reader->file_ = std::move(file);
  return reader;
}

Status SstableReader::ParseEntry(const Bytes& data, size_t* offset,
                                 Entry* out) {
  wire::Reader r(ByteView(data.data() + *offset, data.size() - *offset));
  const size_t before = r.remaining();
  uint8_t type = 0;
  r.Blob(&out->key)
      .U8(&type)
      .Require(type <= 1, "bad value type")
      .U64(&out->sequence)
      .Blob(&out->value);
  PORYGON_RETURN_IF_ERROR(r.status());
  out->type = static_cast<ValueType>(type);
  *offset += before - r.remaining();
  return Status::Ok();
}

Result<Bytes> SstableReader::Get(ByteView key, bool* found_tombstone) const {
  *found_tombstone = false;
  if (index_entries_.empty()) return Status::NotFound("empty table");

  if (!BloomFilterReader(bloom_raw_).MayContain(key)) {
    return Status::NotFound("bloom miss");
  }

  // Binary search for the last index group whose first key <= key.
  auto it = std::upper_bound(
      index_entries_.begin(), index_entries_.end(), key,
      [](ByteView k, const std::pair<Bytes, uint64_t>& e) {
        return k.Compare(ByteView(e.first)) < 0;
      });
  if (it == index_entries_.begin()) return Status::NotFound("below first key");
  --it;

  uint64_t start = it->second;
  uint64_t end = (it + 1 == index_entries_.end()) ? index_offset_
                                                  : (it + 1)->second;
  Bytes group;
  PORYGON_RETURN_IF_ERROR(file_->Read(start, end - start, &group));
  if (group.size() != end - start) return Status::Corruption("short group");

  size_t off = 0;
  Entry entry;
  while (off < group.size()) {
    PORYGON_RETURN_IF_ERROR(ParseEntry(group, &off, &entry));
    int c = ByteView(entry.key).Compare(key);
    if (c == 0) {
      if (entry.type == ValueType::kDeletion) {
        *found_tombstone = true;
        return Status::NotFound("tombstone");
      }
      return entry.value;
    }
    if (c > 0) break;  // Sorted: key is absent.
  }
  return Status::NotFound("key absent from sstable");
}

Status SstableReader::ForEach(
    const std::function<bool(const Entry&)>& fn) const {
  Bytes data;
  PORYGON_RETURN_IF_ERROR(file_->Read(0, index_offset_, &data));
  if (data.size() != index_offset_) {
    return Status::Corruption("short data read");
  }
  size_t off = 0;
  Entry entry;
  while (off < data.size()) {
    PORYGON_RETURN_IF_ERROR(ParseEntry(data, &off, &entry));
    if (!fn(entry)) break;
  }
  return Status::Ok();
}

}  // namespace porygon::storage
