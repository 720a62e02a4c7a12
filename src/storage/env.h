#ifndef PORYGON_STORAGE_ENV_H_
#define PORYGON_STORAGE_ENV_H_

#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace porygon::storage {

/// Append-only file handle.
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(ByteView data) = 0;
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

/// Positional-read file handle (SSTables).
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;
  /// Reads up to `n` bytes at `offset`; short reads only at EOF.
  virtual Status Read(uint64_t offset, size_t n, Bytes* out) const = 0;
  virtual Result<uint64_t> Size() const = 0;
};

/// File-system abstraction in the LevelDB/RocksDB tradition. The database is
/// written against `Env`; every caller runs it on the in-memory `MemEnv`.
class Env {
 public:
  virtual ~Env() = default;

  virtual Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) = 0;
  virtual Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) = 0;
  /// Reads a whole file (WAL replay, MANIFEST).
  virtual Result<Bytes> ReadFile(const std::string& path) = 0;
  virtual bool FileExists(const std::string& path) = 0;
  virtual Status RemoveFile(const std::string& path) = 0;
  /// Atomically replaces `to` with `from`.
  virtual Status RenameFile(const std::string& from, const std::string& to) = 0;
  virtual Status CreateDirIfMissing(const std::string& path) = 0;
  /// Lists file names (not paths) directly under `dir`.
  virtual Result<std::vector<std::string>> ListDir(const std::string& dir) = 0;
};

/// Fully in-memory Env; each instance is an isolated namespace.
class MemEnv : public Env {
 public:
  MemEnv();
  ~MemEnv() override;

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override;
  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override;
  Result<Bytes> ReadFile(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  Status RemoveFile(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status CreateDirIfMissing(const std::string& path) override;
  Result<std::vector<std::string>> ListDir(const std::string& dir) override;

  /// Total bytes held across all files (storage-consumption accounting for
  /// Fig 9a).
  uint64_t TotalBytes() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace porygon::storage

#endif  // PORYGON_STORAGE_ENV_H_
