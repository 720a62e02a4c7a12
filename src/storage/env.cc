#include "storage/env.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <set>

namespace porygon::storage {

struct MemEnv::Impl {
  mutable std::mutex mu;
  std::map<std::string, std::shared_ptr<Bytes>> files;
  std::set<std::string> dirs;
};

namespace {

class MemWritableFile : public WritableFile {
 public:
  explicit MemWritableFile(std::shared_ptr<Bytes> target)
      : target_(std::move(target)) {}

  Status Append(ByteView data) override {
    target_->insert(target_->end(), data.begin(), data.end());
    return Status::Ok();
  }
  Status Sync() override { return Status::Ok(); }
  Status Close() override { return Status::Ok(); }

 private:
  std::shared_ptr<Bytes> target_;
};

class MemRandomAccessFile : public RandomAccessFile {
 public:
  explicit MemRandomAccessFile(std::shared_ptr<Bytes> data)
      : data_(std::move(data)) {}

  Status Read(uint64_t offset, size_t n, Bytes* out) const override {
    if (offset >= data_->size()) {
      out->clear();
      return Status::Ok();
    }
    size_t avail = data_->size() - offset;
    size_t take = std::min(n, avail);
    out->assign(data_->begin() + offset, data_->begin() + offset + take);
    return Status::Ok();
  }

  Result<uint64_t> Size() const override {
    return static_cast<uint64_t>(data_->size());
  }

 private:
  std::shared_ptr<Bytes> data_;
};

// Directory prefix of a path ('' if none).
std::string DirOf(const std::string& path) {
  auto pos = path.rfind('/');
  return pos == std::string::npos ? std::string() : path.substr(0, pos);
}

}  // namespace

MemEnv::MemEnv() : impl_(new Impl()) {}
MemEnv::~MemEnv() = default;

Result<std::unique_ptr<WritableFile>> MemEnv::NewWritableFile(
    const std::string& path) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto data = std::make_shared<Bytes>();
  impl_->files[path] = data;
  return std::unique_ptr<WritableFile>(new MemWritableFile(std::move(data)));
}

Result<std::unique_ptr<RandomAccessFile>> MemEnv::NewRandomAccessFile(
    const std::string& path) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->files.find(path);
  if (it == impl_->files.end()) return Status::NotFound("no such file: " + path);
  return std::unique_ptr<RandomAccessFile>(new MemRandomAccessFile(it->second));
}

Result<Bytes> MemEnv::ReadFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->files.find(path);
  if (it == impl_->files.end()) return Status::NotFound("no such file: " + path);
  return *it->second;
}

bool MemEnv::FileExists(const std::string& path) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->files.count(path) > 0;
}

Status MemEnv::RemoveFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->files.erase(path);
  return Status::Ok();
}

Status MemEnv::RenameFile(const std::string& from, const std::string& to) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->files.find(from);
  if (it == impl_->files.end()) return Status::NotFound("no such file: " + from);
  impl_->files[to] = it->second;
  impl_->files.erase(it);
  return Status::Ok();
}

Status MemEnv::CreateDirIfMissing(const std::string& path) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->dirs.insert(path);
  return Status::Ok();
}

Result<std::vector<std::string>> MemEnv::ListDir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<std::string> names;
  for (const auto& [path, data] : impl_->files) {
    if (DirOf(path) == dir) {
      names.push_back(path.substr(dir.empty() ? 0 : dir.size() + 1));
    }
  }
  return names;
}

uint64_t MemEnv::TotalBytes() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  uint64_t total = 0;
  for (const auto& [path, data] : impl_->files) total += data->size();
  return total;
}

}  // namespace porygon::storage
