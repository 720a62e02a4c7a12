#include "common/wire.h"

#include <algorithm>
#include <string>

namespace porygon::wire {

size_t VarintSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

namespace {
void StoreVarint(uint8_t* out, uint64_t v) {
  while (v >= 0x80) {
    *out++ = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *out = static_cast<uint8_t>(v);
}
}  // namespace

Writer::Writer(size_t size)
    : exact_(size), data_(exact_.data()), capacity_(size) {}

void Writer::Expand(size_t n) {
  constexpr size_t kMinCapacity = 32;
  capacity_ = std::max({capacity_ * 2, size_ + n, kMinCapacity});
  auto grown = std::make_unique_for_overwrite<uint8_t[]>(capacity_);
  if (size_ > 0) std::memcpy(grown.get(), data_, size_);
  buf_ = std::move(grown);
  data_ = buf_.get();
  exact_ = Bytes();  // An exact-size writer that outgrew its size.
}

Bytes Writer::Take() {
  Bytes out;
  if (!exact_.empty()) {
    exact_.resize(size_);
    out = std::move(exact_);
  } else {
    out.assign(data_, data_ + size_);
  }
  exact_ = Bytes();
  buf_.reset();
  data_ = nullptr;
  capacity_ = 0;
  size_ = 0;
  return out;
}

Writer& Writer::Varint(uint64_t v) {
  StoreVarint(Grow(VarintSize(v)), v);
  return *this;
}

Writer& Writer::PrefixLength(size_t start) {
  const size_t body = size_ - start - 1;
  const size_t width = VarintSize(body);
  if (width > 1) {
    Grow(width - 1);
    std::memmove(data_ + start + width, data_ + start + 1, body);
  }
  StoreVarint(data_ + start, body);
  return *this;
}

Reader& Reader::Varint(uint64_t* out) {
  if (!ok()) return *this;
  uint64_t v = 0;
  int shift = 0;
  for (size_t i = 0; i < data_.size(); ++i) {
    const uint8_t b = data_[i];
    if (shift >= 64 || (shift == 63 && (b & 0x7F) > 1)) {
      status_ = Status::Corruption("varint overflow");
      return *this;
    }
    v |= uint64_t{static_cast<uint8_t>(b & 0x7F)} << shift;
    if ((b & 0x80) == 0) {
      data_.RemovePrefix(i + 1);
      *out = v;
      return *this;
    }
    shift += 7;
  }
  status_ = Status::Corruption("truncated varint");
  return *this;
}

Reader& Reader::Count(uint64_t* n, size_t min_element_bytes) {
  uint64_t v = 0;
  Varint(&v).Require(v <= data_.size() / min_element_bytes,
                     "count exceeds input");
  if (ok()) *n = v;
  return *this;
}

Status Reader::Finish(std::string_view what) const {
  PORYGON_RETURN_IF_ERROR(status_);
  if (!data_.empty()) {
    return Status::Corruption("trailing " + std::string(what) + " bytes");
  }
  return Status::Ok();
}

}  // namespace porygon::wire
