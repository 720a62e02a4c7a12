#include "common/wire.h"

#include <string>

namespace porygon::wire {

// Out of line: inlined into a chain of fixed-width writes, GCC 12 reports a
// spurious -Warray-bounds on std::vector's growth path.
uint8_t* Writer::Grow(size_t n) {
  const size_t at = buf_.size();
  buf_.resize(at + n);
  return buf_.data() + at;
}

Writer& Writer::Varint(uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  return U8(static_cast<uint8_t>(v));
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
