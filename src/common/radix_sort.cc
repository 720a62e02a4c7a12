#include "common/radix_sort.h"

#include <algorithm>
#include <array>

namespace porygon {

void RadixSortUnique(std::vector<uint64_t>* keys) {
  std::vector<uint64_t>& a = *keys;
  if (a.size() < 2) return;
  uint64_t any = 0;
  uint64_t all = ~uint64_t{0};
  for (uint64_t k : a) {
    any |= k;
    all &= k;
  }
  // A digit every key shares leaves the order as it is, so its pass is
  // skipped; each other pass is a stable counting sort on that digit.
  const uint64_t varying = any ^ all;
  std::vector<uint64_t> out(a.size());
  for (int shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xFF) == 0) continue;
    std::array<size_t, 257> start{};
    for (uint64_t k : a) ++start[((k >> shift) & 0xFF) + 1];
    for (size_t d = 1; d < start.size(); ++d) start[d] += start[d - 1];
    for (uint64_t k : a) out[start[(k >> shift) & 0xFF]++] = k;
    a.swap(out);
  }
  a.erase(std::unique(a.begin(), a.end()), a.end());
}

}  // namespace porygon
