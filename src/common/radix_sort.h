#ifndef PORYGON_COMMON_RADIX_SORT_H_
#define PORYGON_COMMON_RADIX_SORT_H_

#include <cstdint>
#include <vector>

namespace porygon {

/// Sorts `keys` ascending and drops repeats: the result of std::sort then
/// std::unique, by an LSD radix sort over 8-bit digits that skips every
/// digit all keys share. Account ids below 2^24 take three counting passes
/// whatever the list length; each stateless ESC member sorts its access
/// list (thousands of ids) this way once per Execution Phase.
void RadixSortUnique(std::vector<uint64_t>* keys);

}  // namespace porygon

#endif  // PORYGON_COMMON_RADIX_SORT_H_
