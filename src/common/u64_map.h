#ifndef PORYGON_COMMON_U64_MAP_H_
#define PORYGON_COMMON_U64_MAP_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace porygon {

/// Open-addressing hash map from uint64_t keys to small trivially copyable
/// values: one flat slot array, linear probing, power-of-two capacity, and
/// backward-shift erase (no tombstones, so probe chains never rot under
/// churn). It holds the state layer's per-level Merkle node hashes and
/// account values and the workload generators' nonce counters: maps with
/// millions of small entries, where a heap node per entry costs more host
/// time than the work itself.
///
/// An empty slot is marked by the key ~0; a real entry under that key is
/// kept out of line. Pointers into the map are invalidated by any insert or
/// erase.
template <typename V>
class U64Map {
  static_assert(std::is_trivially_copyable_v<V>,
                "U64Map values are moved by plain copies");

 public:
  size_t size() const { return size_ + (has_max_key_ ? 1 : 0); }

  /// The value under `key`, or nullptr when absent.
  const V* Find(uint64_t key) const {
    if (key == kEmpty) return has_max_key_ ? &max_key_value_ : nullptr;
    if (slots_.empty()) return nullptr;
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return &slots_[i].value;
      if (slots_[i].key == kEmpty) return nullptr;
    }
  }

  /// The value under `key`, value-initialised first when absent.
  V& operator[](uint64_t key) {
    if (key == kEmpty) {
      if (!has_max_key_) {
        has_max_key_ = true;
        max_key_value_ = V{};
      }
      return max_key_value_;
    }
    // Grow before probing so the slot found stays valid; the load stays at
    // most 7/8, so every probe chain ends at an empty slot.
    if ((size_ + 1) * 8 > slots_.size() * 7) Grow();
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return slots_[i].value;
      if (slots_[i].key == kEmpty) {
        slots_[i] = Slot{key, V{}};
        ++size_;
        return slots_[i].value;
      }
    }
  }

  /// Removes `key`; returns whether it was present.
  bool Erase(uint64_t key) {
    if (key == kEmpty) {
      const bool had = has_max_key_;
      has_max_key_ = false;
      return had;
    }
    if (slots_.empty()) return false;
    size_t hole = Home(key);
    while (slots_[hole].key != key) {
      if (slots_[hole].key == kEmpty) return false;
      hole = (hole + 1) & mask_;
    }
    // Backward shift: pull each later entry of the chain into the hole
    // unless the hole lies before its home slot (it would become
    // unreachable there).
    for (size_t i = (hole + 1) & mask_; slots_[i].key != kEmpty;
         i = (i + 1) & mask_) {
      const size_t home = Home(slots_[i].key);
      if (((i - home) & mask_) >= ((i - hole) & mask_)) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole].key = kEmpty;
    --size_;
    return true;
  }

 private:
  struct Slot {
    uint64_t key;
    V value;
  };
  static constexpr uint64_t kEmpty = ~uint64_t{0};
  static constexpr size_t kMinCapacity = 8;

  // Fibonacci hashing on the top bits, after folding the high half down so
  // keys that differ only in high bits still spread.
  size_t Home(uint64_t key) const {
    return static_cast<size_t>(((key ^ (key >> 32)) * 0x9E3779B97F4A7C15ull) >>
                               shift_);
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    const size_t capacity = old.empty() ? kMinCapacity : old.size() * 2;
    slots_.assign(capacity, Slot{kEmpty, V{}});
    mask_ = capacity - 1;
    shift_ = 64;  // 64 - log2(capacity).
    for (size_t c = capacity; c > 1; c >>= 1) --shift_;
    for (const Slot& s : old) {
      if (s.key == kEmpty) continue;
      size_t i = Home(s.key);
      while (slots_[i].key != kEmpty) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  int shift_ = 64;
  size_t size_ = 0;  // Live entries in slots_.
  bool has_max_key_ = false;
  V max_key_value_{};
};

}  // namespace porygon

#endif  // PORYGON_COMMON_U64_MAP_H_
