#ifndef PORYGON_COMMON_FLAT_MAP_H_
#define PORYGON_COMMON_FLAT_MAP_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bytes.h"

namespace porygon {

/// Key policy of a FlatMap over uint64_t keys: the key type, the key that
/// marks an empty slot, and the 64 bits a key's home slot is taken from.
struct U64Key {
  using Type = uint64_t;
  static constexpr uint64_t kEmpty = ~uint64_t{0};
  static uint64_t Bits(uint64_t key) { return key; }
};

/// Key policy of a FlatMap over 32-byte digests (tx and block ids). They
/// are SHA-256 outputs, so any eight bytes of one spread evenly. The
/// all-zero digest marks empty slots (a real one is kept out of line), and
/// a match compares all 32 bytes.
struct DigestKey {
  using Type = std::array<uint8_t, 32>;
  static constexpr Type kEmpty{};
  static uint64_t Bits(const Type& digest) {
    return LoadLittleEndian64(digest.data());
  }
};

/// Open-addressing hash map from small trivially copyable keys to small
/// trivially copyable values: one flat slot array, linear probing,
/// power-of-two capacity, and backward-shift erase (no tombstones, so probe
/// chains never rot under churn). `Key` is a policy like U64Key. It holds
/// the state layer's account values, the workload generators' nonce
/// counters, the tx pools' admitted ids and the per-round discarded and
/// failed tx-id filters: maps with thousands to millions of small entries,
/// where a heap node or string per entry costs more host time than the
/// work itself.
///
/// An empty slot is marked by the key Key::kEmpty; a real entry under that
/// key is kept out of line. Pointers into the map are invalidated by any
/// insert or erase.
template <typename Key, typename V>
class FlatMap {
  using K = typename Key::Type;
  static_assert(std::is_trivially_copyable_v<K> &&
                    std::is_trivially_copyable_v<V>,
                "FlatMap keys and values are moved by plain copies");

 public:
  size_t size() const { return size_ + (has_empty_key_ ? 1 : 0); }
  bool empty() const { return size() == 0; }

  /// The value under `key`, or nullptr when absent.
  const V* Find(const K& key) const {
    if (Same(key, Key::kEmpty)) {
      return has_empty_key_ ? &empty_key_value_ : nullptr;
    }
    if (slots_.empty()) return nullptr;
    const Slot& slot = slots_[Probe(key)];
    return Same(slot.key, key) ? &slot.value : nullptr;
  }

  bool Contains(const K& key) const { return Find(key) != nullptr; }

  /// The value under `key`, value-initialised first when absent.
  V& operator[](const K& key) { return *Emplace(key).first; }

  /// Adds `key` with a value-initialised value unless it is present;
  /// returns whether it was added.
  bool Insert(const K& key) { return Emplace(key).second; }

  /// Calls `fn(key, value)` once per entry, in no particular order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (has_empty_key_) fn(Key::kEmpty, empty_key_value_);
    for (const Slot& slot : slots_) {
      if (!Same(slot.key, Key::kEmpty)) fn(slot.key, slot.value);
    }
  }

  /// Removes `key`; returns whether it was present.
  bool Erase(const K& key) {
    if (Same(key, Key::kEmpty)) {
      const bool had = has_empty_key_;
      has_empty_key_ = false;
      return had;
    }
    if (slots_.empty()) return false;
    size_t hole = Probe(key);
    if (!Same(slots_[hole].key, key)) return false;
    // Backward shift: pull each later entry of the chain into the hole
    // unless the hole lies before its home slot (it would become
    // unreachable there).
    for (size_t i = (hole + 1) & mask_; !Same(slots_[i].key, Key::kEmpty);
         i = (i + 1) & mask_) {
      const size_t home = Home(slots_[i].key);
      if (((i - home) & mask_) >= ((i - hole) & mask_)) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole].key = Key::kEmpty;
    --size_;
    return true;
  }

 private:
  struct Slot {
    K key;
    [[no_unique_address]] V value;
  };
  static constexpr size_t kMinCapacity = 8;

  // Fibonacci hashing on the top bits, after folding the high half down so
  // keys that differ only in high bits still spread.
  size_t Home(const K& key) const {
    const uint64_t bits = Key::Bits(key);
    return static_cast<size_t>(
        ((bits ^ (bits >> 32)) * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  // Key equality, screened by the hashed bits: a probe that misses (nearly
  // every probe) costs one word compare however wide the key is.
  static bool Same(const K& a, const K& b) {
    return Key::Bits(a) == Key::Bits(b) && a == b;
  }

  // The slot holding `key`, else the empty slot that ends its probe chain.
  // The load stays at most 7/8, so every chain ends at an empty slot.
  size_t Probe(const K& key) const {
    size_t i = Home(key);
    while (!Same(slots_[i].key, key) && !Same(slots_[i].key, Key::kEmpty)) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  // The value under `key` and whether it was just added.
  std::pair<V*, bool> Emplace(const K& key) {
    if (Same(key, Key::kEmpty)) {
      const bool added = !has_empty_key_;
      if (added) {
        has_empty_key_ = true;
        empty_key_value_ = V{};
      }
      return {&empty_key_value_, added};
    }
    // Grow before probing so the slot found stays valid.
    if ((size_ + 1) * 8 > slots_.size() * 7) Grow();
    Slot& slot = slots_[Probe(key)];
    if (Same(slot.key, key)) return {&slot.value, false};
    slot = Slot{key, V{}};
    ++size_;
    return {&slot.value, true};
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    const size_t capacity = old.empty() ? kMinCapacity : old.size() * 2;
    slots_.assign(capacity, Slot{Key::kEmpty, V{}});
    mask_ = capacity - 1;
    shift_ = 64;  // 64 - log2(capacity).
    for (size_t c = capacity; c > 1; c >>= 1) --shift_;
    for (const Slot& s : old) {
      if (!Same(s.key, Key::kEmpty)) slots_[Probe(s.key)] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  int shift_ = 64;
  size_t size_ = 0;  // Live entries in slots_.
  bool has_empty_key_ = false;
  V empty_key_value_{};
};

/// The map most of the state and workload layers use.
template <typename V>
using U64Map = FlatMap<U64Key, V>;

/// A set is a map to nothing; the empty value adds no bytes to a slot.
struct NoValue {};
template <typename Key>
using FlatSet = FlatMap<Key, NoValue>;

}  // namespace porygon

#endif  // PORYGON_COMMON_FLAT_MAP_H_
