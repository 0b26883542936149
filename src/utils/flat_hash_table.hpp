#ifndef HYRISE_SRC_UTILS_FLAT_HASH_TABLE_HPP_
#define HYRISE_SRC_UTILS_FLAT_HASH_TABLE_HPP_

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "utils/assert.hpp"

namespace hyrise {

/// Cache-conscious hash-table building blocks shared by the join and the
/// aggregate (DESIGN.md §5c). Everything here works on precomputed 64-bit
/// hashes so a value is hashed exactly once per operator, no matter how many
/// partitions, filters, and tables it passes through.

/// Never returns 0 — FlatHashMap uses hash 0 as the empty-slot marker.
inline uint64_t MixHash(uint64_t value) {
  // splitmix64 finalizer: full avalanche, so every bit range of the result
  // (partition selector, Bloom probes, table index) is independently usable.
  value ^= value >> 30;
  value *= 0xbf58476d1ce4e5b9ULL;
  value ^= value >> 27;
  value *= 0x94d049bb133111ebULL;
  value ^= value >> 31;
  return value | (value == 0);
}

inline uint64_t HashBytes(const char* data, size_t size) {
  // FNV-1a, finalized through MixHash (FNV alone avalanches poorly in the
  // high bits, which the radix partitioner and Bloom filter both use).
  auto hash = uint64_t{0xcbf29ce484222325ULL};
  for (auto index = size_t{0}; index < size; ++index) {
    hash ^= static_cast<unsigned char>(data[index]);
    hash *= 0x100000001b3ULL;
  }
  return MixHash(hash);
}

/// Hashes a join/group key. Arithmetic types of equal value hash equal across
/// widths is NOT required here — callers promote both sides to a common key
/// type first — but +0.0 and -0.0 compare equal and therefore must hash equal.
template <typename K>
uint64_t HashKey(const K& key) {
  if constexpr (std::is_same_v<K, std::string>) {
    return HashBytes(key.data(), key.size());
  } else if constexpr (std::is_floating_point_v<K>) {
    auto normalized = key == K{0} ? K{0} : key;
    auto bits = uint64_t{0};
    std::memcpy(&bits, &normalized, sizeof(normalized));
    return MixHash(bits);
  } else {
    return MixHash(static_cast<uint64_t>(key));
  }
}

/// Open-addressing hash map: one flat slot array, linear probing, stored
/// hashes, Fibonacci indexing. The stored hash makes probing cheap (one
/// 64-bit compare before the key compare) and lets callers reuse hashes they
/// already computed for partitioning. Fibonacci indexing (multiply, take the
/// top bits) decorrelates the slot index from the hash's low bits, which the
/// radix partitioner has fixed to the partition id.
///
/// Not a general-purpose map: no erase, value types must be cheap to move,
/// and the caller passes `HashKey(key)` (or `HashBytes`) explicitly.
template <typename K, typename V>
class FlatHashMap {
 public:
  explicit FlatHashMap(size_t expected_entries = 0) {
    auto capacity = size_t{16};
    while (capacity < expected_entries * 2) {
      capacity *= 2;
    }
    Rebuild(capacity);
  }

  /// Returns the value slot for `key`, default-constructing it on first
  /// insertion; `second` reports whether the key was inserted. The pointer is
  /// invalidated by the next FindOrInsert (the table may grow).
  std::pair<V*, bool> FindOrInsert(uint64_t hash, const K& key) {
    if (size_ * 2 >= slots_.size()) {
      Rebuild(slots_.size() * 2);
    }
    auto index = IndexFor(hash);
    while (true) {
      auto& slot = slots_[index];
      if (slot.hash == 0) {
        slot.hash = hash;
        slot.key = key;
        ++size_;
        return {&slot.value, true};
      }
      if (slot.hash == hash && slot.key == key) {
        return {&slot.value, false};
      }
      index = (index + 1) & (slots_.size() - 1);
    }
  }

  const V* Find(uint64_t hash, const K& key) const {
    auto index = IndexFor(hash);
    while (true) {
      const auto& slot = slots_[index];
      if (slot.hash == 0) {
        return nullptr;
      }
      if (slot.hash == hash && slot.key == key) {
        return &slot.value;
      }
      index = (index + 1) & (slots_.size() - 1);
    }
  }

  size_t size() const {
    return size_;
  }

  /// Starts loading the slot a probe for `hash` begins at. Inserting many
  /// keys into a table beyond the cache is bound by memory latency; calling
  /// this some keys ahead overlaps those misses.
  void Prefetch(uint64_t hash) const {
    __builtin_prefetch(&slots_[IndexFor(hash)]);
  }

 private:
  struct Slot {
    uint64_t hash{0};  // 0 = empty; MixHash/HashBytes never produce 0.
    K key{};
    V value{};
  };

  size_t IndexFor(uint64_t hash) const {
    return (hash * 0x9e3779b97f4a7c15ULL) >> shift_;
  }

  void Rebuild(size_t capacity) {
    DebugAssert((capacity & (capacity - 1)) == 0, "Capacity must be a power of two");
    auto old_slots = std::move(slots_);
    slots_.assign(capacity, Slot{});
    shift_ = 64;
    for (auto bits = capacity; bits > 1; bits /= 2) {
      --shift_;
    }
    for (auto& old_slot : old_slots) {
      if (old_slot.hash == 0) {
        continue;
      }
      auto index = IndexFor(old_slot.hash);
      while (slots_[index].hash != 0) {
        index = (index + 1) & (capacity - 1);
      }
      slots_[index] = std::move(old_slot);
    }
  }

  std::vector<Slot> slots_;
  size_t size_{0};
  unsigned shift_{64};
};

/// Build-side table of the hash join, per radix partition: a FlatHashMap from
/// key to chain descriptor plus one contiguous entry array that links all
/// rows of a key (no per-key std::vector heads — a duplicate key costs 8
/// bytes in `entries_`, not a heap allocation). Rows must be inserted in
/// ascending row order; chains then enumerate in ascending row order, which
/// the join's determinism argument relies on (DESIGN.md §5c).
template <typename K>
class JoinHashTable {
 public:
  explicit JoinHashTable(size_t expected_entries) : map_(expected_entries) {
    entries_.reserve(expected_entries);
  }

  static constexpr uint32_t kEnd = 0xffffffffu;

  struct Entry {
    uint32_t row{0};
    uint32_t next{kEnd};
  };

  void Insert(uint64_t hash, const K& key, uint32_t row) {
    const auto entry_index = static_cast<uint32_t>(entries_.size());
    entries_.push_back(Entry{row, kEnd});
    const auto [chain, inserted] = map_.FindOrInsert(hash, key);
    if (inserted) {
      chain->head = entry_index;
    } else {
      entries_[chain->tail].next = entry_index;
    }
    chain->tail = entry_index;
  }

  /// Index of the first entry for `key`, or kEnd. Follow with entry().next.
  uint32_t First(uint64_t hash, const K& key) const {
    const auto* chain = map_.Find(hash, key);
    return chain ? chain->head : kEnd;
  }

  const Entry& entry(uint32_t index) const {
    return entries_[index];
  }

 private:
  struct Chain {
    uint32_t head{kEnd};
    uint32_t tail{kEnd};
  };

  FlatHashMap<K, Chain> map_;
  std::vector<Entry> entries_;
};

}  // namespace hyrise

#endif  // HYRISE_SRC_UTILS_FLAT_HASH_TABLE_HPP_
