#ifndef HYRISE_SRC_STATISTICS_COUNTING_QUOTIENT_FILTER_HPP_
#define HYRISE_SRC_STATISTICS_COUNTING_QUOTIENT_FILTER_HPP_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "expression/predicate_literal.hpp"
#include "statistics/abstract_segment_filter.hpp"
#include "utils/assert.hpp"

namespace hyrise {

/// Approximate-membership-with-counts filter (paper §2.4 cites counting
/// quotient filters [Pandey et al.]). This implementation keeps the CQF's
/// observable behaviour — membership tests with a small false-positive rate
/// plus upper-bound occurrence counts usable for selectivity estimation — via
/// an open-addressed fingerprint table: the hash is split into a table slot
/// (quotient) and a stored fingerprint (remainder); equal fingerprints share a
/// slot and increment a count. See DESIGN.md §4 for the substitution note.
template <typename T>
class CountingQuotientFilter final : public AbstractSegmentFilter {
 public:
  /// `expected_count` sizes the table; `remainder_bits` controls the
  /// false-positive rate (~ 2^-remainder_bits per probe).
  explicit CountingQuotientFilter(size_t expected_count, uint8_t remainder_bits = 16)
      : remainder_mask_((uint64_t{1} << remainder_bits) - 1) {
    auto capacity = size_t{64};
    while (capacity < expected_count * 2) {
      capacity *= 2;
    }
    slots_.resize(capacity);
  }

  void Insert(const T& value) {
    const auto hash = Hash(value);
    const auto capacity = slots_.size();
    auto index = (hash >> 16) & (capacity - 1);
    const auto fingerprint = (hash & remainder_mask_) | kOccupiedBit;
    for (auto probe = size_t{0}; probe < capacity; ++probe) {
      auto& slot = slots_[index];
      if ((slot.fingerprint & kOccupiedBit) == 0) {
        slot.fingerprint = fingerprint;
        slot.count = 1;
        return;
      }
      if (slot.fingerprint == fingerprint) {
        ++slot.count;
        return;
      }
      index = (index + 1) & (capacity - 1);
    }
    Fail("CountingQuotientFilter overflow");
  }

  /// Upper bound on how often `value` occurs (0 means provably absent).
  uint32_t Count(const T& value) const {
    const auto hash = Hash(value);
    const auto capacity = slots_.size();
    auto index = (hash >> 16) & (capacity - 1);
    const auto fingerprint = (hash & remainder_mask_) | kOccupiedBit;
    for (auto probe = size_t{0}; probe < capacity; ++probe) {
      const auto& slot = slots_[index];
      if ((slot.fingerprint & kOccupiedBit) == 0) {
        return 0;
      }
      if (slot.fingerprint == fingerprint) {
        return slot.count;
      }
      index = (index + 1) & (capacity - 1);
    }
    return 0;
  }

  bool Contains(const T& value) const {
    return Count(value) > 0;
  }

  bool CanPrune(PredicateCondition condition, const AllTypeVariant& value,
                const std::optional<AllTypeVariant>& /*value2*/ = std::nullopt) const final {
    if (condition != PredicateCondition::kEquals || VariantIsNull(value)) {
      return false;
    }
    const auto predicate = TypePredicateLiteral<T>(condition, value);
    return predicate.outcome == LiteralOutcome::kNoRow ||
           (predicate.outcome == LiteralOutcome::kTyped && !Contains(predicate.value));
  }

 private:
  static constexpr uint64_t kOccupiedBit = uint64_t{1} << 63;

  struct Slot {
    uint64_t fingerprint{0};
    uint32_t count{0};
  };

  static uint64_t Hash(const T& value) {
    // Mix std::hash output; libstdc++'s identity hash for integers would put
    // consecutive keys into consecutive slots otherwise.
    auto hash = static_cast<uint64_t>(std::hash<T>{}(value));
    hash ^= hash >> 33;
    hash *= 0xff51afd7ed558ccdull;
    hash ^= hash >> 33;
    hash *= 0xc4ceb9fe1a85ec53ull;
    hash ^= hash >> 33;
    return hash;
  }

  uint64_t remainder_mask_;
  std::vector<Slot> slots_;
};

}  // namespace hyrise

#endif  // HYRISE_SRC_STATISTICS_COUNTING_QUOTIENT_FILTER_HPP_
