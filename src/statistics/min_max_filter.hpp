#ifndef HYRISE_SRC_STATISTICS_MIN_MAX_FILTER_HPP_
#define HYRISE_SRC_STATISTICS_MIN_MAX_FILTER_HPP_

#include <optional>
#include <string>

#include "expression/predicate_literal.hpp"
#include "statistics/abstract_segment_filter.hpp"

namespace hyrise {

/// The simplest pruning filter (paper §2.4, cf. zone maps / synopses): the
/// smallest and largest value of the segment. Lexicographic string min/max
/// makes this effective for the CHAR(10) date columns too.
template <typename T>
class MinMaxFilter final : public AbstractSegmentFilter {
 public:
  MinMaxFilter(T min, T max) : min_(std::move(min)), max_(std::move(max)) {}

  bool CanPrune(PredicateCondition condition, const AllTypeVariant& value,
                const std::optional<AllTypeVariant>& value2 = std::nullopt) const final {
    if (VariantIsNull(value)) {
      return false;
    }
    if constexpr (std::is_same_v<T, std::string>) {
      if (condition == PredicateCondition::kLike && std::holds_alternative<std::string>(value)) {
        // LIKE 'literalprefix%...' excludes segments whose range does not
        // intersect the prefix range.
        auto prefix = std::string{};
        for (const auto character : std::get<std::string>(value)) {
          if (character == '%' || character == '_') {
            break;
          }
          prefix.push_back(character);
        }
        if (prefix.empty()) {
          return false;
        }
        if (max_ < prefix) {
          return true;
        }
        // Smallest string greater than every prefix-extension.
        auto upper = prefix;
        upper.back() = static_cast<char>(static_cast<unsigned char>(upper.back()) + 1);
        return min_ >= upper;
      }
    }
    // A type mismatch is the scan's error to report, not the filter's.
    const auto predicate = TypePredicateLiteral<T>(condition, value, value2);
    if (predicate.outcome != LiteralOutcome::kTyped) {
      return predicate.outcome == LiteralOutcome::kNoRow;
    }
    const auto& typed_value = predicate.value;
    switch (predicate.condition) {
      case PredicateCondition::kEquals:
        return typed_value < min_ || typed_value > max_;
      case PredicateCondition::kLessThan:
        return min_ >= typed_value;
      case PredicateCondition::kLessThanEquals:
        return min_ > typed_value;
      case PredicateCondition::kGreaterThan:
        return max_ <= typed_value;
      case PredicateCondition::kGreaterThanEquals:
        return max_ < typed_value;
      case PredicateCondition::kBetweenInclusive:
        return typed_value > max_ || *predicate.value2 < min_;
      default:
        return false;
    }
  }

 private:
  T min_;
  T max_;
};

}  // namespace hyrise

#endif  // HYRISE_SRC_STATISTICS_MIN_MAX_FILTER_HPP_
