#ifndef HYRISE_SRC_EXPRESSION_PREDICATE_LITERAL_HPP_
#define HYRISE_SRC_EXPRESSION_PREDICATE_LITERAL_HPP_

#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "types/all_type_variant.hpp"
#include "types/types.hpp"

namespace hyrise {

/// What `column <condition> literal` becomes over a column of type T.
enum class LiteralOutcome {
  kTyped,            // `condition`, `value` and `value2` state the predicate exactly in T.
  kNoRow,            // No row matches: `int = 10.5`, `int > 1e12`, a NULL literal.
  kEveryNonNullRow,  // Every non-null row matches: `int < 4294967306`, `int <> 10.5`.
  kTypeMismatch,     // String against number, or a condition that compares no literal.
};

template <typename T>
struct TypedPredicate {
  LiteralOutcome outcome{LiteralOutcome::kTyped};
  PredicateCondition condition{PredicateCondition::kEquals};
  T value{};
  std::optional<T> value2{};  // Upper bound of kBetweenInclusive.
};

namespace detail {

// int32, int64, float and double all convert to long double exactly.
static_assert(std::numeric_limits<long double>::digits >= 64, "literal typing compares in long double");

/// The largest value of T <= `literal` and the smallest >= it (equal if T
/// holds the literal). An absent neighbor lies beyond T's range; NaN has
/// none. Floating columns hold ±infinity, so there every other literal has
/// both.
template <typename T>
std::pair<std::optional<T>, std::optional<T>> NeighborsOf(const AllTypeVariant& literal) {
  if constexpr (std::is_same_v<T, std::string>) {
    return {std::get<std::string>(literal), std::get<std::string>(literal)};
  } else {
    // Range checks come before any conversion to T.
    const auto exact = VariantCast<long double>(literal);
    using Limits = std::numeric_limits<T>;
    if (std::isnan(exact)) {
      return {};
    }
    if constexpr (std::is_integral_v<T>) {
      if (exact < Limits::min()) {
        return {std::nullopt, Limits::min()};
      }
      if (exact > Limits::max()) {
        return {Limits::max(), std::nullopt};
      }
      return {static_cast<T>(std::floor(exact)), static_cast<T>(std::ceil(exact))};
    } else {
      if (exact > Limits::max() && !std::isinf(exact)) {
        return {Limits::max(), Limits::infinity()};
      }
      if (exact < Limits::lowest() && !std::isinf(exact)) {
        return {-Limits::infinity(), Limits::lowest()};
      }
      const auto converted = static_cast<T>(exact);
      const auto widened = static_cast<long double>(converted);
      return {widened <= exact ? converted : std::nextafter(converted, -Limits::infinity()),
              widened >= exact ? converted : std::nextafter(converted, Limits::infinity())};
    }
  }
}

template <typename T>
TypedPredicate<T> TypeComparison(PredicateCondition condition, const AllTypeVariant& literal) {
  if (VariantIsNull(literal)) {
    return {LiteralOutcome::kNoRow};
  }
  if (std::holds_alternative<std::string>(literal) != std::is_same_v<T, std::string>) {
    return {LiteralOutcome::kTypeMismatch};
  }
  const auto [floor, ceil] = NeighborsOf<T>(literal);
  const auto exact = floor && ceil && *floor == *ceil;
  switch (condition) {
    case PredicateCondition::kEquals:
    case PredicateCondition::kNotEquals:
      if (!exact) {
        return {condition == PredicateCondition::kEquals ? LiteralOutcome::kNoRow : LiteralOutcome::kEveryNonNullRow};
      }
      return {LiteralOutcome::kTyped, condition, *floor};
    // A literal beyond an integer column's range (or NaN) lacks a neighbor.
    case PredicateCondition::kLessThan:
    case PredicateCondition::kLessThanEquals:
      if (!floor || !ceil) {
        return {floor ? LiteralOutcome::kEveryNonNullRow : LiteralOutcome::kNoRow};
      }
      return {LiteralOutcome::kTyped, exact ? condition : PredicateCondition::kLessThanEquals, *floor};
    case PredicateCondition::kGreaterThan:
    case PredicateCondition::kGreaterThanEquals:
      if (!floor || !ceil) {
        return {ceil ? LiteralOutcome::kEveryNonNullRow : LiteralOutcome::kNoRow};
      }
      return {LiteralOutcome::kTyped, exact ? condition : PredicateCondition::kGreaterThanEquals, *ceil};
    default:
      return {LiteralOutcome::kTypeMismatch};
  }
}

}  // namespace detail

/// The one rule for how a predicate literal meets a column of type T
/// (DESIGN.md §5): scans, index scans, pruning filters and estimates call it
/// and then work in T only. For every non-null `x` of type T, the result
/// answers `x <condition> value` (`value2` is the upper bound of
/// kBetweenInclusive) as compared exactly: a literal that T cannot hold is
/// range-checked first, then rounded to its neighbor in T with the condition
/// adjusted (`int < 10.5` becomes `int <= 10`), or the predicate is a
/// constant (`int = 10.5` matches no row).
template <typename T>
TypedPredicate<T> TypePredicateLiteral(PredicateCondition condition, const AllTypeVariant& value,
                                       const std::optional<AllTypeVariant>& value2 = std::nullopt) {
  if (condition != PredicateCondition::kBetweenInclusive) {
    return detail::TypeComparison<T>(condition, value);
  }
  if (!value2) {
    return {LiteralOutcome::kTypeMismatch};  // The upper bound is no literal.
  }
  // x BETWEEN a AND b  <=>  x >= a AND x <= b.
  const auto lower = detail::TypeComparison<T>(PredicateCondition::kGreaterThanEquals, value);
  const auto upper = detail::TypeComparison<T>(PredicateCondition::kLessThanEquals, *value2);
  if (lower.outcome == LiteralOutcome::kTypeMismatch || upper.outcome == LiteralOutcome::kTypeMismatch) {
    return {LiteralOutcome::kTypeMismatch};
  }
  if (lower.outcome == LiteralOutcome::kNoRow || upper.outcome == LiteralOutcome::kNoRow) {
    return {LiteralOutcome::kNoRow};
  }
  if (lower.outcome != LiteralOutcome::kTyped || upper.outcome != LiteralOutcome::kTyped) {
    return lower.outcome == LiteralOutcome::kTyped ? lower : upper;  // One side holds for every row.
  }
  if (upper.value < lower.value) {
    return {LiteralOutcome::kNoRow};
  }
  return {LiteralOutcome::kTyped, condition, lower.value, upper.value};
}

}  // namespace hyrise

#endif  // HYRISE_SRC_EXPRESSION_PREDICATE_LITERAL_HPP_
