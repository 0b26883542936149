#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "expression/predicate_literal.hpp"

namespace hyrise {

namespace {

template <typename T>
void ExpectTyped(const TypedPredicate<T>& predicate, PredicateCondition condition, T value) {
  EXPECT_EQ(predicate.outcome, LiteralOutcome::kTyped);
  EXPECT_EQ(predicate.condition, condition);
  EXPECT_EQ(predicate.value, value);
}

}  // namespace

TEST(PredicateLiteralTest, FractionalLiteralRoundsTheBoundIntoTheColumnType) {
  ExpectTyped(TypePredicateLiteral<int32_t>(PredicateCondition::kLessThan, 10.5), PredicateCondition::kLessThanEquals,
              10);
  ExpectTyped(TypePredicateLiteral<int32_t>(PredicateCondition::kLessThanEquals, 10.5),
              PredicateCondition::kLessThanEquals, 10);
  ExpectTyped(TypePredicateLiteral<int32_t>(PredicateCondition::kGreaterThanEquals, 10.5),
              PredicateCondition::kGreaterThanEquals, 11);
  ExpectTyped(TypePredicateLiteral<int32_t>(PredicateCondition::kGreaterThan, -10.5),
              PredicateCondition::kGreaterThanEquals, -10);

  // float < 0.1 becomes float <= the largest float below 0.1.
  const auto below_tenth = TypePredicateLiteral<float>(PredicateCondition::kLessThan, 0.1);
  EXPECT_EQ(below_tenth.condition, PredicateCondition::kLessThanEquals);
  EXPECT_LT(static_cast<double>(below_tenth.value), 0.1);
  EXPECT_GT(static_cast<double>(std::nextafter(below_tenth.value, 1.0f)), 0.1);
}

TEST(PredicateLiteralTest, ExactLiteralsKeepTheirCondition) {
  ExpectTyped(TypePredicateLiteral<int32_t>(PredicateCondition::kLessThan, 10.0), PredicateCondition::kLessThan, 10);
  ExpectTyped(TypePredicateLiteral<int32_t>(PredicateCondition::kEquals, int64_t{-7}), PredicateCondition::kEquals,
              -7);
  ExpectTyped(TypePredicateLiteral<double>(PredicateCondition::kNotEquals, 0.5f), PredicateCondition::kNotEquals, 0.5);
  ExpectTyped(TypePredicateLiteral<int64_t>(PredicateCondition::kGreaterThan, 4294967306.0),
              PredicateCondition::kGreaterThan, int64_t{4294967306});
  ExpectTyped(TypePredicateLiteral<std::string>(PredicateCondition::kLessThan, std::string{"b"}),
              PredicateCondition::kLessThan, std::string{"b"});
}

TEST(PredicateLiteralTest, UnrepresentableLiteralsBecomeConstants) {
  using enum PredicateCondition;
  EXPECT_EQ(TypePredicateLiteral<int32_t>(kEquals, 10.5).outcome, LiteralOutcome::kNoRow);
  EXPECT_EQ(TypePredicateLiteral<int32_t>(kNotEquals, 10.5).outcome, LiteralOutcome::kEveryNonNullRow);
  EXPECT_EQ(TypePredicateLiteral<int32_t>(kLessThan, int64_t{4294967306}).outcome, LiteralOutcome::kEveryNonNullRow);
  EXPECT_EQ(TypePredicateLiteral<int32_t>(kLessThan, 1000000000000.5).outcome, LiteralOutcome::kEveryNonNullRow);
  EXPECT_EQ(TypePredicateLiteral<int32_t>(kGreaterThan, 1e12).outcome, LiteralOutcome::kNoRow);
  EXPECT_EQ(TypePredicateLiteral<int32_t>(kGreaterThan, -1e12).outcome, LiteralOutcome::kEveryNonNullRow);
  EXPECT_EQ(TypePredicateLiteral<int32_t>(kEquals, int64_t{4294967306}).outcome, LiteralOutcome::kNoRow);
  EXPECT_EQ(TypePredicateLiteral<int64_t>(kLessThan, 9.3e18).outcome, LiteralOutcome::kEveryNonNullRow);
  EXPECT_EQ(TypePredicateLiteral<int64_t>(kLessThan, -std::numeric_limits<double>::infinity()).outcome,
            LiteralOutcome::kNoRow);
  EXPECT_EQ(TypePredicateLiteral<int32_t>(kLessThan, std::numeric_limits<double>::quiet_NaN()).outcome,
            LiteralOutcome::kNoRow);
  EXPECT_EQ(TypePredicateLiteral<double>(kNotEquals, std::numeric_limits<double>::quiet_NaN()).outcome,
            LiteralOutcome::kEveryNonNullRow);
  EXPECT_EQ(TypePredicateLiteral<int32_t>(kEquals, kNullVariant).outcome, LiteralOutcome::kNoRow);
}

TEST(PredicateLiteralTest, FloatColumnsKeepInfinityAboveTheLargestFloat) {
  // x < 1e39 holds for every finite float but not for +infinity.
  ExpectTyped(TypePredicateLiteral<float>(PredicateCondition::kLessThan, 1e39), PredicateCondition::kLessThanEquals,
              std::numeric_limits<float>::max());
  ExpectTyped(TypePredicateLiteral<float>(PredicateCondition::kGreaterThan, 1e39),
              PredicateCondition::kGreaterThanEquals, std::numeric_limits<float>::infinity());
  EXPECT_EQ(TypePredicateLiteral<float>(PredicateCondition::kEquals, 1e39).outcome, LiteralOutcome::kNoRow);
}

TEST(PredicateLiteralTest, BetweenTypesBothBounds) {
  const auto between = TypePredicateLiteral<int32_t>(PredicateCondition::kBetweenInclusive, 9.5, 20.5);
  ExpectTyped(between, PredicateCondition::kBetweenInclusive, 10);
  EXPECT_EQ(between.value2, 20);
  ExpectTyped(TypePredicateLiteral<int32_t>(PredicateCondition::kBetweenInclusive, -1e12, 20.5),
              PredicateCondition::kLessThanEquals, 20);
  ExpectTyped(TypePredicateLiteral<int32_t>(PredicateCondition::kBetweenInclusive, 9.5, int64_t{4294967306}),
              PredicateCondition::kGreaterThanEquals, 10);
  EXPECT_EQ(TypePredicateLiteral<int32_t>(PredicateCondition::kBetweenInclusive, 10.25, 10.75).outcome,
            LiteralOutcome::kNoRow);
  EXPECT_EQ(TypePredicateLiteral<int32_t>(PredicateCondition::kBetweenInclusive, -1e12, 1e12).outcome,
            LiteralOutcome::kEveryNonNullRow);
  EXPECT_EQ(TypePredicateLiteral<int32_t>(PredicateCondition::kBetweenInclusive, 1, kNullVariant).outcome,
            LiteralOutcome::kNoRow);
}

TEST(PredicateLiteralTest, StringAgainstNumberIsATypeMismatch) {
  EXPECT_EQ(TypePredicateLiteral<int32_t>(PredicateCondition::kEquals, std::string{"10"}).outcome,
            LiteralOutcome::kTypeMismatch);
  EXPECT_EQ(TypePredicateLiteral<std::string>(PredicateCondition::kLessThan, 10).outcome,
            LiteralOutcome::kTypeMismatch);
  EXPECT_EQ(TypePredicateLiteral<double>(PredicateCondition::kBetweenInclusive, 1.0, std::string{"x"}).outcome,
            LiteralOutcome::kTypeMismatch);
}

}  // namespace hyrise
