#include <gtest/gtest.h>

#include <random>

#include "expression/expression_evaluator.hpp"
#include "expression/expression_utils.hpp"
#include "expression/like_matcher.hpp"
#include "operators/table_wrapper.hpp"
#include "test_utils.hpp"

namespace hyrise {

namespace {

ExpressionPtr Column(ColumnID id, DataType type, const std::string& name) {
  return std::make_shared<PqpColumnExpression>(id, type, true, name);
}

ExpressionPtr Value(AllTypeVariant value) {
  return std::make_shared<ValueExpression>(std::move(value));
}

}  // namespace

TEST(LikeMatcherTest, Wildcards) {
  EXPECT_TRUE(LikeMatcher{"%"}.Matches(""));
  EXPECT_TRUE(LikeMatcher{"a%"}.Matches("abc"));
  EXPECT_FALSE(LikeMatcher{"a%"}.Matches("ba"));
  EXPECT_TRUE(LikeMatcher{"%green%"}.Matches("dark green metallic"));
  EXPECT_TRUE(LikeMatcher{"a_c"}.Matches("abc"));
  EXPECT_FALSE(LikeMatcher{"a_c"}.Matches("abbc"));
  EXPECT_TRUE(LikeMatcher{"%a%b%c%"}.Matches("xxaxxbxxcxx"));
  EXPECT_FALSE(LikeMatcher{"%a%b%c%"}.Matches("cba"));
  EXPECT_TRUE(LikeMatcher{"abc"}.Matches("abc"));
  EXPECT_FALSE(LikeMatcher{"abc"}.Matches("abcd"));
  EXPECT_TRUE(LikeMatcher{"%special%requests%"}.Matches("very special packages requests here"));
}

TEST(LikeMatcherTest, PercentOnlyPatternsMatchLikeTheBacktrackingMatcher) {
  // Edge cases of the prefix/find/suffix path: empty parts, '%%', and a
  // prefix and suffix that would overlap.
  EXPECT_FALSE(LikeMatcher{"a%a"}.Matches("a"));
  EXPECT_TRUE(LikeMatcher{"a%a"}.Matches("aa"));
  EXPECT_TRUE(LikeMatcher{"%%"}.Matches(""));
  EXPECT_TRUE(LikeMatcher{""}.Matches(""));
  EXPECT_FALSE(LikeMatcher{""}.Matches("a"));
  EXPECT_FALSE(LikeMatcher{"ab%ba"}.Matches("aba"));
  EXPECT_TRUE(LikeMatcher{"%aa%aa%"}.Matches("aaaa"));
  EXPECT_FALSE(LikeMatcher{"%aa%aa%"}.Matches("aaa"));

  // Seeded random patterns over {a, b, %} (plus some with '_', which keep
  // the backtracking matcher) against random inputs over {a, b}.
  auto rng = std::mt19937{2019};
  const auto random_string = [&](const char* alphabet, size_t alphabet_size, size_t max_length) {
    auto text = std::string{};
    const auto length = rng() % (max_length + 1);
    for (auto index = size_t{0}; index < length; ++index) {
      text += alphabet[rng() % alphabet_size];
    }
    return text;
  };
  for (auto round = 0; round < 2000; ++round) {
    const auto pattern = round % 10 == 0 ? random_string("ab%_", 4, 6) : random_string("ab%", 3, 7);
    const auto matcher = LikeMatcher{pattern};
    for (auto input_round = 0; input_round < 20; ++input_round) {
      const auto input = random_string("ab", 2, 9);
      EXPECT_EQ(matcher.Matches(input), LikeMatcher::MatchesWithBacktracking(pattern, input))
          << "pattern '" << pattern << "' input '" << input << "'";
    }
  }
}

TEST(ExpressionTest, StructuralEqualityAndHash) {
  const auto a1 = Column(ColumnID{0}, DataType::kInt, "a");
  const auto a2 = Column(ColumnID{0}, DataType::kInt, "a");
  const auto b = Column(ColumnID{1}, DataType::kInt, "b");
  const auto sum1 = std::make_shared<ArithmeticExpression>(ArithmeticOperator::kAddition, a1, b);
  const auto sum2 = std::make_shared<ArithmeticExpression>(ArithmeticOperator::kAddition, a2, b->DeepCopy());
  EXPECT_TRUE(*sum1 == *sum2);
  EXPECT_EQ(sum1->Hash(), sum2->Hash());
  const auto product = std::make_shared<ArithmeticExpression>(ArithmeticOperator::kMultiplication, a1, b);
  EXPECT_FALSE(*sum1 == *product);
}

TEST(ExpressionTest, FlattenAndInflateConjunction) {
  const auto a = Value(1);
  const auto b = Value(2);
  const auto c = Value(3);
  const auto conjunction = std::make_shared<LogicalExpression>(
      LogicalOperator::kAnd, std::make_shared<LogicalExpression>(LogicalOperator::kAnd, a, b), c);
  const auto flattened = FlattenConjunction(conjunction);
  ASSERT_EQ(flattened.size(), 3u);
  const auto inflated = InflateConjunction(flattened);
  EXPECT_EQ(FlattenConjunction(inflated).size(), 3u);
}

TEST(ExpressionTest, ReplaceParameters) {
  const auto parameter = std::make_shared<ParameterExpression>(ParameterID{3}, DataType::kInt);
  const auto expression = std::make_shared<PredicateExpression>(
      PredicateCondition::kEquals, Expressions{Column(ColumnID{0}, DataType::kInt, "a"), parameter});
  const auto replaced = ReplaceParameters(expression, {{ParameterID{3}, AllTypeVariant{42}}});
  EXPECT_NE(replaced, expression);
  EXPECT_EQ(replaced->arguments[1]->type, ExpressionType::kValue);
  EXPECT_EQ(std::get<int32_t>(static_cast<const ValueExpression&>(*replaced->arguments[1]).value), 42);
  // Unbound parameters stay untouched, and untouched trees are not copied.
  const auto untouched = ReplaceParameters(expression, {{ParameterID{9}, AllTypeVariant{1}}});
  EXPECT_EQ(untouched, expression);
}

class EvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = MakeTable({{"a", DataType::kInt, true}, {"b", DataType::kDouble}, {"s", DataType::kString}},
                       {{1, 1.5, std::string{"one"}},
                        {2, 2.5, std::string{"two"}},
                        {kNullVariant, 3.5, std::string{"three"}},
                        {4, 4.5, std::string{"four"}}},
                       10);
  }

  ExpressionEvaluator Evaluator() {
    return ExpressionEvaluator{table_, ChunkID{0}};
  }

  std::shared_ptr<Table> table_;
};

TEST_F(EvaluatorTest, ArithmeticWithNullPropagation) {
  auto evaluator = Evaluator();
  const auto expression = std::make_shared<ArithmeticExpression>(
      ArithmeticOperator::kAddition, Column(ColumnID{0}, DataType::kInt, "a"),
      Column(ColumnID{1}, DataType::kDouble, "b"));
  const auto result = evaluator.EvaluateTo<double>(expression);
  EXPECT_DOUBLE_EQ(result->Value(0), 2.5);
  EXPECT_TRUE(result->IsNull(2));
  EXPECT_DOUBLE_EQ(result->Value(3), 8.5);
}

TEST_F(EvaluatorTest, DivisionByZeroIsNull) {
  auto evaluator = Evaluator();
  const auto expression = std::make_shared<ArithmeticExpression>(ArithmeticOperator::kDivision, Value(1), Value(0));
  const auto result = evaluator.EvaluateTo<int32_t>(expression);
  EXPECT_TRUE(result->IsNull(0));
}

TEST_F(EvaluatorTest, ThreeValuedLogic) {
  auto evaluator = Evaluator();
  // (a > 1) OR (a IS NULL): row 2 has NULL a → OR(NULL, TRUE) = TRUE.
  const auto greater = std::make_shared<PredicateExpression>(
      PredicateCondition::kGreaterThan, Expressions{Column(ColumnID{0}, DataType::kInt, "a"), Value(1)});
  const auto is_null = std::make_shared<PredicateExpression>(
      PredicateCondition::kIsNull, Expressions{Column(ColumnID{0}, DataType::kInt, "a")});
  const auto either = std::make_shared<LogicalExpression>(LogicalOperator::kOr, greater, is_null);
  EXPECT_EQ(evaluator.EvaluateToPositions(either).size(), 3u);

  // AND with NULL: (a > 1) AND (a < 10) skips the NULL row entirely.
  const auto less = std::make_shared<PredicateExpression>(
      PredicateCondition::kLessThan, Expressions{Column(ColumnID{0}, DataType::kInt, "a"), Value(10)});
  const auto both = std::make_shared<LogicalExpression>(LogicalOperator::kAnd, greater, less);
  EXPECT_EQ(evaluator.EvaluateToPositions(both).size(), 2u);
}

TEST_F(EvaluatorTest, CaseWithNullElse) {
  auto evaluator = Evaluator();
  const auto condition = std::make_shared<PredicateExpression>(
      PredicateCondition::kGreaterThan, Expressions{Column(ColumnID{0}, DataType::kInt, "a"), Value(1)});
  const auto expression = std::make_shared<CaseExpression>(
      Expressions{condition, Value(std::string{"big"}), Value(kNullVariant)});
  const auto result = evaluator.EvaluateTo<std::string>(expression);
  EXPECT_TRUE(result->IsNull(0));
  EXPECT_EQ(result->Value(1), "big");
  EXPECT_TRUE(result->IsNull(2));  // NULL condition falls to ELSE.
}

TEST_F(EvaluatorTest, SubstringAndConcat) {
  auto evaluator = Evaluator();
  const auto substring = std::make_shared<FunctionExpression>(
      FunctionType::kSubstring, Expressions{Column(ColumnID{2}, DataType::kString, "s"), Value(1), Value(3)});
  EXPECT_EQ(evaluator.EvaluateTo<std::string>(substring)->Value(2), "thr");
  const auto concat = std::make_shared<FunctionExpression>(
      FunctionType::kConcat, Expressions{Column(ColumnID{2}, DataType::kString, "s"), Value(std::string{"!"})});
  EXPECT_EQ(evaluator.EvaluateTo<std::string>(concat)->Value(0), "one!");
}

TEST_F(EvaluatorTest, ExtractFromIsoDate) {
  auto evaluator = ExpressionEvaluator{};
  const auto extract = std::make_shared<FunctionExpression>(FunctionType::kExtractYear,
                                                            Expressions{Value(std::string{"1997-06-15"})});
  EXPECT_EQ(VariantCast<int32_t>(evaluator.EvaluateToScalar(extract)), 1997);
  const auto month = std::make_shared<FunctionExpression>(FunctionType::kExtractMonth,
                                                          Expressions{Value(std::string{"1997-06-15"})});
  EXPECT_EQ(VariantCast<int32_t>(evaluator.EvaluateToScalar(month)), 6);
}

TEST_F(EvaluatorTest, UncorrelatedSubqueryAsScalarAndInSet) {
  auto inner_table = MakeTable({{"x", DataType::kInt}}, {{2}, {4}});
  auto wrapper = std::make_shared<TableWrapper>(inner_table);
  const auto subquery = std::make_shared<PqpSubqueryExpression>(
      wrapper, DataType::kInt, std::vector<std::pair<ParameterID, ExpressionPtr>>{});

  auto evaluator = Evaluator();
  // Scalar: first row, first column.
  const auto comparison = std::make_shared<PredicateExpression>(
      PredicateCondition::kEquals, Expressions{Column(ColumnID{0}, DataType::kInt, "a"), subquery});
  EXPECT_EQ(evaluator.EvaluateToPositions(comparison).size(), 1u);  // a == 2.

  // IN set.
  const auto in_expression = std::make_shared<PredicateExpression>(
      PredicateCondition::kIn, Expressions{Column(ColumnID{0}, DataType::kInt, "a"), subquery});
  EXPECT_EQ(evaluator.EvaluateToPositions(in_expression).size(), 2u);  // 2 and 4.
}

TEST_F(EvaluatorTest, SharedSubexpressionsAreEvaluatedOnce) {
  auto evaluator = Evaluator();
  const auto make_product = [] {
    return std::make_shared<ArithmeticExpression>(ArithmeticOperator::kMultiplication,
                                                  Column(ColumnID{0}, DataType::kInt, "a"),
                                                  Column(ColumnID{1}, DataType::kDouble, "b"));
  };
  // Two structurally equal trees share one cached result.
  const auto product = evaluator.EvaluateTo<double>(make_product());
  EXPECT_EQ(evaluator.EvaluateTo<double>(make_product()), product);
  const auto sum = std::make_shared<ArithmeticExpression>(ArithmeticOperator::kAddition, make_product(), Value(1.0));
  const auto sum_segment = evaluator.EvaluateToSegment(sum);
  EXPECT_EQ((*sum_segment)[ChunkOffset{1}], AllTypeVariant{6.0});
  // The segment of a cached result is a copy: the cache keeps its values.
  const auto product_segment = evaluator.EvaluateToSegment(make_product());
  EXPECT_EQ((*product_segment)[ChunkOffset{3}], AllTypeVariant{18.0});
  EXPECT_EQ(product->values.size(), 4u);

  // A subquery's result is never cached: each evaluation runs it.
  auto inner_table = MakeTable({{"x", DataType::kInt}}, {{2}});
  const auto subquery =
      std::make_shared<PqpSubqueryExpression>(std::make_shared<TableWrapper>(inner_table), DataType::kInt,
                                              std::vector<std::pair<ParameterID, ExpressionPtr>>{});
  const auto scaled = std::make_shared<ArithmeticExpression>(ArithmeticOperator::kMultiplication,
                                                             Column(ColumnID{0}, DataType::kInt, "a"), subquery);
  EXPECT_NE(evaluator.EvaluateTo<int32_t>(scaled), evaluator.EvaluateTo<int32_t>(scaled));
}

}  // namespace hyrise
