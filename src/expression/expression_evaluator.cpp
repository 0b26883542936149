#include "expression/expression_evaluator.hpp"

#include <cmath>
#include <unordered_set>

#include "expression/expression_utils.hpp"
#include "expression/like_matcher.hpp"
#include "operators/abstract_operator.hpp"
#include "storage/segment_decoder.hpp"
#include "storage/table.hpp"
#include "storage/value_segment.hpp"
#include "utils/assert.hpp"

namespace hyrise {

namespace {

/// Output size of combining results (literals broadcast).
size_t CombinedSize(size_t lhs, size_t rhs) {
  return std::max(lhs, rhs);
}

template <typename R, typename A, typename B, typename Functor>
std::shared_ptr<ExpressionResult<R>> Combine(const ExpressionResult<A>& lhs, const ExpressionResult<B>& rhs,
                                             const Functor& functor) {
  const auto size = CombinedSize(lhs.Size(), rhs.Size());
  auto values = std::vector<R>(size);
  auto nulls = std::vector<bool>(size, false);
  auto any_null = false;
  for (auto row = size_t{0}; row < size; ++row) {
    if (lhs.IsNull(row) || rhs.IsNull(row)) {
      nulls[row] = true;
      any_null = true;
      continue;
    }
    // The functor may set the null flag itself (e.g. division by zero).
    auto is_null = false;
    values[row] = functor(lhs.Value(row), rhs.Value(row), is_null);
    if (is_null) {
      nulls[row] = true;
      any_null = true;
    }
  }
  if (!any_null) {
    nulls.clear();
  }
  return std::make_shared<ExpressionResult<R>>(std::move(values), std::move(nulls));
}

template <typename S, typename T>
std::shared_ptr<ExpressionResult<T>> ConvertResult(const ExpressionResult<S>& source) {
  if constexpr (std::is_arithmetic_v<S> && std::is_arithmetic_v<T>) {
    auto values = std::vector<T>(source.values.size());
    for (auto row = size_t{0}; row < source.values.size(); ++row) {
      values[row] = static_cast<T>(source.values[row]);
    }
    return std::make_shared<ExpressionResult<T>>(std::move(values), source.nulls);
  } else {
    Fail("Unsupported implicit conversion in expression evaluation");
  }
}

template <typename T>
bool CompareWith(PredicateCondition condition, const T& lhs, const T& rhs) {
  switch (condition) {
    case PredicateCondition::kEquals:
      return lhs == rhs;
    case PredicateCondition::kNotEquals:
      return lhs != rhs;
    case PredicateCondition::kLessThan:
      return lhs < rhs;
    case PredicateCondition::kLessThanEquals:
      return lhs <= rhs;
    case PredicateCondition::kGreaterThan:
      return lhs > rhs;
    case PredicateCondition::kGreaterThanEquals:
      return lhs >= rhs;
    default:
      Fail("Not a binary comparison");
  }
}

}  // namespace

ExpressionEvaluator::ExpressionEvaluator(std::shared_ptr<const Table> table, ChunkID chunk_id,
                                         std::shared_ptr<TransactionContext> transaction_context)
    : table_(std::move(table)), chunk_id_(chunk_id), transaction_context_(std::move(transaction_context)) {
  chunk_ = table_->GetChunk(chunk_id_);
  row_count_ = chunk_->size();
}

// --- Entry points ---------------------------------------------------------------

template <typename T>
std::shared_ptr<ExpressionResult<T>> ExpressionEvaluator::EvaluateTo(const ExpressionPtr& expression) {
  const auto expression_type = expression->data_type();
  if (expression_type == DataType::kNull) {
    return ExpressionResult<T>::MakeNullLiteral();
  }
  if (expression_type == DataTypeOf<T>()) {
    return EvaluateSameType<T>(expression);
  }
  auto result = std::shared_ptr<ExpressionResult<T>>{};
  ResolveDataType(expression_type, [&](auto type_tag) {
    using S = decltype(type_tag);
    result = ConvertResult<S, T>(*EvaluateSameType<S>(expression));
  });
  return result;
}

template std::shared_ptr<ExpressionResult<int32_t>> ExpressionEvaluator::EvaluateTo(const ExpressionPtr&);
template std::shared_ptr<ExpressionResult<int64_t>> ExpressionEvaluator::EvaluateTo(const ExpressionPtr&);
template std::shared_ptr<ExpressionResult<float>> ExpressionEvaluator::EvaluateTo(const ExpressionPtr&);
template std::shared_ptr<ExpressionResult<double>> ExpressionEvaluator::EvaluateTo(const ExpressionPtr&);
template std::shared_ptr<ExpressionResult<std::string>> ExpressionEvaluator::EvaluateTo(const ExpressionPtr&);

std::shared_ptr<AbstractSegment> ExpressionEvaluator::EvaluateToSegment(const ExpressionPtr& expression) {
  auto segment = std::shared_ptr<AbstractSegment>{};
  auto data_type = expression->data_type();
  if (data_type == DataType::kNull) {
    data_type = DataType::kInt;  // NULL literal column.
  }
  ResolveDataType(data_type, [&](auto type_tag) {
    using T = decltype(type_tag);
    // The root is evaluated without caching it, unless the cache already
    // holds it as part of another expression. Its values are moved into the
    // segment unless the cache holds them too.
    auto result = std::shared_ptr<ExpressionResult<T>>{};
    if (expression->data_type() == DataType::kNull) {
      result = ExpressionResult<T>::MakeNullLiteral();
    } else if (const auto cached = result_cache_.find(expression); cached != result_cache_.end()) {
      result = std::static_pointer_cast<ExpressionResult<T>>(cached->second);
    } else {
      result = EvaluateUncached<T>(expression);
    }
    const auto shared = result.use_count() > 1;
    auto values = shared ? result->values : std::move(result->values);
    auto nulls = shared ? result->nulls : std::move(result->nulls);
    if (values.size() == 1 && row_count_ != 1) {  // Broadcast literal.
      values.assign(row_count_, T{values[0]});
      if (!nulls.empty()) {
        nulls.assign(row_count_, bool{nulls[0]});
      }
    }
    if (!nulls.empty() && nulls.size() != values.size()) {
      nulls.assign(values.size(), bool{nulls[0]});
    }
    segment = std::make_shared<ValueSegment<T>>(std::move(values), std::move(nulls));
  });
  return segment;
}

std::vector<ChunkOffset> ExpressionEvaluator::EvaluateToPositions(const ExpressionPtr& expression) {
  const auto result = EvaluateTo<int32_t>(expression);
  auto positions = std::vector<ChunkOffset>{};
  if (result->IsLiteral()) {
    if (!result->IsNull(0) && result->Value(0) != 0) {
      positions.resize(row_count_);
      for (auto offset = ChunkOffset{0}; offset < row_count_; ++offset) {
        positions[offset] = offset;
      }
    }
    return positions;
  }
  for (auto offset = ChunkOffset{0}; offset < result->Size(); ++offset) {
    if (!result->IsNull(offset) && result->Value(offset) != 0) {
      positions.push_back(offset);
    }
  }
  return positions;
}

AllTypeVariant ExpressionEvaluator::EvaluateToScalar(const ExpressionPtr& expression) {
  if (expression->data_type() == DataType::kNull) {
    return kNullVariant;
  }
  auto result = AllTypeVariant{};
  ResolveDataType(expression->data_type(), [&](auto type_tag) {
    using T = decltype(type_tag);
    const auto evaluated = EvaluateTo<T>(expression);
    Assert(evaluated->Size() >= 1, "Scalar evaluation produced no rows");
    result = evaluated->IsNull(0) ? kNullVariant : AllTypeVariant{evaluated->Value(0)};
  });
  return result;
}

// --- Dispatcher -----------------------------------------------------------------

namespace {

/// Whether the evaluator caches the result of `expression`: a column, or a
/// deterministic arithmetic, CASE or CAST node. Subqueries and parameters
/// anywhere below make it uncacheable.
bool IsCacheable(const ExpressionPtr& expression) {
  const auto type = expression->type;
  if (type != ExpressionType::kPqpColumn && type != ExpressionType::kArithmetic && type != ExpressionType::kCase &&
      type != ExpressionType::kCast) {
    return false;
  }
  auto cacheable = true;
  VisitExpression(expression, [&](const ExpressionPtr& node) {
    cacheable &= node->type != ExpressionType::kPqpSubquery && node->type != ExpressionType::kLqpSubquery &&
                 node->type != ExpressionType::kParameter;
    return cacheable;
  });
  return cacheable;
}

}  // namespace

template <typename T>
std::shared_ptr<ExpressionResult<T>> ExpressionEvaluator::EvaluateSameType(const ExpressionPtr& expression) {
  if (!IsCacheable(expression)) {
    return EvaluateUncached<T>(expression);
  }
  const auto cached = result_cache_.find(expression);
  if (cached != result_cache_.end()) {
    return std::static_pointer_cast<ExpressionResult<T>>(cached->second);
  }
  auto result = EvaluateUncached<T>(expression);
  result_cache_.emplace(expression, result);
  return result;
}

template <typename T>
std::shared_ptr<ExpressionResult<T>> ExpressionEvaluator::EvaluateUncached(const ExpressionPtr& expression) {
  switch (expression->type) {
    case ExpressionType::kValue: {
      const auto& value_expression = static_cast<const ValueExpression&>(*expression);
      if (VariantIsNull(value_expression.value)) {
        return ExpressionResult<T>::MakeNullLiteral();
      }
      return ExpressionResult<T>::MakeLiteral(VariantCast<T>(value_expression.value));
    }
    case ExpressionType::kPqpColumn:
      return EvaluateColumn<T>(static_cast<const PqpColumnExpression&>(*expression));
    case ExpressionType::kArithmetic:
      if constexpr (std::is_arithmetic_v<T>) {
        return EvaluateArithmetic<T>(static_cast<const ArithmeticExpression&>(*expression));
      }
      Fail("Arithmetic on strings");
    case ExpressionType::kPredicate:
      if constexpr (std::is_same_v<T, int32_t>) {
        return EvaluatePredicate(static_cast<const PredicateExpression&>(*expression));
      }
      Fail("Predicate must evaluate to int32");
    case ExpressionType::kLogical:
      if constexpr (std::is_same_v<T, int32_t>) {
        return EvaluateLogical(static_cast<const LogicalExpression&>(*expression));
      }
      Fail("Logical must evaluate to int32");
    case ExpressionType::kExists:
      if constexpr (std::is_same_v<T, int32_t>) {
        return EvaluateExists(static_cast<const ExistsExpression&>(*expression));
      }
      Fail("EXISTS must evaluate to int32");
    case ExpressionType::kCase:
      return EvaluateCase<T>(static_cast<const CaseExpression&>(*expression));
    case ExpressionType::kCast:
      return EvaluateCast<T>(static_cast<const CastExpression&>(*expression));
    case ExpressionType::kFunction: {
      const auto& function = static_cast<const FunctionExpression&>(*expression);
      if constexpr (std::is_same_v<T, std::string>) {
        if (function.function == FunctionType::kSubstring || function.function == FunctionType::kConcat) {
          return EvaluateFunctionString(function);
        }
      }
      if constexpr (std::is_same_v<T, int32_t>) {
        return EvaluateFunctionExtract(function);
      }
      Fail("Unexpected function result type");
    }
    case ExpressionType::kPqpSubquery:
      return EvaluateSubqueryTo<T>(static_cast<const PqpSubqueryExpression&>(*expression));
    case ExpressionType::kParameter:
      Fail("Unbound parameter during evaluation: " + expression->Description());
    default:
      Fail("Expression type not evaluable here: " + expression->Description());
  }
}

// --- Leaves ---------------------------------------------------------------------

template <typename T>
std::shared_ptr<ExpressionResult<T>> ExpressionEvaluator::EvaluateColumn(const PqpColumnExpression& column) {
  Assert(chunk_, "Column access without a chunk context: " + column.Description());
  const auto segment = chunk_->GetSegment(column.column_id);
  Assert(segment->data_type() == DataTypeOf<T>(), "Column type mismatch for " + column.Description());

  auto decoded = DecodeSegmentAs<T>(*segment, row_count_);
  return std::make_shared<ExpressionResult<T>>(std::move(decoded.values), std::move(decoded.nulls));
}

// --- Arithmetic -----------------------------------------------------------------

template <typename T>
std::shared_ptr<ExpressionResult<T>> ExpressionEvaluator::EvaluateArithmetic(const ArithmeticExpression& expression) {
  const auto lhs = EvaluateTo<T>(expression.arguments[0]);
  const auto rhs = EvaluateTo<T>(expression.arguments[1]);
  switch (expression.arithmetic_operator) {
    case ArithmeticOperator::kAddition:
      return Combine<T>(*lhs, *rhs, [](const T& a, const T& b, bool&) {
        return a + b;
      });
    case ArithmeticOperator::kSubtraction:
      return Combine<T>(*lhs, *rhs, [](const T& a, const T& b, bool&) {
        return a - b;
      });
    case ArithmeticOperator::kMultiplication:
      return Combine<T>(*lhs, *rhs, [](const T& a, const T& b, bool&) {
        return a * b;
      });
    case ArithmeticOperator::kDivision:
      return Combine<T>(*lhs, *rhs, [](const T& a, const T& b, bool& is_null) {
        if (b == T{}) {
          is_null = true;  // SQL: division by zero yields NULL (lenient mode).
          return T{};
        }
        return static_cast<T>(a / b);
      });
    case ArithmeticOperator::kModulo:
      return Combine<T>(*lhs, *rhs, [](const T& a, const T& b, bool& is_null) {
        if (b == T{}) {
          is_null = true;
          return T{};
        }
        if constexpr (std::is_integral_v<T>) {
          return static_cast<T>(a % b);
        } else {
          return static_cast<T>(std::fmod(a, b));
        }
      });
  }
  Fail("Unhandled ArithmeticOperator");
}

// --- Predicates -----------------------------------------------------------------

std::shared_ptr<ExpressionResult<int32_t>> ExpressionEvaluator::EvaluatePredicate(
    const PredicateExpression& expression) {
  switch (expression.condition) {
    case PredicateCondition::kEquals:
    case PredicateCondition::kNotEquals:
    case PredicateCondition::kLessThan:
    case PredicateCondition::kLessThanEquals:
    case PredicateCondition::kGreaterThan:
    case PredicateCondition::kGreaterThanEquals: {
      const auto common = PromoteDataTypes(expression.arguments[0]->data_type(),
                                           expression.arguments[1]->data_type());
      auto result = std::shared_ptr<ExpressionResult<int32_t>>{};
      if (common == DataType::kNull) {
        return ExpressionResult<int32_t>::MakeNullLiteral();
      }
      ResolveDataType(common, [&](auto type_tag) {
        using S = decltype(type_tag);
        const auto lhs = EvaluateTo<S>(expression.arguments[0]);
        const auto rhs = EvaluateTo<S>(expression.arguments[1]);
        const auto condition = expression.condition;
        result = Combine<int32_t>(*lhs, *rhs, [condition](const S& a, const S& b, bool&) {
          return static_cast<int32_t>(CompareWith(condition, a, b));
        });
      });
      return result;
    }
    case PredicateCondition::kBetweenInclusive: {
      auto common = PromoteDataTypes(expression.arguments[0]->data_type(), expression.arguments[1]->data_type());
      common = PromoteDataTypes(common, expression.arguments[2]->data_type());
      auto result = std::shared_ptr<ExpressionResult<int32_t>>{};
      ResolveDataType(common, [&](auto type_tag) {
        using S = decltype(type_tag);
        const auto value = EvaluateTo<S>(expression.arguments[0]);
        const auto lower = EvaluateTo<S>(expression.arguments[1]);
        const auto upper = EvaluateTo<S>(expression.arguments[2]);
        const auto size = CombinedSize(CombinedSize(value->Size(), lower->Size()), upper->Size());
        auto values = std::vector<int32_t>(size);
        auto nulls = std::vector<bool>(size, false);
        auto any_null = false;
        for (auto row = size_t{0}; row < size; ++row) {
          if (value->IsNull(row) || lower->IsNull(row) || upper->IsNull(row)) {
            nulls[row] = true;
            any_null = true;
            continue;
          }
          values[row] =
              static_cast<int32_t>(value->Value(row) >= lower->Value(row) && value->Value(row) <= upper->Value(row));
        }
        if (!any_null) {
          nulls.clear();
        }
        result = std::make_shared<ExpressionResult<int32_t>>(std::move(values), std::move(nulls));
      });
      return result;
    }
    case PredicateCondition::kIsNull:
    case PredicateCondition::kIsNotNull: {
      const auto want_null = expression.condition == PredicateCondition::kIsNull;
      const auto argument_type = expression.arguments[0]->data_type();
      if (argument_type == DataType::kNull) {
        return ExpressionResult<int32_t>::MakeLiteral(want_null ? 1 : 0);
      }
      auto result = std::shared_ptr<ExpressionResult<int32_t>>{};
      ResolveDataType(argument_type, [&](auto type_tag) {
        using S = decltype(type_tag);
        const auto argument = EvaluateTo<S>(expression.arguments[0]);
        auto values = std::vector<int32_t>(argument->Size());
        for (auto row = size_t{0}; row < argument->Size(); ++row) {
          values[row] = static_cast<int32_t>(argument->IsNull(row) == want_null);
        }
        result = std::make_shared<ExpressionResult<int32_t>>(std::move(values));
      });
      return result;
    }
    case PredicateCondition::kLike:
    case PredicateCondition::kNotLike:
      return EvaluateLike(expression);
    case PredicateCondition::kIn:
    case PredicateCondition::kNotIn:
      return EvaluateIn(expression);
    default:
      Fail("Unhandled PredicateCondition in evaluator");
  }
}

std::shared_ptr<ExpressionResult<int32_t>> ExpressionEvaluator::EvaluateLike(const PredicateExpression& expression) {
  const auto values = EvaluateTo<std::string>(expression.arguments[0]);
  const auto patterns = EvaluateTo<std::string>(expression.arguments[1]);
  const auto invert = expression.condition == PredicateCondition::kNotLike;

  if (patterns->IsLiteral() && !patterns->IsNull(0)) {
    const auto matcher = LikeMatcher{patterns->Value(0)};
    return Combine<int32_t>(*values, *patterns, [&](const std::string& value, const std::string&, bool&) {
      return static_cast<int32_t>(matcher.Matches(value) != invert);
    });
  }
  return Combine<int32_t>(*values, *patterns, [&](const std::string& value, const std::string& pattern, bool&) {
    // A pattern per row: match without splitting each pattern first.
    return static_cast<int32_t>(LikeMatcher::MatchesWithBacktracking(pattern, value) != invert);
  });
}

std::shared_ptr<ExpressionResult<int32_t>> ExpressionEvaluator::EvaluateIn(const PredicateExpression& expression) {
  const auto invert = expression.condition == PredicateCondition::kNotIn;
  const auto& needle = expression.arguments[0];
  const auto& haystack = expression.arguments[1];

  // Determine the common element type.
  auto common = needle->data_type();
  if (haystack->type == ExpressionType::kList) {
    for (const auto& element : haystack->arguments) {
      common = PromoteDataTypes(common, element->data_type());
    }
  } else {
    Assert(haystack->type == ExpressionType::kPqpSubquery, "IN expects a list or subquery");
    common = PromoteDataTypes(common, haystack->data_type());
  }

  auto result = std::shared_ptr<ExpressionResult<int32_t>>{};
  ResolveDataType(common, [&](auto type_tag) {
    using S = decltype(type_tag);
    const auto values = EvaluateTo<S>(needle);

    auto set = std::unordered_set<S>{};
    auto set_contains_null = false;
    if (haystack->type == ExpressionType::kList) {
      for (const auto& element : haystack->arguments) {
        const auto element_result = EvaluateTo<S>(element);
        Assert(element_result->IsLiteral(), "IN list elements must be scalar");
        if (element_result->IsNull(0)) {
          set_contains_null = true;
        } else {
          set.insert(element_result->Value(0));
        }
      }
    } else {
      const auto& subquery = static_cast<const PqpSubqueryExpression&>(*haystack);
      Assert(!subquery.IsCorrelated(), "Correlated IN subqueries are rewritten to semi joins by the optimizer");
      const auto subquery_table = ExecuteSubquery(subquery, 0);
      const auto chunk_count = subquery_table->chunk_count();
      for (auto chunk_id = ChunkID{0}; chunk_id < chunk_count; ++chunk_id) {
        const auto segment = subquery_table->GetChunk(chunk_id)->GetSegment(ColumnID{0});
        const auto decoded = DecodeSegmentAs<S>(*segment);
        for (auto row = size_t{0}; row < decoded.values.size(); ++row) {
          if (decoded.IsNull(row)) {
            set_contains_null = true;
          } else {
            set.insert(decoded.values[row]);
          }
        }
      }
    }

    const auto size = values->Size();
    auto out_values = std::vector<int32_t>(size);
    auto nulls = std::vector<bool>(size, false);
    auto any_null = false;
    for (auto row = size_t{0}; row < size; ++row) {
      if (values->IsNull(row)) {
        nulls[row] = true;
        any_null = true;
        continue;
      }
      const auto found = set.contains(values->Value(row));
      if (!found && set_contains_null) {
        // SQL three-valued logic: x IN (..., NULL) is NULL when not found.
        nulls[row] = true;
        any_null = true;
        continue;
      }
      out_values[row] = static_cast<int32_t>(found != invert);
    }
    if (!any_null) {
      nulls.clear();
    }
    result = std::make_shared<ExpressionResult<int32_t>>(std::move(out_values), std::move(nulls));
  });
  return result;
}

std::shared_ptr<ExpressionResult<int32_t>> ExpressionEvaluator::EvaluateLogical(const LogicalExpression& expression) {
  const auto lhs = EvaluateTo<int32_t>(expression.arguments[0]);
  const auto rhs = EvaluateTo<int32_t>(expression.arguments[1]);
  const auto size = CombinedSize(lhs->Size(), rhs->Size());
  auto values = std::vector<int32_t>(size);
  auto nulls = std::vector<bool>(size, false);
  auto any_null = false;
  const auto is_and = expression.logical_operator == LogicalOperator::kAnd;
  for (auto row = size_t{0}; row < size; ++row) {
    const auto lhs_null = lhs->IsNull(row);
    const auto rhs_null = rhs->IsNull(row);
    const auto lhs_true = !lhs_null && lhs->Value(row) != 0;
    const auto rhs_true = !rhs_null && rhs->Value(row) != 0;
    if (is_and) {
      const auto lhs_false = !lhs_null && !lhs_true;
      const auto rhs_false = !rhs_null && !rhs_true;
      if (lhs_false || rhs_false) {
        values[row] = 0;
      } else if (lhs_null || rhs_null) {
        nulls[row] = true;
        any_null = true;
      } else {
        values[row] = 1;
      }
    } else {
      if (lhs_true || rhs_true) {
        values[row] = 1;
      } else if (lhs_null || rhs_null) {
        nulls[row] = true;
        any_null = true;
      } else {
        values[row] = 0;
      }
    }
  }
  if (!any_null) {
    nulls.clear();
  }
  return std::make_shared<ExpressionResult<int32_t>>(std::move(values), std::move(nulls));
}

// --- CASE / CAST ------------------------------------------------------------------

template <typename T>
std::shared_ptr<ExpressionResult<T>> ExpressionEvaluator::EvaluateCase(const CaseExpression& expression) {
  const auto pair_count = (expression.arguments.size() - 1) / 2;
  auto conditions = std::vector<std::shared_ptr<ExpressionResult<int32_t>>>{};
  auto branches = std::vector<std::shared_ptr<ExpressionResult<T>>>{};
  auto size = size_t{1};
  for (auto pair = size_t{0}; pair < pair_count; ++pair) {
    conditions.push_back(EvaluateTo<int32_t>(expression.arguments[pair * 2]));
    branches.push_back(EvaluateTo<T>(expression.arguments[pair * 2 + 1]));
    size = CombinedSize(size, CombinedSize(conditions.back()->Size(), branches.back()->Size()));
  }
  const auto else_branch = EvaluateTo<T>(expression.arguments.back());
  size = CombinedSize(size, else_branch->Size());

  auto values = std::vector<T>(size);
  auto nulls = std::vector<bool>(size, false);
  auto any_null = false;
  for (auto row = size_t{0}; row < size; ++row) {
    auto matched = false;
    for (auto pair = size_t{0}; pair < pair_count && !matched; ++pair) {
      if (!conditions[pair]->IsNull(row) && conditions[pair]->Value(row) != 0) {
        matched = true;
        if (branches[pair]->IsNull(row)) {
          nulls[row] = true;
          any_null = true;
        } else {
          values[row] = branches[pair]->Value(row);
        }
      }
    }
    if (!matched) {
      if (else_branch->IsNull(row)) {
        nulls[row] = true;
        any_null = true;
      } else {
        values[row] = else_branch->Value(row);
      }
    }
  }
  if (!any_null) {
    nulls.clear();
  }
  return std::make_shared<ExpressionResult<T>>(std::move(values), std::move(nulls));
}

template <typename T>
std::shared_ptr<ExpressionResult<T>> ExpressionEvaluator::EvaluateCast(const CastExpression& expression) {
  const auto source_type = expression.arguments[0]->data_type();
  if (source_type == DataType::kNull) {
    return ExpressionResult<T>::MakeNullLiteral();
  }
  auto result = std::shared_ptr<ExpressionResult<T>>{};
  ResolveDataType(source_type, [&](auto type_tag) {
    using S = decltype(type_tag);
    const auto source = EvaluateTo<S>(expression.arguments[0]);
    auto values = std::vector<T>(source->Size());
    for (auto row = size_t{0}; row < source->Size(); ++row) {
      if (source->IsNull(row)) {
        continue;
      }
      const auto& value = source->Value(row);
      if constexpr (std::is_same_v<S, T>) {
        values[row] = value;
      } else if constexpr (std::is_arithmetic_v<S> && std::is_arithmetic_v<T>) {
        values[row] = static_cast<T>(value);
      } else if constexpr (std::is_same_v<T, std::string>) {
        values[row] = VariantToString(AllTypeVariant{value});
      } else if constexpr (std::is_same_v<S, std::string>) {
        values[row] = ParseNumber<T>(value, "22P02");  // invalid_text_representation
      }
    }
    result = std::make_shared<ExpressionResult<T>>(std::move(values), source->nulls);
  });
  return result;
}

// --- Functions --------------------------------------------------------------------

std::shared_ptr<ExpressionResult<std::string>> ExpressionEvaluator::EvaluateFunctionString(
    const FunctionExpression& expression) {
  if (expression.function == FunctionType::kConcat) {
    auto result = EvaluateTo<std::string>(expression.arguments[0]);
    for (auto index = size_t{1}; index < expression.arguments.size(); ++index) {
      const auto next = EvaluateTo<std::string>(expression.arguments[index]);
      result = Combine<std::string>(*result, *next, [](const std::string& a, const std::string& b, bool&) {
        return a + b;
      });
    }
    return result;
  }
  Assert(expression.function == FunctionType::kSubstring, "Unexpected string function");
  const auto values = EvaluateTo<std::string>(expression.arguments[0]);
  const auto starts = EvaluateTo<int32_t>(expression.arguments[1]);
  const auto lengths = EvaluateTo<int32_t>(expression.arguments[2]);
  const auto size = CombinedSize(values->Size(), CombinedSize(starts->Size(), lengths->Size()));
  auto out = std::vector<std::string>(size);
  auto nulls = std::vector<bool>(size, false);
  auto any_null = false;
  for (auto row = size_t{0}; row < size; ++row) {
    if (values->IsNull(row) || starts->IsNull(row) || lengths->IsNull(row)) {
      nulls[row] = true;
      any_null = true;
      continue;
    }
    const auto& value = values->Value(row);
    const auto start = std::max(int32_t{1}, starts->Value(row));  // SQL is 1-based.
    const auto length = std::max(int32_t{0}, lengths->Value(row));
    if (static_cast<size_t>(start) <= value.size()) {
      out[row] = value.substr(start - 1, length);
    }
  }
  if (!any_null) {
    nulls.clear();
  }
  return std::make_shared<ExpressionResult<std::string>>(std::move(out), std::move(nulls));
}

std::shared_ptr<ExpressionResult<int32_t>> ExpressionEvaluator::EvaluateFunctionExtract(
    const FunctionExpression& expression) {
  // Dates are ISO-8601 strings (paper's own evaluation setup stores dates as
  // CHAR(10)); EXTRACT parses the fixed positions.
  const auto values = EvaluateTo<std::string>(expression.arguments[0]);
  auto offset = size_t{0};
  auto length = size_t{4};
  if (expression.function == FunctionType::kExtractMonth) {
    offset = 5;
    length = 2;
  } else if (expression.function == FunctionType::kExtractDay) {
    offset = 8;
    length = 2;
  }
  const auto size = values->Size();
  auto out = std::vector<int32_t>(size);
  auto nulls = std::vector<bool>(size, false);
  auto any_null = false;
  for (auto row = size_t{0}; row < size; ++row) {
    if (values->IsNull(row) || values->Value(row).size() < offset + length) {
      nulls[row] = true;
      any_null = true;
      continue;
    }
    out[row] = ParseNumber<int32_t>(values->Value(row).substr(offset, length), "22007");  // invalid_datetime_format
  }
  if (!any_null) {
    nulls.clear();
  }
  return std::make_shared<ExpressionResult<int32_t>>(std::move(out), std::move(nulls));
}

// --- Subqueries -------------------------------------------------------------------

std::shared_ptr<const Table> ExpressionEvaluator::ExecuteSubquery(const PqpSubqueryExpression& expression,
                                                                  size_t row) {
  if (!expression.IsCorrelated()) {
    const auto cached = uncorrelated_subquery_cache_.find(expression.pqp.get());
    if (cached != uncorrelated_subquery_cache_.end()) {
      return cached->second;
    }
    auto pqp = expression.pqp;
    if (!pqp->executed()) {
      if (transaction_context_) {
        pqp->SetTransactionContextRecursively(transaction_context_);
      }
      pqp->Execute();
    }
    const auto result = pqp->get_output();
    uncorrelated_subquery_cache_.emplace(expression.pqp.get(), result);
    return result;
  }

  // Correlated: bind this row's parameter values, memoize on their signature.
  auto parameters = std::unordered_map<ParameterID, AllTypeVariant>{};
  auto signature = std::to_string(reinterpret_cast<uintptr_t>(expression.pqp.get()));
  for (const auto& [parameter_id, parameter_expression] : expression.parameters) {
    auto value = AllTypeVariant{};
    if (parameter_expression->data_type() == DataType::kNull) {
      value = kNullVariant;
    } else {
      ResolveDataType(parameter_expression->data_type(), [&, expr = parameter_expression](auto type_tag) {
        using S = decltype(type_tag);
        const auto evaluated = EvaluateTo<S>(expr);
        value = evaluated->IsNull(row) ? kNullVariant : AllTypeVariant{evaluated->Value(row)};
      });
    }
    signature += "|" + VariantToString(value);
    parameters.emplace(parameter_id, std::move(value));
  }

  const auto cached = correlated_subquery_cache_.find(signature);
  if (cached != correlated_subquery_cache_.end()) {
    return cached->second;
  }

  auto pqp = expression.pqp->DeepCopy();
  pqp->SetParameters(parameters);
  if (transaction_context_) {
    pqp->SetTransactionContextRecursively(transaction_context_);
  }
  pqp->Execute();
  auto result = pqp->get_output();
  correlated_subquery_cache_.emplace(std::move(signature), result);
  return result;
}

template <typename T>
std::shared_ptr<ExpressionResult<T>> ExpressionEvaluator::EvaluateSubqueryTo(
    const PqpSubqueryExpression& expression) {
  const auto extract_scalar = [&](const std::shared_ptr<const Table>& result_table, T& value, bool& is_null) {
    if (result_table->row_count() == 0) {
      is_null = true;
      return;
    }
    const auto variant = result_table->GetValue(ColumnID{0}, 0);
    if (VariantIsNull(variant)) {
      is_null = true;
    } else {
      value = VariantCast<T>(variant);
    }
  };

  if (!expression.IsCorrelated()) {
    auto value = T{};
    auto is_null = false;
    extract_scalar(ExecuteSubquery(expression, 0), value, is_null);
    if (is_null) {
      return ExpressionResult<T>::MakeNullLiteral();
    }
    return ExpressionResult<T>::MakeLiteral(std::move(value));
  }

  auto values = std::vector<T>(row_count_);
  auto nulls = std::vector<bool>(row_count_, false);
  auto any_null = false;
  for (auto row = size_t{0}; row < row_count_; ++row) {
    auto is_null = false;
    extract_scalar(ExecuteSubquery(expression, row), values[row], is_null);
    if (is_null) {
      nulls[row] = true;
      any_null = true;
    }
  }
  if (!any_null) {
    nulls.clear();
  }
  return std::make_shared<ExpressionResult<T>>(std::move(values), std::move(nulls));
}

std::shared_ptr<ExpressionResult<int32_t>> ExpressionEvaluator::EvaluateExists(const ExistsExpression& expression) {
  const auto& subquery = static_cast<const PqpSubqueryExpression&>(*expression.arguments[0]);
  const auto want_exists = expression.mode == ExistsExpression::Mode::kExists;
  if (!subquery.IsCorrelated()) {
    const auto result_table = ExecuteSubquery(subquery, 0);
    return ExpressionResult<int32_t>::MakeLiteral(
        static_cast<int32_t>((result_table->row_count() > 0) == want_exists));
  }
  auto values = std::vector<int32_t>(row_count_);
  for (auto row = size_t{0}; row < row_count_; ++row) {
    const auto result_table = ExecuteSubquery(subquery, row);
    values[row] = static_cast<int32_t>((result_table->row_count() > 0) == want_exists);
  }
  return std::make_shared<ExpressionResult<int32_t>>(std::move(values));
}

}  // namespace hyrise
