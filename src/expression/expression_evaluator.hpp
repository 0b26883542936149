#ifndef HYRISE_SRC_EXPRESSION_EXPRESSION_EVALUATOR_HPP_
#define HYRISE_SRC_EXPRESSION_EXPRESSION_EVALUATOR_HPP_

#include <memory>
#include <unordered_map>
#include <vector>

#include "expression/expression_result.hpp"
#include "expression/expressions.hpp"
#include "types/types.hpp"

namespace hyrise {

class AbstractSegment;
class Chunk;
class Table;
class TransactionContext;

/// Evaluates expression trees over one chunk (or over no chunk at all, for
/// literal/uncorrelated contexts). This is the interpreting fallback engine
/// behind Projection and complex TableScans; specialized scan
/// implementations bypass it (paper §2.3). It is the only runtime path for
/// expressions; bench/jit_specialization measures its overhead against the
/// compile-time fused pipeline of operators/pipeline_fusion.hpp (§2.7).
class ExpressionEvaluator {
 public:
  /// Literal context: column references are errors, subqueries allowed.
  ExpressionEvaluator() = default;

  ExpressionEvaluator(std::shared_ptr<const Table> table, ChunkID chunk_id,
                      std::shared_ptr<TransactionContext> transaction_context = nullptr);

  /// Evaluates to a typed column; T must be (convertible from) the
  /// expression's data type.
  template <typename T>
  std::shared_ptr<ExpressionResult<T>> EvaluateTo(const ExpressionPtr& expression);

  /// Materializes the result as a (nullable) ValueSegment of the
  /// expression's data type.
  std::shared_ptr<AbstractSegment> EvaluateToSegment(const ExpressionPtr& expression);

  /// Offsets of the rows where the (boolean) expression is true.
  std::vector<ChunkOffset> EvaluateToPositions(const ExpressionPtr& expression);

  /// Evaluates in row 0 / literal context to an untyped value.
  AllTypeVariant EvaluateToScalar(const ExpressionPtr& expression);

 private:
  /// Evaluates `expression` as its own type T, through the result cache.
  template <typename T>
  std::shared_ptr<ExpressionResult<T>> EvaluateSameType(const ExpressionPtr& expression);

  /// The same, without looking into or filling the cache at this node.
  template <typename T>
  std::shared_ptr<ExpressionResult<T>> EvaluateUncached(const ExpressionPtr& expression);

  template <typename T>
  std::shared_ptr<ExpressionResult<T>> EvaluateColumn(const PqpColumnExpression& column);

  template <typename T>
  std::shared_ptr<ExpressionResult<T>> EvaluateArithmetic(const ArithmeticExpression& expression);

  template <typename T>
  std::shared_ptr<ExpressionResult<T>> EvaluateCase(const CaseExpression& expression);

  template <typename T>
  std::shared_ptr<ExpressionResult<T>> EvaluateCast(const CastExpression& expression);

  template <typename T>
  std::shared_ptr<ExpressionResult<T>> EvaluateSubqueryTo(const PqpSubqueryExpression& expression);

  std::shared_ptr<ExpressionResult<int32_t>> EvaluatePredicate(const PredicateExpression& expression);
  std::shared_ptr<ExpressionResult<int32_t>> EvaluateLogical(const LogicalExpression& expression);
  std::shared_ptr<ExpressionResult<int32_t>> EvaluateExists(const ExistsExpression& expression);
  std::shared_ptr<ExpressionResult<int32_t>> EvaluateIn(const PredicateExpression& expression);
  std::shared_ptr<ExpressionResult<int32_t>> EvaluateLike(const PredicateExpression& expression);
  std::shared_ptr<ExpressionResult<std::string>> EvaluateFunctionString(const FunctionExpression& expression);
  std::shared_ptr<ExpressionResult<int32_t>> EvaluateFunctionExtract(const FunctionExpression& expression);

  /// Executes a (possibly correlated) subquery for `row`, memoizing by the
  /// bound parameter values (paper §2.6 executes correlated subselects with
  /// placeholder substitution; memoization keeps that viable).
  std::shared_ptr<const Table> ExecuteSubquery(const PqpSubqueryExpression& expression, size_t row);

  size_t row_count_{1};
  std::shared_ptr<const Table> table_;
  ChunkID chunk_id_{kInvalidChunkId};
  std::shared_ptr<const Chunk> chunk_;
  std::shared_ptr<TransactionContext> transaction_context_;

  struct ExpressionHash {
    size_t operator()(const ExpressionPtr& expression) const {
      return expression->Hash();
    }
  };

  struct ExpressionEqual {
    bool operator()(const ExpressionPtr& lhs, const ExpressionPtr& rhs) const {
      return *lhs == *rhs;
    }
  };

  /// Results of columns and of deterministic arithmetic, CASE and CAST
  /// nodes (type-erased ExpressionResult<T>), keyed structurally: a
  /// subexpression shared by several expressions is evaluated once per
  /// chunk. Subtrees with subqueries or parameters are never cached. A key
  /// holds its expression, which a caller may have built just for one call.
  std::unordered_map<ExpressionPtr, std::shared_ptr<void>, ExpressionHash, ExpressionEqual> result_cache_;

  /// Uncorrelated subqueries execute once per evaluator.
  std::unordered_map<const AbstractOperator*, std::shared_ptr<const Table>> uncorrelated_subquery_cache_;

  /// Correlated subqueries memoize on their parameter signature.
  std::unordered_map<std::string, std::shared_ptr<const Table>> correlated_subquery_cache_;
};

}  // namespace hyrise

#endif  // HYRISE_SRC_EXPRESSION_EXPRESSION_EVALUATOR_HPP_
