#ifndef HYRISE_SRC_EXPRESSION_EXPRESSIONS_HPP_
#define HYRISE_SRC_EXPRESSION_EXPRESSIONS_HPP_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "expression/abstract_expression.hpp"
#include "utils/assert.hpp"

namespace hyrise {

class AbstractLqpNode;
class AbstractOperator;

/// Numeric type promotion for arithmetic and comparisons. String against
/// number throws DataTypeMismatch, which fails the statement.
DataType PromoteDataTypes(DataType lhs, DataType rhs);

// --- Leaves ------------------------------------------------------------------

/// A literal.
class ValueExpression final : public AbstractExpression {
 public:
  explicit ValueExpression(AllTypeVariant init_value)
      : AbstractExpression(ExpressionType::kValue, {}), value(std::move(init_value)) {}

  DataType data_type() const final {
    return DataTypeOfVariant(value);
  }

  std::string Description() const final {
    return VariantToString(value);
  }

  std::shared_ptr<AbstractExpression> DeepCopy() const final {
    return std::make_shared<ValueExpression>(value);
  }

  const AllTypeVariant value;

 protected:
  bool ShallowEquals(const AbstractExpression& other) const final;
  size_t ShallowHash() const final;
};

/// A column of an LQP node's output, identified by the node that defines it.
/// Identity (not name) semantics make optimizer rewrites safe.
class LqpColumnExpression final : public AbstractExpression {
 public:
  LqpColumnExpression(const std::shared_ptr<const AbstractLqpNode>& node, ColumnID init_column_id,
                      DataType init_data_type, bool init_nullable, std::string init_name)
      : AbstractExpression(ExpressionType::kLqpColumn, {}),
        original_node(node),
        original_column_id(init_column_id),
        column_data_type(init_data_type),
        nullable(init_nullable),
        name(std::move(init_name)) {}

  DataType data_type() const final {
    return column_data_type;
  }

  std::string Description() const final {
    return name;
  }

  std::shared_ptr<AbstractExpression> DeepCopy() const final {
    return std::make_shared<LqpColumnExpression>(original_node.lock(), original_column_id, column_data_type, nullable,
                                                 name);
  }

  std::weak_ptr<const AbstractLqpNode> original_node;
  ColumnID original_column_id;
  DataType column_data_type;
  bool nullable;
  std::string name;

 protected:
  bool ShallowEquals(const AbstractExpression& other) const final;
  size_t ShallowHash() const final;
};

/// A column of a physical operator's input table.
class PqpColumnExpression final : public AbstractExpression {
 public:
  PqpColumnExpression(ColumnID init_column_id, DataType init_data_type, bool init_nullable, std::string init_name)
      : AbstractExpression(ExpressionType::kPqpColumn, {}),
        column_id(init_column_id),
        column_data_type(init_data_type),
        nullable(init_nullable),
        name(std::move(init_name)) {}

  DataType data_type() const final {
    return column_data_type;
  }

  std::string Description() const final {
    return name;
  }

  std::shared_ptr<AbstractExpression> DeepCopy() const final {
    return std::make_shared<PqpColumnExpression>(column_id, column_data_type, nullable, name);
  }

  const ColumnID column_id;
  const DataType column_data_type;
  const bool nullable;
  const std::string name;

 protected:
  bool ShallowEquals(const AbstractExpression& other) const final;
  size_t ShallowHash() const final;
};

/// Placeholder bound at execution time: prepared-statement parameters and the
/// correlated parameters of subqueries (paper §2.6: "the query plan contains
/// placeholders that are replaced with the correlated attributes during
/// execution").
class ParameterExpression final : public AbstractExpression {
 public:
  ParameterExpression(ParameterID init_parameter_id, DataType init_data_type)
      : AbstractExpression(ExpressionType::kParameter, {}),
        parameter_id(init_parameter_id),
        parameter_data_type(init_data_type) {}

  DataType data_type() const final {
    return parameter_data_type;
  }

  std::string Description() const final {
    return "Parameter#" + std::to_string(parameter_id);
  }

  std::shared_ptr<AbstractExpression> DeepCopy() const final {
    return std::make_shared<ParameterExpression>(parameter_id, parameter_data_type);
  }

  const ParameterID parameter_id;
  const DataType parameter_data_type;

 protected:
  bool ShallowEquals(const AbstractExpression& other) const final;
  size_t ShallowHash() const final;
};

// --- Compound expressions -----------------------------------------------------

enum class ArithmeticOperator { kAddition, kSubtraction, kMultiplication, kDivision, kModulo };

class ArithmeticExpression final : public AbstractExpression {
 public:
  ArithmeticExpression(ArithmeticOperator init_operator, ExpressionPtr lhs, ExpressionPtr rhs)
      : AbstractExpression(ExpressionType::kArithmetic, {std::move(lhs), std::move(rhs)}),
        arithmetic_operator(init_operator) {}

  DataType data_type() const final {
    return PromoteDataTypes(arguments[0]->data_type(), arguments[1]->data_type());
  }

  std::string Description() const final;

  std::shared_ptr<AbstractExpression> DeepCopy() const final {
    return std::make_shared<ArithmeticExpression>(arithmetic_operator, arguments[0]->DeepCopy(),
                                                  arguments[1]->DeepCopy());
  }

  const ArithmeticOperator arithmetic_operator;

 protected:
  bool ShallowEquals(const AbstractExpression& other) const final;
  size_t ShallowHash() const final;
};

/// Comparison / BETWEEN / LIKE / IS NULL / IN. Yields int32 0/1 (or NULL).
/// For kIn/kNotIn, arguments[1] is a ListExpression or a subquery.
class PredicateExpression final : public AbstractExpression {
 public:
  PredicateExpression(PredicateCondition init_condition, Expressions init_arguments)
      : AbstractExpression(ExpressionType::kPredicate, std::move(init_arguments)), condition(init_condition) {}

  DataType data_type() const final {
    return DataType::kInt;
  }

  std::string Description() const final;

  std::shared_ptr<AbstractExpression> DeepCopy() const final;

  const PredicateCondition condition;

 protected:
  bool ShallowEquals(const AbstractExpression& other) const final;
  size_t ShallowHash() const final;
};

enum class LogicalOperator { kAnd, kOr };

class LogicalExpression final : public AbstractExpression {
 public:
  LogicalExpression(LogicalOperator init_operator, ExpressionPtr lhs, ExpressionPtr rhs)
      : AbstractExpression(ExpressionType::kLogical, {std::move(lhs), std::move(rhs)}),
        logical_operator(init_operator) {}

  DataType data_type() const final {
    return DataType::kInt;
  }

  std::string Description() const final;

  std::shared_ptr<AbstractExpression> DeepCopy() const final {
    return std::make_shared<LogicalExpression>(logical_operator, arguments[0]->DeepCopy(), arguments[1]->DeepCopy());
  }

  const LogicalOperator logical_operator;

 protected:
  bool ShallowEquals(const AbstractExpression& other) const final;
  size_t ShallowHash() const final;
};

/// MIN/MAX/SUM/AVG/COUNT/COUNT DISTINCT over one argument (COUNT(*) has a
/// star flag and no argument).
class AggregateExpression final : public AbstractExpression {
 public:
  AggregateExpression(AggregateFunction init_function, ExpressionPtr argument)
      : AbstractExpression(ExpressionType::kAggregate, argument ? Expressions{std::move(argument)} : Expressions{}),
        function(init_function) {}

  static std::shared_ptr<AggregateExpression> CountStar() {
    return std::make_shared<AggregateExpression>(AggregateFunction::kCount, nullptr);
  }

  bool is_count_star() const {
    return function == AggregateFunction::kCount && arguments.empty();
  }

  DataType data_type() const final;

  std::string Description() const final;

  std::shared_ptr<AbstractExpression> DeepCopy() const final {
    return std::make_shared<AggregateExpression>(function, arguments.empty() ? nullptr : arguments[0]->DeepCopy());
  }

  const AggregateFunction function;

 protected:
  bool ShallowEquals(const AbstractExpression& other) const final;
  size_t ShallowHash() const final;
};

enum class FunctionType { kSubstring, kConcat, kExtractYear, kExtractMonth, kExtractDay };

class FunctionExpression final : public AbstractExpression {
 public:
  FunctionExpression(FunctionType init_function, Expressions init_arguments)
      : AbstractExpression(ExpressionType::kFunction, std::move(init_arguments)), function(init_function) {}

  DataType data_type() const final {
    switch (function) {
      case FunctionType::kSubstring:
      case FunctionType::kConcat:
        return DataType::kString;
      default:
        return DataType::kInt;
    }
  }

  std::string Description() const final;

  std::shared_ptr<AbstractExpression> DeepCopy() const final;

  const FunctionType function;

 protected:
  bool ShallowEquals(const AbstractExpression& other) const final;
  size_t ShallowHash() const final;
};

/// CASE WHEN c1 THEN v1 [WHEN c2 THEN v2 ...] ELSE e END.
/// arguments = [c1, v1, c2, v2, ..., e].
class CaseExpression final : public AbstractExpression {
 public:
  explicit CaseExpression(Expressions init_arguments)
      : AbstractExpression(ExpressionType::kCase, std::move(init_arguments)) {
    Assert(arguments.size() >= 3 && arguments.size() % 2 == 1, "CASE needs WHEN/THEN pairs plus ELSE");
  }

  DataType data_type() const final {
    auto type = arguments[1]->data_type();
    for (auto index = size_t{3}; index < arguments.size(); index += 2) {
      type = PromoteDataTypes(type, arguments[index]->data_type());
    }
    if (arguments.back()->data_type() != DataType::kNull) {
      type = PromoteDataTypes(type, arguments.back()->data_type());
    }
    return type;
  }

  std::string Description() const final;

  std::shared_ptr<AbstractExpression> DeepCopy() const final;

 protected:
  bool ShallowEquals(const AbstractExpression& other) const final {
    return other.type == ExpressionType::kCase;
  }

  size_t ShallowHash() const final {
    return 0x5ca5e;
  }
};

class CastExpression final : public AbstractExpression {
 public:
  CastExpression(ExpressionPtr argument, DataType init_target_type)
      : AbstractExpression(ExpressionType::kCast, {std::move(argument)}), target_type(init_target_type) {}

  DataType data_type() const final {
    return target_type;
  }

  std::string Description() const final;

  std::shared_ptr<AbstractExpression> DeepCopy() const final {
    return std::make_shared<CastExpression>(arguments[0]->DeepCopy(), target_type);
  }

  const DataType target_type;

 protected:
  bool ShallowEquals(const AbstractExpression& other) const final;
  size_t ShallowHash() const final;
};

/// Value list for IN (...).
class ListExpression final : public AbstractExpression {
 public:
  explicit ListExpression(Expressions init_arguments)
      : AbstractExpression(ExpressionType::kList, std::move(init_arguments)) {}

  DataType data_type() const final {
    return arguments.empty() ? DataType::kNull : arguments[0]->data_type();
  }

  std::string Description() const final;

  std::shared_ptr<AbstractExpression> DeepCopy() const final;

 protected:
  bool ShallowEquals(const AbstractExpression& other) const final {
    return other.type == ExpressionType::kList;
  }

  size_t ShallowHash() const final {
    return 0x11557;
  }
};

/// A subquery attached to a logical plan. `parameters` maps ParameterIDs used
/// inside the subquery to expressions of the *outer* query (correlation).
class LqpSubqueryExpression final : public AbstractExpression {
 public:
  LqpSubqueryExpression(std::shared_ptr<AbstractLqpNode> init_lqp,
                        std::vector<std::pair<ParameterID, ExpressionPtr>> init_parameters);

  DataType data_type() const final;

  std::string Description() const final {
    return "Subquery";
  }

  std::shared_ptr<AbstractExpression> DeepCopy() const final;

  bool IsCorrelated() const {
    return !parameters.empty();
  }

  std::shared_ptr<AbstractLqpNode> lqp;
  std::vector<std::pair<ParameterID, ExpressionPtr>> parameters;

 protected:
  bool ShallowEquals(const AbstractExpression& other) const final;
  size_t ShallowHash() const final;
};

/// A subquery attached to a physical plan (holds the translated operator
/// tree; deep-copied and parameterized per execution).
class PqpSubqueryExpression final : public AbstractExpression {
 public:
  PqpSubqueryExpression(std::shared_ptr<AbstractOperator> init_pqp, DataType init_data_type,
                        std::vector<std::pair<ParameterID, ExpressionPtr>> init_parameters);

  DataType data_type() const final {
    return subquery_data_type;
  }

  std::string Description() const final {
    return "Subquery";
  }

  std::shared_ptr<AbstractExpression> DeepCopy() const final;

  bool IsCorrelated() const {
    return !parameters.empty();
  }

  std::shared_ptr<AbstractOperator> pqp;
  DataType subquery_data_type;
  /// Parameter expressions are PqpColumnExpressions of the *outer* chunk.
  std::vector<std::pair<ParameterID, ExpressionPtr>> parameters;

 protected:
  bool ShallowEquals(const AbstractExpression& other) const final;
  size_t ShallowHash() const final;
};

/// EXISTS / NOT EXISTS (subquery).
class ExistsExpression final : public AbstractExpression {
 public:
  enum class Mode { kExists, kNotExists };

  ExistsExpression(ExpressionPtr subquery, Mode init_mode)
      : AbstractExpression(ExpressionType::kExists, {std::move(subquery)}), mode(init_mode) {}

  DataType data_type() const final {
    return DataType::kInt;
  }

  std::string Description() const final {
    return mode == Mode::kExists ? "EXISTS" : "NOT EXISTS";
  }

  std::shared_ptr<AbstractExpression> DeepCopy() const final {
    return std::make_shared<ExistsExpression>(arguments[0]->DeepCopy(), mode);
  }

  const Mode mode;

 protected:
  bool ShallowEquals(const AbstractExpression& other) const final;
  size_t ShallowHash() const final;
};

}  // namespace hyrise

#endif  // HYRISE_SRC_EXPRESSION_EXPRESSIONS_HPP_
