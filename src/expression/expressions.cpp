#include "expression/expressions.hpp"

#include <stdexcept>
#include <typeinfo>

#include "logical_query_plan/abstract_lqp_node.hpp"
#include "operators/abstract_operator.hpp"

namespace hyrise {

// --- AbstractExpression -------------------------------------------------------

bool AbstractExpression::operator==(const AbstractExpression& other) const {
  if (this == &other) {
    return true;
  }
  if (type != other.type || arguments.size() != other.arguments.size()) {
    return false;
  }
  if (!ShallowEquals(other)) {
    return false;
  }
  for (auto index = size_t{0}; index < arguments.size(); ++index) {
    if (!(*arguments[index] == *other.arguments[index])) {
      return false;
    }
  }
  return true;
}

size_t AbstractExpression::Hash() const {
  auto hash = HashCombine(static_cast<size_t>(type), ShallowHash());
  for (const auto& argument : arguments) {
    hash = HashCombine(hash, argument->Hash());
  }
  return hash;
}

bool ExpressionsEqual(const Expressions& lhs, const Expressions& rhs) {
  if (lhs.size() != rhs.size()) {
    return false;
  }
  for (auto index = size_t{0}; index < lhs.size(); ++index) {
    if (!(*lhs[index] == *rhs[index])) {
      return false;
    }
  }
  return true;
}

DataType PromoteDataTypes(DataType lhs, DataType rhs) {
  if (lhs == DataType::kNull) {
    return rhs;
  }
  if (rhs == DataType::kNull) {
    return lhs;
  }
  if (lhs == DataType::kString || rhs == DataType::kString) {
    if (lhs != rhs) {
      throw DataTypeMismatch{"Cannot combine string and numeric types"};
    }
    return DataType::kString;
  }
  if (lhs == DataType::kDouble || rhs == DataType::kDouble) {
    return DataType::kDouble;
  }
  if (lhs == DataType::kFloat || rhs == DataType::kFloat) {
    // Mixed float/long promotes to double to keep precision.
    return (lhs == DataType::kLong || rhs == DataType::kLong) ? DataType::kDouble : DataType::kFloat;
  }
  if (lhs == DataType::kLong || rhs == DataType::kLong) {
    return DataType::kLong;
  }
  return DataType::kInt;
}

// --- ValueExpression ----------------------------------------------------------

bool ValueExpression::ShallowEquals(const AbstractExpression& other) const {
  const auto& typed = static_cast<const ValueExpression&>(other);
  return VariantIsNull(value) == VariantIsNull(typed.value) && value == typed.value;
}

size_t ValueExpression::ShallowHash() const {
  return std::hash<std::string>{}(VariantToString(value));
}

// --- LqpColumnExpression --------------------------------------------------------

bool LqpColumnExpression::ShallowEquals(const AbstractExpression& other) const {
  const auto& typed = static_cast<const LqpColumnExpression&>(other);
  return original_node.lock() == typed.original_node.lock() && original_column_id == typed.original_column_id;
}

size_t LqpColumnExpression::ShallowHash() const {
  return HashCombine(std::hash<const void*>{}(original_node.lock().get()), original_column_id);
}

// --- PqpColumnExpression --------------------------------------------------------

bool PqpColumnExpression::ShallowEquals(const AbstractExpression& other) const {
  const auto& typed = static_cast<const PqpColumnExpression&>(other);
  return column_id == typed.column_id;
}

size_t PqpColumnExpression::ShallowHash() const {
  return std::hash<uint16_t>{}(column_id);
}

// --- ParameterExpression --------------------------------------------------------

bool ParameterExpression::ShallowEquals(const AbstractExpression& other) const {
  const auto& typed = static_cast<const ParameterExpression&>(other);
  return parameter_id == typed.parameter_id;
}

size_t ParameterExpression::ShallowHash() const {
  return std::hash<uint16_t>{}(parameter_id);
}

// --- ArithmeticExpression -------------------------------------------------------

namespace {

const char* ArithmeticOperatorToString(ArithmeticOperator arithmetic_operator) {
  switch (arithmetic_operator) {
    case ArithmeticOperator::kAddition:
      return "+";
    case ArithmeticOperator::kSubtraction:
      return "-";
    case ArithmeticOperator::kMultiplication:
      return "*";
    case ArithmeticOperator::kDivision:
      return "/";
    case ArithmeticOperator::kModulo:
      return "%";
  }
  Fail("Unhandled ArithmeticOperator");
}

}  // namespace

std::string ArithmeticExpression::Description() const {
  return "(" + arguments[0]->Description() + " " + ArithmeticOperatorToString(arithmetic_operator) + " " +
         arguments[1]->Description() + ")";
}

bool ArithmeticExpression::ShallowEquals(const AbstractExpression& other) const {
  return arithmetic_operator == static_cast<const ArithmeticExpression&>(other).arithmetic_operator;
}

size_t ArithmeticExpression::ShallowHash() const {
  return static_cast<size_t>(arithmetic_operator);
}

// --- PredicateExpression --------------------------------------------------------

std::string PredicateExpression::Description() const {
  switch (condition) {
    case PredicateCondition::kIsNull:
    case PredicateCondition::kIsNotNull:
      return arguments[0]->Description() + " " + PredicateConditionToString(condition);
    case PredicateCondition::kBetweenInclusive:
      return arguments[0]->Description() + " BETWEEN " + arguments[1]->Description() + " AND " +
             arguments[2]->Description();
    default:
      return "(" + arguments[0]->Description() + " " + PredicateConditionToString(condition) + " " +
             arguments[1]->Description() + ")";
  }
}

std::shared_ptr<AbstractExpression> PredicateExpression::DeepCopy() const {
  auto copied_arguments = Expressions{};
  copied_arguments.reserve(arguments.size());
  for (const auto& argument : arguments) {
    copied_arguments.push_back(argument->DeepCopy());
  }
  return std::make_shared<PredicateExpression>(condition, std::move(copied_arguments));
}

bool PredicateExpression::ShallowEquals(const AbstractExpression& other) const {
  return condition == static_cast<const PredicateExpression&>(other).condition;
}

size_t PredicateExpression::ShallowHash() const {
  return static_cast<size_t>(condition);
}

// --- LogicalExpression ----------------------------------------------------------

std::string LogicalExpression::Description() const {
  return "(" + arguments[0]->Description() + (logical_operator == LogicalOperator::kAnd ? " AND " : " OR ") +
         arguments[1]->Description() + ")";
}

bool LogicalExpression::ShallowEquals(const AbstractExpression& other) const {
  return logical_operator == static_cast<const LogicalExpression&>(other).logical_operator;
}

size_t LogicalExpression::ShallowHash() const {
  return static_cast<size_t>(logical_operator);
}

// --- AggregateExpression --------------------------------------------------------

DataType AggregateExpression::data_type() const {
  if (is_count_star() || function == AggregateFunction::kCount || function == AggregateFunction::kCountDistinct) {
    return DataType::kLong;
  }
  const auto argument_type = arguments[0]->data_type();
  switch (function) {
    case AggregateFunction::kMin:
    case AggregateFunction::kMax:
      return argument_type;
    case AggregateFunction::kAvg:
      return DataType::kDouble;
    case AggregateFunction::kSum:
      switch (argument_type) {
        case DataType::kInt:
        case DataType::kLong:
          return DataType::kLong;
        default:
          return DataType::kDouble;
      }
    default:
      Fail("Unhandled AggregateFunction");
  }
}

std::string AggregateExpression::Description() const {
  if (is_count_star()) {
    return "COUNT(*)";
  }
  return std::string{AggregateFunctionToString(function)} + "(" + arguments[0]->Description() + ")";
}

bool AggregateExpression::ShallowEquals(const AbstractExpression& other) const {
  return function == static_cast<const AggregateExpression&>(other).function;
}

size_t AggregateExpression::ShallowHash() const {
  return static_cast<size_t>(function);
}

// --- FunctionExpression ---------------------------------------------------------

std::string FunctionExpression::Description() const {
  auto description = std::string{};
  switch (function) {
    case FunctionType::kSubstring:
      description = "SUBSTR";
      break;
    case FunctionType::kConcat:
      description = "CONCAT";
      break;
    case FunctionType::kExtractYear:
      description = "EXTRACT_YEAR";
      break;
    case FunctionType::kExtractMonth:
      description = "EXTRACT_MONTH";
      break;
    case FunctionType::kExtractDay:
      description = "EXTRACT_DAY";
      break;
  }
  description += "(";
  for (auto index = size_t{0}; index < arguments.size(); ++index) {
    description += (index == 0 ? "" : ", ") + arguments[index]->Description();
  }
  return description + ")";
}

std::shared_ptr<AbstractExpression> FunctionExpression::DeepCopy() const {
  auto copied_arguments = Expressions{};
  copied_arguments.reserve(arguments.size());
  for (const auto& argument : arguments) {
    copied_arguments.push_back(argument->DeepCopy());
  }
  return std::make_shared<FunctionExpression>(function, std::move(copied_arguments));
}

bool FunctionExpression::ShallowEquals(const AbstractExpression& other) const {
  return function == static_cast<const FunctionExpression&>(other).function;
}

size_t FunctionExpression::ShallowHash() const {
  return static_cast<size_t>(function);
}

// --- CaseExpression -------------------------------------------------------------

std::string CaseExpression::Description() const {
  auto description = std::string{"CASE"};
  for (auto index = size_t{0}; index + 1 < arguments.size(); index += 2) {
    description += " WHEN " + arguments[index]->Description() + " THEN " + arguments[index + 1]->Description();
  }
  return description + " ELSE " + arguments.back()->Description() + " END";
}

std::shared_ptr<AbstractExpression> CaseExpression::DeepCopy() const {
  auto copied_arguments = Expressions{};
  copied_arguments.reserve(arguments.size());
  for (const auto& argument : arguments) {
    copied_arguments.push_back(argument->DeepCopy());
  }
  return std::make_shared<CaseExpression>(std::move(copied_arguments));
}

// --- CastExpression -------------------------------------------------------------

std::string CastExpression::Description() const {
  return "CAST(" + arguments[0]->Description() + " AS " + DataTypeToString(target_type) + ")";
}

bool CastExpression::ShallowEquals(const AbstractExpression& other) const {
  return target_type == static_cast<const CastExpression&>(other).target_type;
}

size_t CastExpression::ShallowHash() const {
  return static_cast<size_t>(target_type);
}

// --- ListExpression -------------------------------------------------------------

std::string ListExpression::Description() const {
  auto description = std::string{"("};
  for (auto index = size_t{0}; index < arguments.size(); ++index) {
    description += (index == 0 ? "" : ", ") + arguments[index]->Description();
  }
  return description + ")";
}

std::shared_ptr<AbstractExpression> ListExpression::DeepCopy() const {
  auto copied_arguments = Expressions{};
  copied_arguments.reserve(arguments.size());
  for (const auto& argument : arguments) {
    copied_arguments.push_back(argument->DeepCopy());
  }
  return std::make_shared<ListExpression>(std::move(copied_arguments));
}

// --- LqpSubqueryExpression ------------------------------------------------------

LqpSubqueryExpression::LqpSubqueryExpression(std::shared_ptr<AbstractLqpNode> init_lqp,
                                             std::vector<std::pair<ParameterID, ExpressionPtr>> init_parameters)
    : AbstractExpression(ExpressionType::kLqpSubquery, {}), lqp(std::move(init_lqp)),
      parameters(std::move(init_parameters)) {}

DataType LqpSubqueryExpression::data_type() const {
  const auto& output_expressions = lqp->output_expressions();
  Assert(!output_expressions.empty(), "Subquery without output columns");
  return output_expressions[0]->data_type();
}

std::shared_ptr<AbstractExpression> LqpSubqueryExpression::DeepCopy() const {
  // The LQP is shared on copy: subquery plans are rewritten in place by the
  // optimizer before translation, and translation deep-copies to a PQP.
  auto copied_parameters = parameters;
  return std::make_shared<LqpSubqueryExpression>(lqp, std::move(copied_parameters));
}

bool LqpSubqueryExpression::ShallowEquals(const AbstractExpression& other) const {
  return lqp == static_cast<const LqpSubqueryExpression&>(other).lqp;
}

size_t LqpSubqueryExpression::ShallowHash() const {
  return std::hash<const void*>{}(lqp.get());
}

// --- PqpSubqueryExpression ------------------------------------------------------

PqpSubqueryExpression::PqpSubqueryExpression(std::shared_ptr<AbstractOperator> init_pqp, DataType init_data_type,
                                             std::vector<std::pair<ParameterID, ExpressionPtr>> init_parameters)
    : AbstractExpression(ExpressionType::kPqpSubquery, {}), pqp(std::move(init_pqp)),
      subquery_data_type(init_data_type), parameters(std::move(init_parameters)) {}

std::shared_ptr<AbstractExpression> PqpSubqueryExpression::DeepCopy() const {
  auto copied_parameters = std::vector<std::pair<ParameterID, ExpressionPtr>>{};
  copied_parameters.reserve(parameters.size());
  for (const auto& [parameter_id, expression] : parameters) {
    copied_parameters.emplace_back(parameter_id, expression->DeepCopy());
  }
  return std::make_shared<PqpSubqueryExpression>(pqp->DeepCopy(), subquery_data_type, std::move(copied_parameters));
}

bool PqpSubqueryExpression::ShallowEquals(const AbstractExpression& other) const {
  return pqp == static_cast<const PqpSubqueryExpression&>(other).pqp;
}

size_t PqpSubqueryExpression::ShallowHash() const {
  return std::hash<const void*>{}(pqp.get());
}

// --- ExistsExpression -----------------------------------------------------------

bool ExistsExpression::ShallowEquals(const AbstractExpression& other) const {
  return mode == static_cast<const ExistsExpression&>(other).mode;
}

size_t ExistsExpression::ShallowHash() const {
  return static_cast<size_t>(mode);
}

}  // namespace hyrise
