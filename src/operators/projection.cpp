#include "operators/projection.hpp"

#include <algorithm>
#include <optional>

#include "expression/expression_evaluator.hpp"
#include "expression/expression_utils.hpp"
#include "storage/reference_segment.hpp"
#include "storage/table.hpp"
#include "utils/assert.hpp"

namespace hyrise {

Projection::Projection(std::shared_ptr<AbstractOperator> input, Expressions expressions)
    : AbstractOperator(OperatorType::kProjection, std::move(input)), expressions_(std::move(expressions)) {
  Assert(!expressions_.empty(), "Projection without expressions");
}

std::string Projection::Description() const {
  auto description = std::string{"Projection"};
  for (const auto& expression : expressions_) {
    description += " " + expression->Description();
  }
  return description;
}

std::shared_ptr<const Table> Projection::OnExecute(const std::shared_ptr<TransactionContext>& context) {
  const auto input = left_input_->get_output();
  const auto references = input->type() == TableType::kReferences;

  auto definitions = TableColumnDefinitions{};
  definitions.reserve(expressions_.size());
  auto computed_definitions = TableColumnDefinitions{};
  auto computed = std::vector<size_t>{};
  for (auto index = size_t{0}; index < expressions_.size(); ++index) {
    const auto& expression = expressions_[index];
    auto data_type = expression->data_type();
    if (data_type == DataType::kNull) {
      data_type = DataType::kInt;
    }
    if (expression->type == ExpressionType::kPqpColumn) {
      const auto& column = static_cast<const PqpColumnExpression&>(*expression);
      definitions.emplace_back(column.name, data_type, column.nullable);
    } else {
      definitions.emplace_back(expression->Description(), data_type, true);
      computed_definitions.push_back(definitions.back());
      computed.push_back(index);
    }
  }
  // Largest expression first: a computed column that is part of another one
  // is then found in the evaluator's cache.
  auto node_counts = std::vector<size_t>(expressions_.size());
  for (const auto index : computed) {
    VisitExpression(expressions_[index], [&](const ExpressionPtr& /*node*/) {
      ++node_counts[index];
      return true;
    });
  }
  auto evaluation_order = computed;
  std::stable_sort(evaluation_order.begin(), evaluation_order.end(), [&](size_t lhs, size_t rhs) {
    return node_counts[lhs] > node_counts[rhs];
  });

  // Column references are forwarded as the input's segments; only computed
  // columns are materialized. A reference input stays one: its computed
  // columns go into a data table that each output chunk references through
  // one shared pos list over all of the chunk's rows (as upstream Hyrise
  // does). A data input's mutable chunk is the exception: its segments may
  // still grow, so its forwarded columns are copied at the chunk's current
  // size, like the computed ones.
  auto output = std::make_shared<Table>(definitions, input->type());
  const auto computed_table =
      references && !computed.empty() ? std::make_shared<Table>(computed_definitions, TableType::kData) : nullptr;
  const auto chunk_count = input->chunk_count();
  for (auto chunk_id = ChunkID{0}; chunk_id < chunk_count; ++chunk_id) {
    const auto chunk = input->GetChunk(chunk_id);
    const auto copy_forwarded = !references && chunk->IsMutable();
    auto evaluator = std::optional<ExpressionEvaluator>{};
    const auto evaluate = [&](const ExpressionPtr& expression) {
      if (!evaluator) {
        evaluator.emplace(input, chunk_id, context);
      }
      return evaluator->EvaluateToSegment(expression);
    };

    auto segments = Segments(expressions_.size());
    for (auto index = size_t{0}; index < expressions_.size(); ++index) {
      const auto& expression = expressions_[index];
      if (expression->type == ExpressionType::kPqpColumn) {
        const auto column_id = static_cast<const PqpColumnExpression&>(*expression).column_id;
        segments[index] = copy_forwarded ? evaluate(expression) : chunk->GetSegment(column_id);
      }
    }
    for (const auto index : evaluation_order) {
      segments[index] = evaluate(expressions_[index]);
    }

    if (computed_table) {
      auto computed_segments = Segments{};
      computed_segments.reserve(computed.size());
      for (const auto index : computed) {
        computed_segments.push_back(segments[index]);
      }
      const auto row_count = computed_segments.front()->size();
      computed_table->AppendChunk(std::move(computed_segments));
      auto pos_list = std::make_shared<RowIDPosList>(row_count);
      for (auto offset = ChunkOffset{0}; offset < row_count; ++offset) {
        (*pos_list)[offset] = RowID{chunk_id, offset};
      }
      pos_list->GuaranteeSingleChunk();
      for (auto column = size_t{0}; column < computed.size(); ++column) {
        segments[computed[column]] = std::make_shared<ReferenceSegment>(
            computed_table, ColumnID{static_cast<uint16_t>(column)}, pos_list);
      }
    }
    output->AppendChunk(std::move(segments));
  }
  return output;
}

void Projection::OnSetParameters(const std::unordered_map<ParameterID, AllTypeVariant>& parameters) {
  ReplaceParametersInPlace(expressions_, parameters);
}

std::shared_ptr<AbstractOperator> Projection::OnDeepCopy(std::shared_ptr<AbstractOperator> left,
                                                         std::shared_ptr<AbstractOperator> /*right*/,
                                                         DeepCopyMap& /*map*/) const {
  auto copied_expressions = Expressions{};
  copied_expressions.reserve(expressions_.size());
  for (const auto& expression : expressions_) {
    copied_expressions.push_back(expression->DeepCopy());
  }
  return std::make_shared<Projection>(std::move(left), std::move(copied_expressions));
}

}  // namespace hyrise
