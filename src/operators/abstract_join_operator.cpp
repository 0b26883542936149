#include "operators/abstract_join_operator.hpp"

#include "expression/expressions.hpp"
#include "operators/column_materializer.hpp"
#include "operators/pos_list_utils.hpp"
#include "operators/scan_kernels.hpp"
#include "storage/table.hpp"
#include "utils/assert.hpp"

namespace hyrise {

JoinPredicateChecker::JoinPredicateChecker(const std::vector<JoinOperatorPredicate>& predicates, const Table& left,
                                           const Table& right) {
  predicates_.reserve(predicates.size());
  for (const auto& predicate : predicates) {
    const auto type = PromoteDataTypes(left.column_data_type(predicate.left_column),
                                       right.column_data_type(predicate.right_column));
    ResolveDataType(type, [&](auto type_tag) {
      using K = decltype(type_tag);
      auto left_values = MaterializeColumnAs<K>(left, predicate.left_column);
      auto right_values = MaterializeColumnAs<K>(right, predicate.right_column);
      WithComparator(predicate.condition, [&](auto comparator) {
        predicates_.emplace_back([comparator, left_values = std::move(left_values),
                                  right_values = std::move(right_values)](size_t left_row, size_t right_row) {
          return !left_values.IsNull(left_row) && !right_values.IsNull(right_row) &&
                 comparator(left_values.values[left_row], right_values.values[right_row]);
        });
      });
    });
  }
}

AbstractJoinOperator::AbstractJoinOperator(OperatorType type, std::shared_ptr<AbstractOperator> left,
                                           std::shared_ptr<AbstractOperator> right, JoinMode mode,
                                           JoinOperatorPredicate primary,
                                           std::vector<JoinOperatorPredicate> secondary)
    : AbstractOperator(type, std::move(left), std::move(right)),
      mode_(mode),
      primary_(primary),
      secondary_(std::move(secondary)) {}

std::string AbstractJoinOperator::Description() const {
  return name() + std::string{" ("} + JoinModeToString(mode_) + ") #" + std::to_string(primary_.left_column) + " " +
         PredicateConditionToString(primary_.condition) + " #" + std::to_string(primary_.right_column) +
         (secondary_.empty() ? "" : " +" + std::to_string(secondary_.size()) + " secondary");
}

std::shared_ptr<Table> AbstractJoinOperator::BuildOutput(const std::shared_ptr<const Table>& left,
                                                         const std::shared_ptr<const Table>& right,
                                                         const std::vector<size_t>& left_rows,
                                                         const std::vector<size_t>& right_rows) {
  auto definitions = left->column_definitions();
  const auto semi_or_anti = mode_ == JoinMode::kSemi || mode_ == JoinMode::kAnti;
  if (mode_ == JoinMode::kRight || mode_ == JoinMode::kFullOuter) {
    for (auto& definition : definitions) {
      definition.nullable = true;
    }
  }
  if (!semi_or_anti) {
    const auto pad_right = mode_ == JoinMode::kLeft || mode_ == JoinMode::kFullOuter;
    for (auto definition : right->column_definitions()) {
      definition.nullable = definition.nullable || pad_right;
      definitions.push_back(std::move(definition));
    }
  }
  auto output = std::make_shared<Table>(definitions, TableType::kReferences);
  if (left_rows.empty()) {
    return output;
  }
  auto segments = ComposeOutputSegments(left, left_rows);
  if (!semi_or_anti) {
    auto right_segments = ComposeOutputSegments(right, right_rows);
    segments.insert(segments.end(), right_segments.begin(), right_segments.end());
  }
  output->AppendChunk(std::move(segments));
  return output;
}

}  // namespace hyrise
