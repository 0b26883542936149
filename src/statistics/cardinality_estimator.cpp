#include "statistics/cardinality_estimator.hpp"

#include <algorithm>
#include <functional>
#include <tuple>

#include "hyrise.hpp"
#include "logical_query_plan/operator_nodes.hpp"
#include "logical_query_plan/static_table_node.hpp"
#include "logical_query_plan/stored_table_node.hpp"
#include "statistics/table_statistics.hpp"
#include "storage/table.hpp"

namespace hyrise {

namespace {

// Fallback selectivities for predicate shapes the histograms cannot judge.
constexpr auto kDefaultSelectivity = 0.3;
constexpr auto kEqualsFallback = 0.05;
constexpr auto kLikeSelectivity = 0.1;

std::shared_ptr<TableStatistics> StatisticsOfTable(const std::string& table_name) {
  const auto table = Hyrise::Get().storage_manager.GetTable(table_name);
  return table->GetOrBuildTableStatistics([&] { return GenerateTableStatistics(*table); });
}

/// A base-table column: its StoredTableNode, the table's row count and the
/// column's statistics. All empty if the expression is no such column.
struct BaseColumn {
  const AbstractLqpNode* table{nullptr};
  double table_rows{0.0};
  std::shared_ptr<const BaseAttributeStatistics> statistics;
};

BaseColumn ResolveBaseColumn(const ExpressionPtr& expression) {
  if (expression->type != ExpressionType::kLqpColumn) {
    return {};
  }
  const auto& column = static_cast<const LqpColumnExpression&>(*expression);
  const auto node = column.original_node.lock();
  if (!node || node->type != LqpNodeType::kStoredTable) {
    return {};
  }
  const auto statistics = StatisticsOfTable(static_cast<const StoredTableNode&>(*node).table_name);
  if (column.original_column_id >= statistics->column_statistics.size()) {
    return {};
  }
  return {node.get(), statistics->row_count, statistics->column_statistics[column.original_column_id]};
}

}  // namespace

const CardinalityEstimator::JoinConjunct& CardinalityEstimator::ResolveJoinConjunct(
    const ExpressionPtr& predicate) const {
  const auto cached = join_conjunct_cache_.find(predicate);
  if (cached != join_conjunct_cache_.end()) {
    return cached->second;
  }

  auto conjunct = JoinConjunct{kDefaultSelectivity};
  if (predicate->type == ExpressionType::kPredicate &&
      static_cast<const PredicateExpression&>(*predicate).condition == PredicateCondition::kEquals) {
    // Containment: every value of the side with fewer distinct values finds
    // a partner, so the equality keeps 1 / max(distinct counts) of the pairs.
    const auto left = ResolveBaseColumn(predicate->arguments[0]);
    const auto right = ResolveBaseColumn(predicate->arguments[1]);
    const auto distinct = std::max(left.statistics ? left.statistics->distinct_count() : 0.0,
                                   right.statistics ? right.statistics->distinct_count() : 0.0);
    conjunct.selectivity = distinct > 0.0 ? 1.0 / std::max(distinct, 1.0) : kEqualsFallback;
    if (left.statistics && right.statistics) {
      std::tie(conjunct.lower_table, conjunct.upper_table) = std::minmax(left.table, right.table, std::less<>{});
      conjunct.key_cap = std::min(left.table_rows, right.table_rows);
    }
  }
  return join_conjunct_cache_.emplace(predicate, conjunct).first->second;
}

double CardinalityEstimator::EstimateJoinSelectivity(const Expressions& predicates) const {
  // The equalities between one pair of stored tables, identified by the
  // first of them, and the product of their distinct counts.
  struct CompositeKey {
    const JoinConjunct* first;
    double distinct;
  };
  auto keys = std::vector<CompositeKey>{};
  auto selectivity = 1.0;
  for (const auto& predicate : predicates) {
    const auto& conjunct = ResolveJoinConjunct(predicate);
    if (!conjunct.lower_table) {
      selectivity *= conjunct.selectivity;
      continue;
    }
    const auto key = std::find_if(keys.begin(), keys.end(), [&](const auto& candidate) {
      return candidate.first->lower_table == conjunct.lower_table &&
             candidate.first->upper_table == conjunct.upper_table;
    });
    if (key == keys.end()) {
      keys.push_back({&conjunct, 1.0 / conjunct.selectivity});
    } else {
      key->distinct /= conjunct.selectivity;
    }
  }
  for (const auto& key : keys) {
    selectivity /= std::max(1.0, std::min(key.distinct, key.first->key_cap));
  }
  return selectivity;
}

double CardinalityEstimator::EstimateSelectivity(const ExpressionPtr& predicate, const LqpNodePtr& input) const {
  switch (predicate->type) {
    case ExpressionType::kPredicate: {
      const auto& typed = static_cast<const PredicateExpression&>(*predicate);
      switch (typed.condition) {
        case PredicateCondition::kEquals:
        case PredicateCondition::kNotEquals:
        case PredicateCondition::kLessThan:
        case PredicateCondition::kLessThanEquals:
        case PredicateCondition::kGreaterThan:
        case PredicateCondition::kGreaterThanEquals:
        case PredicateCondition::kBetweenInclusive: {
          // column <op> literal: ask the histogram.
          const auto& column = typed.arguments[0];
          const auto statistics = ResolveBaseColumn(column).statistics;
          if (statistics && typed.arguments[1]->type == ExpressionType::kValue) {
            const auto& value = static_cast<const ValueExpression&>(*typed.arguments[1]).value;
            auto value2 = std::optional<AllTypeVariant>{};
            if (typed.condition == PredicateCondition::kBetweenInclusive && typed.arguments.size() == 3 &&
                typed.arguments[2]->type == ExpressionType::kValue) {
              value2 = static_cast<const ValueExpression&>(*typed.arguments[2]).value;
            }
            return std::clamp(statistics->EstimateSelectivity(typed.condition, value, value2), 0.0, 1.0);
          }
          // column <op> column or flipped literals.
          return EstimateJoinSelectivity({predicate});
        }
        case PredicateCondition::kLike:
          return kLikeSelectivity;
        case PredicateCondition::kNotLike:
          return 1.0 - kLikeSelectivity;
        case PredicateCondition::kIsNull: {
          const auto statistics = ResolveBaseColumn(predicate->arguments[0]).statistics;
          return statistics ? statistics->null_ratio : 0.05;
        }
        case PredicateCondition::kIsNotNull: {
          const auto statistics = ResolveBaseColumn(predicate->arguments[0]).statistics;
          return statistics ? 1.0 - statistics->null_ratio : 0.95;
        }
        case PredicateCondition::kIn:
          return kDefaultSelectivity;
        case PredicateCondition::kNotIn:
          return 1.0 - kDefaultSelectivity;
      }
      return kDefaultSelectivity;
    }
    case ExpressionType::kLogical: {
      const auto& logical = static_cast<const LogicalExpression&>(*predicate);
      const auto left = EstimateSelectivity(predicate->arguments[0], input);
      const auto right = EstimateSelectivity(predicate->arguments[1], input);
      if (logical.logical_operator == LogicalOperator::kAnd) {
        return left * right;
      }
      return std::min(1.0, left + right - left * right);
    }
    case ExpressionType::kExists:
      return 0.5;
    default:
      return kDefaultSelectivity;
  }
}

double CardinalityEstimator::EstimateRowCount(const LqpNodePtr& node) const {
  const auto cached = row_count_cache_.find(node.get());
  if (cached != row_count_cache_.end()) {
    return cached->second;
  }

  auto rows = 0.0;
  switch (node->type) {
    case LqpNodeType::kStoredTable: {
      const auto& stored = static_cast<const StoredTableNode&>(*node);
      rows = StatisticsOfTable(stored.table_name)->row_count;
      const auto table = Hyrise::Get().storage_manager.GetTable(stored.table_name);
      if (!stored.pruned_chunk_ids.empty() && table->chunk_count() > 0) {
        rows *= 1.0 - static_cast<double>(stored.pruned_chunk_ids.size()) /
                          static_cast<double>(static_cast<uint32_t>(table->chunk_count()));
      }
      break;
    }
    case LqpNodeType::kStaticTable:
      rows = static_cast<double>(static_cast<const StaticTableNode&>(*node).table->row_count());
      break;
    case LqpNodeType::kPredicate: {
      const auto& predicate_node = static_cast<const PredicateNode&>(*node);
      rows = EstimateRowCount(node->left_input) *
             EstimateSelectivity(predicate_node.predicate(), node->left_input);
      break;
    }
    case LqpNodeType::kJoin: {
      const auto& join = static_cast<const JoinNode&>(*node);
      const auto left = EstimateRowCount(node->left_input);
      const auto right = EstimateRowCount(node->right_input);
      switch (join.join_mode) {
        case JoinMode::kCross:
          rows = left * right;
          break;
        case JoinMode::kSemi:
        case JoinMode::kAnti:
          rows = left * 0.5;
          break;
        default:
          rows = left * right * EstimateJoinSelectivity(join.node_expressions);
          if (join.join_mode == JoinMode::kLeft || join.join_mode == JoinMode::kFullOuter ||
              join.join_mode == JoinMode::kRight) {
            rows = std::max(rows, join.join_mode == JoinMode::kRight ? right : left);
          }
          break;
      }
      break;
    }
    case LqpNodeType::kAggregate: {
      const auto& aggregate = static_cast<const AggregateNode&>(*node);
      const auto input_rows = EstimateRowCount(node->left_input);
      if (aggregate.group_by_count == 0) {
        rows = 1.0;
        break;
      }
      auto groups = 1.0;
      for (auto index = size_t{0}; index < aggregate.group_by_count; ++index) {
        const auto statistics = ResolveBaseColumn(aggregate.node_expressions[index]).statistics;
        groups *= statistics ? statistics->distinct_count() : 10.0;
      }
      rows = std::min(groups, input_rows);
      break;
    }
    case LqpNodeType::kLimit:
      rows = std::min(static_cast<double>(static_cast<const LimitNode&>(*node).row_count),
                      EstimateRowCount(node->left_input));
      break;
    case LqpNodeType::kUnion:
      rows = EstimateRowCount(node->left_input) + EstimateRowCount(node->right_input);
      break;
    case LqpNodeType::kValidate:
      rows = EstimateRowCount(node->left_input) * 0.99;
      break;
    default:
      rows = node->left_input ? EstimateRowCount(node->left_input) : 0.0;
      break;
  }
  rows = std::max(rows, 0.0);
  row_count_cache_.emplace(node.get(), rows);
  return rows;
}

}  // namespace hyrise
