#include "operators/join_sort_merge.hpp"

#include <algorithm>
#include <utility>

#include "expression/expressions.hpp"
#include "operators/column_materializer.hpp"
#include "operators/pos_list_utils.hpp"
#include "storage/table.hpp"
#include "utils/assert.hpp"

namespace hyrise {

JoinSortMerge::JoinSortMerge(std::shared_ptr<AbstractOperator> left, std::shared_ptr<AbstractOperator> right,
                             JoinMode mode, JoinOperatorPredicate primary,
                             std::vector<JoinOperatorPredicate> secondary)
    : AbstractJoinOperator(OperatorType::kJoinSortMerge, std::move(left), std::move(right), mode, primary,
                           std::move(secondary)) {
  Assert(primary.condition == PredicateCondition::kEquals, "JoinSortMerge requires an equality primary predicate");
  Assert(mode == JoinMode::kInner || mode == JoinMode::kLeft || mode == JoinMode::kSemi || mode == JoinMode::kAnti,
         "JoinSortMerge supports Inner, Left, Semi, Anti");
}

std::shared_ptr<const Table> JoinSortMerge::OnExecute(const std::shared_ptr<TransactionContext>& /*context*/) {
  const auto left = left_input_->get_output();
  const auto right = right_input_->get_output();
  const auto key_type = PromoteDataTypes(left->column_data_type(primary_.left_column),
                                         right->column_data_type(primary_.right_column));

  auto left_rows = std::vector<size_t>{};
  auto right_rows = std::vector<size_t>{};
  const auto checker = JoinPredicateChecker{secondary_, *left, *right};

  ResolveDataType(key_type, [&](auto type_tag) {
    using K = decltype(type_tag);

    // (key, row index) pairs, NULL keys dropped (they never match; left-outer
    // NULL-key rows are emitted padded below). Arithmetic promotions are cast
    // inside the per-chunk materialization job, so keys move straight from the
    // materialized column into the sort pairs — one copy, no retype pass.
    const auto materialize_sorted = [](const Table& table, ColumnID column_id,
                                       std::vector<size_t>* null_rows) {
      auto pairs = std::vector<std::pair<K, size_t>>{};
      pairs.reserve(table.row_count());
      auto column = MaterializeColumnAs<K>(table, column_id);
      for (auto row = size_t{0}; row < column.values.size(); ++row) {
        if (column.IsNull(row)) {
          if (null_rows) {
            null_rows->push_back(row);
          }
        } else {
          pairs.emplace_back(std::move(column.values[row]), row);
        }
      }
      std::sort(pairs.begin(), pairs.end());
      return pairs;
    };

    auto left_null_rows = std::vector<size_t>{};
    const auto left_sorted = materialize_sorted(*left, primary_.left_column, &left_null_rows);
    const auto right_sorted = materialize_sorted(*right, primary_.right_column, nullptr);

    const auto emit_unmatched_left = [&](size_t row) {
      if (mode_ == JoinMode::kLeft) {
        left_rows.push_back(row);
        right_rows.push_back(kPaddingRow);
      } else if (mode_ == JoinMode::kAnti) {
        left_rows.push_back(row);
      }
    };

    for (const auto null_row : left_null_rows) {
      emit_unmatched_left(null_row);
    }

    // Merge equal-key groups.
    auto left_index = size_t{0};
    auto right_index = size_t{0};
    const auto left_size = left_sorted.size();
    const auto right_size = right_sorted.size();
    while (left_index < left_size) {
      const auto& key = left_sorted[left_index].first;
      auto left_group_end = left_index;
      while (left_group_end < left_size && left_sorted[left_group_end].first == key) {
        ++left_group_end;
      }
      while (right_index < right_size && right_sorted[right_index].first < key) {
        ++right_index;
      }
      auto right_group_end = right_index;
      while (right_group_end < right_size && right_sorted[right_group_end].first == key) {
        ++right_group_end;
      }

      for (auto l = left_index; l < left_group_end; ++l) {
        const auto left_row = left_sorted[l].second;
        auto matched = false;
        for (auto r = right_index; r < right_group_end; ++r) {
          const auto right_row = right_sorted[r].second;
          if (checker.AlwaysTrue() || checker.Passes(left_row, right_row)) {
            matched = true;
            if (mode_ == JoinMode::kInner || mode_ == JoinMode::kLeft) {
              left_rows.push_back(left_row);
              right_rows.push_back(right_row);
            } else {
              break;  // Semi/Anti only need existence.
            }
          }
        }
        if (!matched) {
          emit_unmatched_left(left_row);
        } else if (mode_ == JoinMode::kSemi) {
          left_rows.push_back(left_row);
        }
      }
      left_index = left_group_end;
      right_index = right_group_end;
    }
  });

  return BuildOutput(left, right, left_rows, right_rows);
}

}  // namespace hyrise
