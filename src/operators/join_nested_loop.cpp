#include "operators/join_nested_loop.hpp"

#include "operators/pos_list_utils.hpp"
#include "storage/table.hpp"
#include "utils/assert.hpp"

namespace hyrise {

JoinNestedLoop::JoinNestedLoop(std::shared_ptr<AbstractOperator> left, std::shared_ptr<AbstractOperator> right,
                               JoinMode mode, JoinOperatorPredicate primary,
                               std::vector<JoinOperatorPredicate> secondary)
    : AbstractJoinOperator(OperatorType::kJoinNestedLoop, std::move(left), std::move(right), mode, primary,
                           std::move(secondary)) {
  Assert(mode != JoinMode::kCross, "Use the Product operator for cross joins");
}

std::shared_ptr<const Table> JoinNestedLoop::OnExecute(const std::shared_ptr<TransactionContext>& /*context*/) {
  const auto left = left_input_->get_output();
  const auto right = right_input_->get_output();

  auto predicates = std::vector<JoinOperatorPredicate>{primary_};
  predicates.insert(predicates.end(), secondary_.begin(), secondary_.end());
  const auto checker = JoinPredicateChecker{predicates, *left, *right};

  const auto left_row_count = static_cast<size_t>(left->row_count());
  const auto right_row_count = static_cast<size_t>(right->row_count());
  auto left_rows = std::vector<size_t>{};
  auto right_rows = std::vector<size_t>{};
  auto right_matched = std::vector<bool>(right_row_count, false);

  for (auto left_row = size_t{0}; left_row < left_row_count; ++left_row) {
    auto matched = false;
    for (auto right_row = size_t{0}; right_row < right_row_count; ++right_row) {
      if (!checker.Passes(left_row, right_row)) {
        continue;
      }
      matched = true;
      right_matched[right_row] = true;
      if (mode_ == JoinMode::kInner || mode_ == JoinMode::kLeft || mode_ == JoinMode::kRight ||
          mode_ == JoinMode::kFullOuter) {
        left_rows.push_back(left_row);
        right_rows.push_back(right_row);
      } else {
        break;  // Semi/Anti only need existence.
      }
    }
    if (matched && mode_ == JoinMode::kSemi) {
      left_rows.push_back(left_row);
    }
    if (!matched) {
      if (mode_ == JoinMode::kAnti) {
        left_rows.push_back(left_row);
      } else if (mode_ == JoinMode::kLeft || mode_ == JoinMode::kFullOuter) {
        left_rows.push_back(left_row);
        right_rows.push_back(kPaddingRow);
      }
    }
  }

  if (mode_ == JoinMode::kRight || mode_ == JoinMode::kFullOuter) {
    for (auto right_row = size_t{0}; right_row < right_matched.size(); ++right_row) {
      if (!right_matched[right_row]) {
        left_rows.push_back(kPaddingRow);
        right_rows.push_back(right_row);
      }
    }
  }

  return BuildOutput(left, right, left_rows, right_rows);
}

}  // namespace hyrise
