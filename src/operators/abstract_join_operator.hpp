#ifndef HYRISE_SRC_OPERATORS_ABSTRACT_JOIN_OPERATOR_HPP_
#define HYRISE_SRC_OPERATORS_ABSTRACT_JOIN_OPERATOR_HPP_

#include <functional>
#include <memory>
#include <vector>

#include "operators/abstract_operator.hpp"

namespace hyrise {

/// One join predicate in operator terms: left column <condition> right column.
struct JoinOperatorPredicate {
  ColumnID left_column{kInvalidColumnId};
  ColumnID right_column{kInvalidColumnId};
  PredicateCondition condition{PredicateCondition::kEquals};
};

/// Evaluates join predicates on candidate pairs of global row indexes (left
/// row, right row). Each predicate is typed once: both columns are
/// materialized as their PromoteDataTypes type and compared through a
/// statically resolved comparator, with NULL never matching. A string
/// compared with a number throws DataTypeMismatch at construction.
class JoinPredicateChecker {
 public:
  JoinPredicateChecker(const std::vector<JoinOperatorPredicate>& predicates, const Table& left, const Table& right);

  bool Passes(size_t left_row, size_t right_row) const {
    for (const auto& predicate : predicates_) {
      if (!predicate(left_row, right_row)) {
        return false;
      }
    }
    return true;
  }

  bool AlwaysTrue() const {
    return predicates_.empty();
  }

 private:
  /// One function per predicate, owning its two materialized columns.
  std::vector<std::function<bool(size_t, size_t)>> predicates_;
};

/// Shared machinery of the three join implementations (paper §2.1: "we
/// implement joins as either sort-merge joins, hash joins, or nested-loop
/// joins"): the primary predicate drives the algorithm, secondary predicates
/// are evaluated on candidate pairs by a JoinPredicateChecker, and outputs
/// are reference tables.
class AbstractJoinOperator : public AbstractOperator {
 public:
  AbstractJoinOperator(OperatorType type, std::shared_ptr<AbstractOperator> left,
                       std::shared_ptr<AbstractOperator> right, JoinMode mode, JoinOperatorPredicate primary,
                       std::vector<JoinOperatorPredicate> secondary = {});

  JoinMode mode() const {
    return mode_;
  }

  const JoinOperatorPredicate& primary_predicate() const {
    return primary_;
  }

  const std::vector<JoinOperatorPredicate>& secondary_predicates() const {
    return secondary_;
  }

  std::string Description() const final;

 protected:
  /// Assembles the output reference table from matched row indices
  /// (kPaddingRow = NULL-padded outer row). For semi/anti joins only the left
  /// side is emitted.
  std::shared_ptr<Table> BuildOutput(const std::shared_ptr<const Table>& left,
                                     const std::shared_ptr<const Table>& right,
                                     const std::vector<size_t>& left_rows, const std::vector<size_t>& right_rows);

  JoinMode mode_;
  JoinOperatorPredicate primary_;
  std::vector<JoinOperatorPredicate> secondary_;
};

}  // namespace hyrise

#endif  // HYRISE_SRC_OPERATORS_ABSTRACT_JOIN_OPERATOR_HPP_
