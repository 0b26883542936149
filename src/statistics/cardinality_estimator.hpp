#ifndef HYRISE_SRC_STATISTICS_CARDINALITY_ESTIMATOR_HPP_
#define HYRISE_SRC_STATISTICS_CARDINALITY_ESTIMATOR_HPP_

#include <memory>
#include <unordered_map>

#include "expression/expressions.hpp"
#include "logical_query_plan/abstract_lqp_node.hpp"

namespace hyrise {

/// Estimates intermediate result sizes from base-table histograms (paper
/// §2.1: the optimizer "utilizes information about the referenced tables ...
/// collected from auxiliary data structures, such as general statistics").
/// Statistics of base tables are generated lazily and cached on the Table.
/// An instance memoizes what it resolves, so it lives for one rule
/// application over an unchanging set of tables.
class CardinalityEstimator {
 public:
  /// Estimated row count of the (sub)plan.
  double EstimateRowCount(const LqpNodePtr& node) const;

  /// Estimated selectivity in [0, 1] of `predicate` over `input`'s output.
  double EstimateSelectivity(const ExpressionPtr& predicate, const LqpNodePtr& input) const;

  /// Selectivity in (0, 1] of the conjunction `predicates` over the cross
  /// product of two inputs: the one join model behind both EstimateRowCount
  /// and join ordering. Equalities are grouped by the pair of stored tables
  /// behind their two arguments. Within a group every equality divides by
  /// its larger distinct count, but the composite key is capped at the
  /// smaller table's row count: a multi-column key between two tables is
  /// typically one correlated (foreign) key, not independent columns. Groups
  /// multiply as independent, and every other conjunct contributes a fixed
  /// default selectivity.
  double EstimateJoinSelectivity(const Expressions& predicates) const;

 private:
  /// One join conjunct, resolved against the statistics once per instance.
  struct JoinConjunct {
    /// Selectivity of the conjunct on its own.
    double selectivity{1.0};
    /// For an equality between two base-table columns: the two StoredTableNodes
    /// (identity only, ordered) and the smaller table's row count, which caps
    /// the composite key of all equalities between the same two tables.
    const AbstractLqpNode* lower_table{nullptr};
    const AbstractLqpNode* upper_table{nullptr};
    double key_cap{0.0};
  };

  const JoinConjunct& ResolveJoinConjunct(const ExpressionPtr& predicate) const;

  mutable std::unordered_map<const AbstractLqpNode*, double> row_count_cache_;
  mutable std::unordered_map<ExpressionPtr, JoinConjunct> join_conjunct_cache_;
};

}  // namespace hyrise

#endif  // HYRISE_SRC_STATISTICS_CARDINALITY_ESTIMATOR_HPP_
