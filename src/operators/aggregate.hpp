#ifndef HYRISE_SRC_OPERATORS_AGGREGATE_HPP_
#define HYRISE_SRC_OPERATORS_AGGREGATE_HPP_

#include <memory>
#include <optional>
#include <vector>

#include "operators/abstract_operator.hpp"

namespace hyrise {

/// One aggregate to compute: function + input column (nullopt = COUNT(*)).
struct AggregateColumnDefinition {
  AggregateFunction function{AggregateFunction::kCount};
  std::optional<ColumnID> column;
};

/// Hash-based grouping and aggregation, one task per chunk (DESIGN.md §5c).
/// A chunk whose group columns are all dictionary codes groups on the codes;
/// any other chunk groups on its decoded values. Only each chunk's distinct
/// groups are merged across chunks, by value, up a fixed tree, so groups
/// come out in first-occurrence order. Each aggregate input column is decoded
/// once per chunk for all aggregates over it. SQL semantics: aggregates skip
/// NULL inputs, COUNT(*) counts rows, empty input without GROUP BY yields one
/// row (COUNT = 0, others NULL), NULL group values form their own group, and
/// -0.0 and +0.0 form one group.
class Aggregate final : public AbstractOperator {
 public:
  Aggregate(std::shared_ptr<AbstractOperator> input, std::vector<ColumnID> group_by_columns,
            std::vector<AggregateColumnDefinition> aggregates);

  const std::string& name() const final {
    static const auto kName = std::string{"Aggregate"};
    return kName;
  }

  std::string Description() const final;

  const std::vector<ColumnID>& group_by_columns() const {
    return group_by_columns_;
  }

  const std::vector<AggregateColumnDefinition>& aggregates() const {
    return aggregates_;
  }

 protected:
  std::shared_ptr<const Table> OnExecute(const std::shared_ptr<TransactionContext>& context) final;

  std::shared_ptr<AbstractOperator> OnDeepCopy(std::shared_ptr<AbstractOperator> left,
                                               std::shared_ptr<AbstractOperator> /*right*/, DeepCopyMap& /*map*/) const final {
    return std::make_shared<Aggregate>(std::move(left), group_by_columns_, aggregates_);
  }

 private:
  std::vector<ColumnID> group_by_columns_;
  std::vector<AggregateColumnDefinition> aggregates_;
};

}  // namespace hyrise

#endif  // HYRISE_SRC_OPERATORS_AGGREGATE_HPP_
