#ifndef HYRISE_SRC_STATISTICS_TABLE_STATISTICS_HPP_
#define HYRISE_SRC_STATISTICS_TABLE_STATISTICS_HPP_

#include <memory>
#include <vector>

#include "expression/predicate_literal.hpp"
#include "statistics/histogram.hpp"
#include "types/all_type_variant.hpp"

namespace hyrise {

/// Per-column statistics used by the cardinality estimator (paper §2.1/§2.4).
class BaseAttributeStatistics {
 public:
  explicit BaseAttributeStatistics(DataType init_data_type) : data_type(init_data_type) {}
  virtual ~BaseAttributeStatistics() = default;

  /// Estimated selectivity of the comparison `column <condition> value` in
  /// [0, 1] (IS NULL is `null_ratio`).
  virtual double EstimateSelectivity(PredicateCondition condition, const AllTypeVariant& value,
                                     const std::optional<AllTypeVariant>& value2 = std::nullopt) const = 0;

  virtual double distinct_count() const = 0;

  DataType data_type;
  double null_ratio{0.0};
};

template <typename T>
class AttributeStatistics final : public BaseAttributeStatistics {
 public:
  AttributeStatistics() : BaseAttributeStatistics(DataTypeOf<T>()) {}

  double EstimateSelectivity(PredicateCondition condition, const AllTypeVariant& value,
                             const std::optional<AllTypeVariant>& value2 = std::nullopt) const final {
    if (!histogram || histogram->total_count() == 0.0 || VariantIsNull(value)) {
      return 0.5;
    }
    const auto predicate = TypePredicateLiteral<T>(condition, value, value2);
    if (predicate.outcome != LiteralOutcome::kTyped) {
      return predicate.outcome == LiteralOutcome::kNoRow            ? 0.0
             : predicate.outcome == LiteralOutcome::kEveryNonNullRow ? 1.0 - null_ratio
                                                                     : 0.5;  // A type mismatch.
    }
    const auto cardinality = histogram->EstimateCardinality(predicate.condition, predicate.value, predicate.value2);
    return (1.0 - null_ratio) * cardinality / histogram->total_count();
  }

  double distinct_count() const final {
    return histogram ? histogram->total_distinct_count() : 1.0;
  }

  std::shared_ptr<const Histogram<T>> histogram;
};

/// Row count plus per-column statistics of one table (or of an intermediate
/// result, where the estimator scales the base statistics).
class TableStatistics {
 public:
  TableStatistics() = default;

  TableStatistics(double init_row_count, std::vector<std::shared_ptr<const BaseAttributeStatistics>> init_columns)
      : row_count(init_row_count), column_statistics(std::move(init_columns)) {}

  double row_count{0.0};
  std::vector<std::shared_ptr<const BaseAttributeStatistics>> column_statistics;
};

class Table;

/// Scans (a sample of) every column and builds equal-distinct-count
/// histograms. Called lazily when the optimizer first needs statistics.
std::shared_ptr<TableStatistics> GenerateTableStatistics(const Table& table,
                                                         HistogramLayout layout = HistogramLayout::kEqualDistinctCount,
                                                         size_t max_sample_size = 500'000);

/// Builds per-chunk pruning filters (min-max for ranges, counting quotient
/// filter for equality) for all immutable chunks that do not have them yet.
void GenerateChunkPruningStatistics(const std::shared_ptr<Table>& table);

}  // namespace hyrise

#endif  // HYRISE_SRC_STATISTICS_TABLE_STATISTICS_HPP_
