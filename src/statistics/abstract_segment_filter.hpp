#ifndef HYRISE_SRC_STATISTICS_ABSTRACT_SEGMENT_FILTER_HPP_
#define HYRISE_SRC_STATISTICS_ABSTRACT_SEGMENT_FILTER_HPP_

#include <memory>
#include <optional>
#include <vector>

#include "types/all_type_variant.hpp"
#include "types/types.hpp"

namespace hyrise {

/// A lightweight, probabilistic per-segment structure answering "can any row
/// of this segment satisfy this predicate?" (paper §2.4). Filters are created
/// on immutable chunks only and consumed by the optimizer's ChunkPruningRule,
/// which propagates them to the table's scan node — pruning happens at
/// planning time, not during execution.
class AbstractSegmentFilter {
 public:
  virtual ~AbstractSegmentFilter() = default;

  /// True if provably no row matches (false negatives are forbidden; "false"
  /// just means "cannot rule out").
  virtual bool CanPrune(PredicateCondition condition, const AllTypeVariant& value,
                        const std::optional<AllTypeVariant>& value2 = std::nullopt) const = 0;
};

/// The filters GenerateChunkPruningStatistics builds for one segment. Prunes
/// if any member filter prunes.
class CompositeSegmentFilter final : public AbstractSegmentFilter {
 public:
  explicit CompositeSegmentFilter(std::vector<std::shared_ptr<const AbstractSegmentFilter>> filters)
      : filters_(std::move(filters)) {}

  bool CanPrune(PredicateCondition condition, const AllTypeVariant& value,
                const std::optional<AllTypeVariant>& value2 = std::nullopt) const final {
    for (const auto& filter : filters_) {
      if (filter->CanPrune(condition, value, value2)) {
        return true;
      }
    }
    return false;
  }

  const std::vector<std::shared_ptr<const AbstractSegmentFilter>>& filters() const {
    return filters_;
  }

 private:
  std::vector<std::shared_ptr<const AbstractSegmentFilter>> filters_;
};

}  // namespace hyrise

#endif  // HYRISE_SRC_STATISTICS_ABSTRACT_SEGMENT_FILTER_HPP_
