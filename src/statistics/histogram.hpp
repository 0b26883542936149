#ifndef HYRISE_SRC_STATISTICS_HISTOGRAM_HPP_
#define HYRISE_SRC_STATISTICS_HISTOGRAM_HPP_

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "types/all_type_variant.hpp"
#include "types/types.hpp"

namespace hyrise {

/// Maps a value into a continuous domain for intra-bin interpolation.
/// Strings map their first 8 bytes into [0, 1) base-256; this keeps range
/// estimates monotonic, which is all the estimator needs.
template <typename T>
double HistogramDomainValue(const T& value) {
  if constexpr (std::is_arithmetic_v<T>) {
    return static_cast<double>(value);
  } else {
    auto result = 0.0;
    auto scale = 1.0;
    for (auto index = size_t{0}; index < 8; ++index) {
      scale /= 256.0;
      const auto character = index < value.size() ? static_cast<unsigned char>(value[index]) : 0;
      result += character * scale;
    }
    return result;
  }
}

template <typename T>
struct HistogramBin {
  T min{};
  T max{};
  double height{0};
  double distinct_count{0};
};

enum class HistogramLayout { kEqualWidth, kEqualHeight, kEqualDistinctCount };

/// Piecewise-uniform histogram over one column (paper §2.1: "statistics rely
/// on histograms (equal height, equal width, equal distinct count)"). All
/// three layouts share this representation and estimation logic; they differ
/// only in how the builder draws bin boundaries.
template <typename T>
class Histogram {
 public:
  static constexpr size_t kMaxBinCount = 64;

  /// Builds a histogram from (a sample of) the column's non-null values.
  /// `values` is consumed. Returns nullptr for empty input.
  static std::shared_ptr<const Histogram<T>> FromValues(std::vector<T> values, HistogramLayout layout);

  /// Rebuilds a histogram from previously built bins (statistics persistence:
  /// the optimizer is warm at the first query after a restart without
  /// rescanning any column). Returns nullptr for empty input, mirroring
  /// FromValues.
  static std::shared_ptr<const Histogram<T>> FromBins(std::vector<HistogramBin<T>> bins) {
    if (bins.empty()) {
      return nullptr;
    }
    auto histogram = std::make_shared<Histogram<T>>();
    histogram->bins_ = std::move(bins);
    for (const auto& bin : histogram->bins_) {
      histogram->total_count_ += bin.height;
      histogram->total_distinct_count_ += bin.distinct_count;
    }
    return histogram;
  }

  const std::vector<HistogramBin<T>>& bins() const {
    return bins_;
  }

  double total_count() const {
    return total_count_;
  }

  double total_distinct_count() const {
    return total_distinct_count_;
  }

  /// Estimated number of matching rows.
  double EstimateCardinality(PredicateCondition condition, const T& value,
                             const std::optional<T>& value2 = std::nullopt) const;

 private:
  double EstimateLessThan(const T& value, bool inclusive) const;

  std::vector<HistogramBin<T>> bins_;
  double total_count_{0};
  double total_distinct_count_{0};
};

// --- Implementation ---------------------------------------------------------

template <typename T>
std::shared_ptr<const Histogram<T>> Histogram<T>::FromValues(std::vector<T> values, HistogramLayout layout) {
  if (values.empty()) {
    return nullptr;
  }
  std::sort(values.begin(), values.end());

  // Collapse into (distinct value, count) pairs.
  auto distinct_values = std::vector<std::pair<T, size_t>>{};
  for (const auto& value : values) {
    if (distinct_values.empty() || distinct_values.back().first != value) {
      distinct_values.emplace_back(value, 1);
    } else {
      ++distinct_values.back().second;
    }
  }

  auto histogram = std::make_shared<Histogram<T>>();
  const auto distinct_count = distinct_values.size();
  const auto bin_count = std::min(kMaxBinCount, distinct_count);

  const auto append_bin = [&](size_t first, size_t last /*inclusive*/) {
    auto bin = HistogramBin<T>{};
    bin.min = distinct_values[first].first;
    bin.max = distinct_values[last].first;
    bin.distinct_count = static_cast<double>(last - first + 1);
    for (auto index = first; index <= last; ++index) {
      bin.height += static_cast<double>(distinct_values[index].second);
    }
    histogram->bins_.push_back(std::move(bin));
  };

  switch (layout) {
    case HistogramLayout::kEqualDistinctCount: {
      const auto per_bin = (distinct_count + bin_count - 1) / bin_count;
      for (auto first = size_t{0}; first < distinct_count; first += per_bin) {
        append_bin(first, std::min(first + per_bin, distinct_count) - 1);
      }
      break;
    }
    case HistogramLayout::kEqualHeight: {
      const auto target_height = static_cast<double>(values.size()) / static_cast<double>(bin_count);
      auto first = size_t{0};
      auto height = 0.0;
      for (auto index = size_t{0}; index < distinct_count; ++index) {
        height += static_cast<double>(distinct_values[index].second);
        if (height >= target_height || index + 1 == distinct_count) {
          append_bin(first, index);
          first = index + 1;
          height = 0.0;
        }
      }
      break;
    }
    case HistogramLayout::kEqualWidth: {
      const auto domain_min = HistogramDomainValue(distinct_values.front().first);
      const auto domain_max = HistogramDomainValue(distinct_values.back().first);
      const auto width = (domain_max - domain_min) / static_cast<double>(bin_count);
      const auto bin_index_of = [&](const T& value) {
        if (width <= 0.0) {
          return size_t{0};
        }
        const auto raw = static_cast<size_t>((HistogramDomainValue(value) - domain_min) / width);
        return std::min(raw, bin_count - 1);
      };
      auto first = size_t{0};
      for (auto index = size_t{0}; index < distinct_count; ++index) {
        const auto is_last = index + 1 == distinct_count;
        if (is_last || bin_index_of(distinct_values[index + 1].first) != bin_index_of(distinct_values[first].first)) {
          append_bin(first, index);
          first = index + 1;
        }
      }
      break;
    }
  }

  for (const auto& bin : histogram->bins_) {
    histogram->total_count_ += bin.height;
    histogram->total_distinct_count_ += bin.distinct_count;
  }
  return histogram;
}

template <typename T>
double Histogram<T>::EstimateLessThan(const T& value, bool inclusive) const {
  auto cardinality = 0.0;
  for (const auto& bin : bins_) {
    if (inclusive ? bin.max <= value : bin.max < value) {
      cardinality += bin.height;
      continue;
    }
    if (bin.min > value || (!inclusive && bin.min == value)) {
      break;
    }
    // Partially covered bin: interpolate within the domain. `bin.max` lies
    // above `value` (or is excluded), so at least its own share of the bin
    // stays above.
    const auto bin_min = HistogramDomainValue(bin.min);
    const auto bin_max = HistogramDomainValue(bin.max);
    const auto domain_value = HistogramDomainValue(value);
    auto ratio = bin_max > bin_min ? (domain_value - bin_min) / (bin_max - bin_min) : 1.0;
    ratio = std::clamp(ratio, 0.0, 1.0);
    const auto per_value = bin.height / std::max(1.0, bin.distinct_count);
    cardinality += std::min(bin.height * ratio + (inclusive ? per_value : 0.0), bin.height - per_value);
    break;
  }
  return std::min(cardinality, total_count_);
}

template <typename T>
double Histogram<T>::EstimateCardinality(PredicateCondition condition, const T& value,
                                         const std::optional<T>& value2) const {
  switch (condition) {
    case PredicateCondition::kEquals: {
      for (const auto& bin : bins_) {
        if (value >= bin.min && value <= bin.max) {
          return bin.height / std::max(1.0, bin.distinct_count);
        }
      }
      return 0.0;
    }
    case PredicateCondition::kNotEquals:
      return total_count_ - EstimateCardinality(PredicateCondition::kEquals, value);
    case PredicateCondition::kLessThan:
      return EstimateLessThan(value, false);
    case PredicateCondition::kLessThanEquals:
      return EstimateLessThan(value, true);
    case PredicateCondition::kGreaterThan:
      return total_count_ - EstimateLessThan(value, true);
    case PredicateCondition::kGreaterThanEquals:
      return total_count_ - EstimateLessThan(value, false);
    case PredicateCondition::kBetweenInclusive:
      return std::max(0.0, EstimateLessThan(value2.value(), true) - EstimateLessThan(value, false));
    default:
      return total_count_ * 0.5;
  }
}

}  // namespace hyrise

#endif  // HYRISE_SRC_STATISTICS_HISTOGRAM_HPP_
