#ifndef HYRISE_SRC_STATISTICS_SORTED_VALUE_COUNTS_HPP_
#define HYRISE_SRC_STATISTICS_SORTED_VALUE_COUNTS_HPP_

#include <algorithm>
#include <iterator>
#include <utility>
#include <vector>

#include "storage/dictionary_segment.hpp"
#include "storage/segment_decoder.hpp"
#include "storage/vector_compression/compressed_vector_utils.hpp"

namespace hyrise {

/// Distinct values in ascending order, each with its number of rows.
template <typename T>
using ValueCountRun = std::vector<std::pair<T, size_t>>;

/// The sampled rows of one segment: its distinct non-NULL values with their
/// counts, and the number of NULL rows.
template <typename T>
struct SortedValueCounts {
  ValueCountRun<T> values;
  size_t null_count{0};
};

/// Rows first, first + stride, first + 2 * stride, ... of a stored segment.
struct StridedRows {
  size_t first;
  size_t stride;
  size_t count;

  size_t OffsetAt(size_t index) const {
    return first + index * stride;
  }

  size_t RowAt(size_t index) const {
    return index;
  }
};

/// The one source of the pruning filters and histograms (paper §2.4): counts
/// rows `first`, `first + stride`, ... of `segment` (a T column). A
/// DictionarySegment yields its dictionary with the counts of its codes, read
/// in one pass (null_value_id counts as NULL); any other segment is decoded,
/// sorted and collapsed.
template <typename T>
SortedValueCounts<T> CountSortedValues(const AbstractSegment& segment, size_t first = 0, size_t stride = 1) {
  auto result = SortedValueCounts<T>{};
  const auto size = static_cast<size_t>(segment.size());
  if (first >= size) {
    return result;
  }

  if (const auto* dictionary_segment = dynamic_cast<const DictionarySegment<T>*>(&segment)) {
    const auto& dictionary = dictionary_segment->dictionary();
    // Indexed by code; the last counter is null_value_id's.
    auto code_counts = std::vector<size_t>(dictionary.size() + 1);
    const auto count_codes = [&](const auto* codes, size_t count, size_t /*base*/) {
      auto* const counts = code_counts.data();
      for (auto index = size_t{0}; index < count; ++index) {
        ++counts[codes[index]];
      }
    };
    ResolveCompressedVector(dictionary_segment->attribute_vector(), [&](const auto& vector) {
      if (first == 0 && stride == 1) {
        ForEachCodeBlock(vector, count_codes);
      } else {
        ForEachGatheredCodeBlock(vector, StridedRows{first, stride, (size - first + stride - 1) / stride},
                                 count_codes);
      }
    });
    result.null_count = code_counts[dictionary_segment->null_value_id()];
    for (auto code = size_t{0}; code < dictionary.size(); ++code) {
      if (code_counts[code] > 0) {
        result.values.emplace_back(dictionary[code], code_counts[code]);
      }
    }
    return result;
  }

  auto decoded = DecodeSegmentAs<T>(segment);
  auto values = std::vector<T>{};
  values.reserve((size - first + stride - 1) / stride);
  for (auto offset = first; offset < size; offset += stride) {
    if (decoded.IsNull(offset)) {
      ++result.null_count;
    } else {
      values.push_back(std::move(decoded.values[offset]));
    }
  }
  std::sort(values.begin(), values.end());
  for (auto& value : values) {
    if (result.values.empty() || result.values.back().first != value) {
      result.values.emplace_back(std::move(value), 1);
    } else {
      ++result.values.back().second;
    }
  }
  return result;
}

/// Merges sorted runs into one, adding the counts of values they share.
template <typename T>
ValueCountRun<T> MergeValueCountRuns(std::vector<ValueCountRun<T>> runs) {
  if (runs.empty()) {
    return {};
  }
  // Pairwise, in rounds: each value is moved once per round, log2(runs) rounds.
  while (runs.size() > 1) {
    auto merged_runs = std::vector<ValueCountRun<T>>{};
    merged_runs.reserve((runs.size() + 1) / 2);
    for (auto index = size_t{0}; index + 1 < runs.size(); index += 2) {
      auto& left = runs[index];
      auto& right = runs[index + 1];
      auto merged = ValueCountRun<T>{};
      merged.reserve(left.size() + right.size());
      auto left_index = size_t{0};
      auto right_index = size_t{0};
      while (left_index < left.size() && right_index < right.size()) {
        if (left[left_index].first < right[right_index].first) {
          merged.push_back(std::move(left[left_index++]));
        } else if (right[right_index].first < left[left_index].first) {
          merged.push_back(std::move(right[right_index++]));
        } else {
          merged.push_back(std::move(left[left_index++]));
          merged.back().second += right[right_index++].second;
        }
      }
      std::move(left.begin() + left_index, left.end(), std::back_inserter(merged));
      std::move(right.begin() + right_index, right.end(), std::back_inserter(merged));
      merged_runs.push_back(std::move(merged));
    }
    if (runs.size() % 2 == 1) {
      merged_runs.push_back(std::move(runs.back()));
    }
    runs = std::move(merged_runs);
  }
  return std::move(runs.front());
}

}  // namespace hyrise

#endif  // HYRISE_SRC_STATISTICS_SORTED_VALUE_COUNTS_HPP_
