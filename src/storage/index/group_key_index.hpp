#ifndef HYRISE_SRC_STORAGE_INDEX_GROUP_KEY_INDEX_HPP_
#define HYRISE_SRC_STORAGE_INDEX_GROUP_KEY_INDEX_HPP_

#include <memory>
#include <optional>
#include <vector>

#include "storage/dictionary_segment.hpp"
#include "storage/index/abstract_chunk_index.hpp"
#include "utils/assert.hpp"

namespace hyrise {

/// The group-key index developed for Hyrise (paper §2.4, [16]): exploits the
/// order-preserving dictionary of a DictionarySegment. `positions_` holds all
/// chunk offsets sorted by their ValueID; `value_start_offsets_` (CSR layout)
/// maps each ValueID to its slice. Equality and range lookups are a
/// dictionary binary search plus a contiguous copy.
template <typename T>
class GroupKeyIndex final : public AbstractChunkIndex {
 public:
  explicit GroupKeyIndex(std::shared_ptr<const DictionarySegment<T>> segment)
      : AbstractChunkIndex(ChunkIndexType::kGroupKey, DataTypeOf<T>()), segment_(std::move(segment)) {
    const auto& attribute_vector = segment_->attribute_vector();
    const auto distinct = segment_->dictionary().size();
    const auto null_id = segment_->null_value_id();

    // Counting sort of offsets by ValueID (NULLs are skipped).
    value_start_offsets_.assign(distinct + 1, 0);
    const auto size = attribute_vector.size();
    const auto decompressor = attribute_vector.CreateBaseDecompressor();
    for (auto offset = size_t{0}; offset < size; ++offset) {
      const auto value_id = decompressor->Get(offset);
      if (value_id != null_id) {
        ++value_start_offsets_[value_id + 1];
      }
    }
    for (auto value_id = size_t{1}; value_id <= distinct; ++value_id) {
      value_start_offsets_[value_id] += value_start_offsets_[value_id - 1];
    }
    positions_.resize(value_start_offsets_.back());
    auto cursors = value_start_offsets_;
    for (auto offset = size_t{0}; offset < size; ++offset) {
      const auto value_id = decompressor->Get(offset);
      if (value_id != null_id) {
        positions_[cursors[value_id]++] = static_cast<ChunkOffset>(offset);
      }
    }
  }

  void Equals(const AllTypeVariant& value, std::vector<ChunkOffset>& result) const final {
    if (VariantIsNull(value)) {
      return;
    }
    const auto& typed = std::get<T>(value);
    const auto value_id = segment_->LowerBound(typed);
    if (value_id == kInvalidValueId || segment_->ValueOfValueId(value_id) != typed) {
      return;
    }
    AppendRange(value_id, ValueID{value_id + 1}, result);
  }

  void Range(const std::optional<AllTypeVariant>& lower, bool lower_inclusive,
             const std::optional<AllTypeVariant>& upper, bool upper_inclusive,
             std::vector<ChunkOffset>& result) const final {
    auto first = ValueID{0};
    auto last = ValueID{static_cast<uint32_t>(segment_->dictionary().size())};
    if (lower.has_value() && !VariantIsNull(*lower)) {
      const auto& typed = std::get<T>(*lower);
      const auto bound = lower_inclusive ? segment_->LowerBound(typed) : segment_->UpperBound(typed);
      first = bound == kInvalidValueId ? last : bound;
    }
    if (upper.has_value() && !VariantIsNull(*upper)) {
      const auto& typed = std::get<T>(*upper);
      const auto bound = upper_inclusive ? segment_->UpperBound(typed) : segment_->LowerBound(typed);
      if (bound != kInvalidValueId) {
        last = bound;
      }
    }
    if (first < last) {
      AppendRange(first, last, result);
    }
  }

  size_t MemoryUsage() const final {
    return value_start_offsets_.capacity() * sizeof(uint32_t) + positions_.capacity() * sizeof(ChunkOffset);
  }

 private:
  void AppendRange(ValueID first, ValueID last, std::vector<ChunkOffset>& result) const {
    result.insert(result.end(), positions_.begin() + value_start_offsets_[first],
                  positions_.begin() + value_start_offsets_[last]);
  }

  std::shared_ptr<const DictionarySegment<T>> segment_;
  std::vector<uint32_t> value_start_offsets_;
  std::vector<ChunkOffset> positions_;
};

}  // namespace hyrise

#endif  // HYRISE_SRC_STORAGE_INDEX_GROUP_KEY_INDEX_HPP_
