#ifndef HYRISE_SRC_STORAGE_INDEX_B_TREE_INDEX_HPP_
#define HYRISE_SRC_STORAGE_INDEX_B_TREE_INDEX_HPP_

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "storage/index/abstract_chunk_index.hpp"
#include "storage/segment_decoder.hpp"
#include "utils/assert.hpp"

namespace hyrise {

/// In-memory B+-tree: keys live in linked leaves, inner nodes hold separator
/// keys. Each distinct key owns a posting list of chunk offsets. Built once
/// over an immutable segment (bulk-loaded bottom-up), then read-only — the
/// per-chunk index lifecycle of paper §2.4.
template <typename T>
class BTreeIndex final : public AbstractChunkIndex {
 public:
  static constexpr size_t kLeafCapacity = 64;
  static constexpr size_t kInnerCapacity = 64;

  explicit BTreeIndex(const AbstractSegment& segment) : AbstractChunkIndex(ChunkIndexType::kBTree, DataTypeOf<T>()) {
    // Collect (value, offset), sort, then bulk-load.
    auto decoded = DecodeSegmentAs<T>(segment);
    auto pairs = std::vector<std::pair<T, ChunkOffset>>{};
    pairs.reserve(decoded.values.size());
    for (auto offset = ChunkOffset{0}; offset < decoded.values.size(); ++offset) {
      if (!decoded.IsNull(offset)) {
        pairs.emplace_back(std::move(decoded.values[offset]), offset);
      }
    }
    std::sort(pairs.begin(), pairs.end());
    BulkLoad(pairs);
  }

  void Equals(const AllTypeVariant& value, std::vector<ChunkOffset>& result) const final {
    if (VariantIsNull(value) || leaves_.empty()) {
      return;
    }
    const auto& typed = std::get<T>(value);
    const auto [leaf, slot] = LowerBound(typed);
    if (leaf < leaves_.size() && slot < leaves_[leaf].keys.size() && leaves_[leaf].keys[slot] == typed) {
      const auto& postings = leaves_[leaf].postings[slot];
      result.insert(result.end(), postings.begin(), postings.end());
    }
  }

  void Range(const std::optional<AllTypeVariant>& lower, bool lower_inclusive,
             const std::optional<AllTypeVariant>& upper, bool upper_inclusive,
             std::vector<ChunkOffset>& result) const final {
    if (leaves_.empty()) {
      return;
    }
    auto leaf = size_t{0};
    auto slot = size_t{0};
    if (lower.has_value() && !VariantIsNull(*lower)) {
      const auto& typed = std::get<T>(*lower);
      std::tie(leaf, slot) = LowerBound(typed);
      if (!lower_inclusive) {
        while (leaf < leaves_.size() && slot < leaves_[leaf].keys.size() && leaves_[leaf].keys[slot] == typed) {
          Advance(leaf, slot);
        }
      }
    }
    const auto has_upper = upper.has_value() && !VariantIsNull(*upper);
    auto upper_typed = T{};
    if (has_upper) {
      upper_typed = std::get<T>(*upper);
    }
    while (leaf < leaves_.size()) {
      if (slot >= leaves_[leaf].keys.size()) {
        ++leaf;
        slot = 0;
        continue;
      }
      const auto& key = leaves_[leaf].keys[slot];
      if (has_upper && (upper_inclusive ? key > upper_typed : key >= upper_typed)) {
        break;
      }
      const auto& postings = leaves_[leaf].postings[slot];
      result.insert(result.end(), postings.begin(), postings.end());
      ++slot;
    }
  }

  size_t MemoryUsage() const final {
    auto bytes = size_t{0};
    for (const auto& leaf : leaves_) {
      bytes += leaf.keys.capacity() * sizeof(T);
      for (const auto& postings : leaf.postings) {
        bytes += postings.capacity() * sizeof(ChunkOffset);
      }
    }
    for (const auto& level : inner_levels_) {
      bytes += level.capacity() * sizeof(T);
    }
    return bytes;
  }

 private:
  struct Leaf {
    std::vector<T> keys;
    std::vector<std::vector<ChunkOffset>> postings;
  };

  void BulkLoad(const std::vector<std::pair<T, ChunkOffset>>& sorted_pairs) {
    // Build leaves left to right, kLeafCapacity distinct keys each.
    for (auto index = size_t{0}; index < sorted_pairs.size();) {
      if (leaves_.empty() || leaves_.back().keys.size() >= kLeafCapacity) {
        leaves_.emplace_back();
      }
      auto& leaf = leaves_.back();
      const auto& key = sorted_pairs[index].first;
      leaf.keys.push_back(key);
      auto& postings = leaf.postings.emplace_back();
      while (index < sorted_pairs.size() && sorted_pairs[index].first == key) {
        postings.push_back(sorted_pairs[index].second);
        ++index;
      }
    }
    // Build inner levels: level[i][j] = smallest key of child j at fan-out
    // kInnerCapacity. Lookup descends these levels with binary searches.
    auto level_width = leaves_.size();
    auto current = std::vector<T>{};
    current.reserve(level_width);
    for (const auto& leaf : leaves_) {
      current.push_back(leaf.keys.front());
    }
    while (level_width > 1) {
      inner_levels_.push_back(current);
      auto next = std::vector<T>{};
      for (auto index = size_t{0}; index < current.size(); index += kInnerCapacity) {
        next.push_back(current[index]);
      }
      current = std::move(next);
      level_width = current.size();
    }
  }

  /// Position of the first key >= `value`, as (leaf index, slot).
  std::pair<size_t, size_t> LowerBound(const T& value) const {
    // Descend the separator levels to narrow the leaf range, then binary
    // search within the leaf.
    auto leaf = size_t{0};
    if (!inner_levels_.empty()) {
      const auto& separators = inner_levels_.front();
      const auto iter = std::upper_bound(separators.begin(), separators.end(), value);
      leaf = iter == separators.begin() ? 0 : static_cast<size_t>(std::distance(separators.begin(), iter)) - 1;
    }
    while (leaf < leaves_.size()) {
      const auto& keys = leaves_[leaf].keys;
      const auto iter = std::lower_bound(keys.begin(), keys.end(), value);
      if (iter != keys.end()) {
        return {leaf, static_cast<size_t>(std::distance(keys.begin(), iter))};
      }
      ++leaf;
    }
    return {leaves_.size(), 0};
  }

  void Advance(size_t& leaf, size_t& slot) const {
    ++slot;
    if (slot >= leaves_[leaf].keys.size()) {
      ++leaf;
      slot = 0;
    }
  }

  std::vector<Leaf> leaves_;
  std::vector<std::vector<T>> inner_levels_;  // [0] = per-leaf smallest keys.
};

}  // namespace hyrise

#endif  // HYRISE_SRC_STORAGE_INDEX_B_TREE_INDEX_HPP_
