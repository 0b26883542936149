#ifndef HYRISE_SRC_STORAGE_INDEX_ART_CHUNK_INDEX_HPP_
#define HYRISE_SRC_STORAGE_INDEX_ART_CHUNK_INDEX_HPP_

#include <bit>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "storage/index/abstract_chunk_index.hpp"
#include "storage/index/adaptive_radix_tree.hpp"
#include "storage/segment_iterables/segment_iterate.hpp"

namespace hyrise {

/// Encodes a value as a binary-comparable byte string (big-endian, sign bit
/// flipped for signed integers, IEEE-754 total-order trick for floats,
/// terminated raw bytes for strings) so that byte-wise radix order equals
/// value order.
template <typename T>
ArtTree::Key EncodeArtKey(const T& value) {
  auto key = ArtTree::Key{};
  if constexpr (std::is_same_v<T, int32_t> || std::is_same_v<T, int64_t>) {
    using Unsigned = std::make_unsigned_t<T>;
    auto bits = static_cast<Unsigned>(value);
    bits ^= Unsigned{1} << (sizeof(T) * 8 - 1);
    key.resize(sizeof(T));
    for (auto index = size_t{0}; index < sizeof(T); ++index) {
      key[index] = static_cast<uint8_t>(bits >> ((sizeof(T) - 1 - index) * 8));
    }
  } else if constexpr (std::is_same_v<T, float> || std::is_same_v<T, double>) {
    using Unsigned = std::conditional_t<std::is_same_v<T, float>, uint32_t, uint64_t>;
    auto bits = std::bit_cast<Unsigned>(value);
    if (bits & (Unsigned{1} << (sizeof(T) * 8 - 1))) {
      bits = ~bits;  // Negative: reverse order.
    } else {
      bits ^= Unsigned{1} << (sizeof(T) * 8 - 1);
    }
    key.resize(sizeof(T));
    for (auto index = size_t{0}; index < sizeof(T); ++index) {
      key[index] = static_cast<uint8_t>(bits >> ((sizeof(T) - 1 - index) * 8));
    }
  } else {
    key.assign(value.begin(), value.end());
    key.push_back(0);  // Terminator keeps keys prefix-free.
  }
  return key;
}

/// Adaptive-radix-tree chunk index (paper §2.4, index type (i)).
template <typename T>
class ArtChunkIndex final : public AbstractChunkIndex {
 public:
  explicit ArtChunkIndex(const AbstractSegment& segment)
      : AbstractChunkIndex(ChunkIndexType::kAdaptiveRadixTree, DataTypeOf<T>()) {
    SegmentIterate<T>(segment, [&](const auto& position) {
      if (!position.is_null()) {
        tree_.Insert(EncodeArtKey(position.value()), position.chunk_offset());
      }
    });
  }

  void Equals(const AllTypeVariant& value, std::vector<ChunkOffset>& result) const final {
    if (VariantIsNull(value)) {
      return;
    }
    const auto* postings = tree_.Lookup(EncodeArtKey(std::get<T>(value)));
    if (postings) {
      result.insert(result.end(), postings->begin(), postings->end());
    }
  }

  void Range(const std::optional<AllTypeVariant>& lower, bool lower_inclusive,
             const std::optional<AllTypeVariant>& upper, bool upper_inclusive,
             std::vector<ChunkOffset>& result) const final {
    auto lower_key = std::optional<ArtTree::Key>{};
    auto upper_key = std::optional<ArtTree::Key>{};
    if (lower.has_value() && !VariantIsNull(*lower)) {
      lower_key = EncodeArtKey(std::get<T>(*lower));
    }
    if (upper.has_value() && !VariantIsNull(*upper)) {
      upper_key = EncodeArtKey(std::get<T>(*upper));
    }
    tree_.Range(lower_key ? &*lower_key : nullptr, lower_inclusive, upper_key ? &*upper_key : nullptr,
                upper_inclusive, result);
  }

  size_t MemoryUsage() const final {
    return tree_.MemoryUsage();
  }

 private:
  ArtTree tree_;
};

}  // namespace hyrise

#endif  // HYRISE_SRC_STORAGE_INDEX_ART_CHUNK_INDEX_HPP_
