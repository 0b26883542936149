#ifndef HYRISE_SRC_OPERATORS_SCAN_KERNELS_HPP_
#define HYRISE_SRC_OPERATORS_SCAN_KERNELS_HPP_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "storage/frame_of_reference_segment.hpp"
#include "storage/pos_list.hpp"
#include "storage/run_length_segment.hpp"
#include "storage/segment_decoder.hpp"
#include "storage/vector_compression/base_compressed_vector.hpp"
#include "types/types.hpp"
#include "utils/assert.hpp"

namespace hyrise {

/// Block-wise vectorized scan kernels (DESIGN.md §5d). Every kernel follows
/// the same three-step shape: (1) obtain a block of up to 128 decoded codes
/// or values, (2) evaluate the predicate branch-free into a 128-bit match
/// mask, folding nulls in as a second mask, and (3) emit matching chunk
/// offsets through the shared bitmask -> position-list emitter. Bits are set
/// and scanned in ascending offset order, so the emitted PosList is
/// byte-identical to the per-element reference loop.

/// Statically resolves a comparison condition to a comparator functor, so the
/// hot loop compiles without a switch (paper §2.3: "not only the iterators,
/// but also the functors are resolved at compile time").
template <typename Functor>
void WithComparator(PredicateCondition condition, const Functor& functor) {
  switch (condition) {
    case PredicateCondition::kEquals:
      functor([](const auto& lhs, const auto& rhs) {
        return lhs == rhs;
      });
      return;
    case PredicateCondition::kNotEquals:
      functor([](const auto& lhs, const auto& rhs) {
        return lhs != rhs;
      });
      return;
    case PredicateCondition::kLessThan:
      functor([](const auto& lhs, const auto& rhs) {
        return lhs < rhs;
      });
      return;
    case PredicateCondition::kLessThanEquals:
      functor([](const auto& lhs, const auto& rhs) {
        return lhs <= rhs;
      });
      return;
    case PredicateCondition::kGreaterThan:
      functor([](const auto& lhs, const auto& rhs) {
        return lhs > rhs;
      });
      return;
    case PredicateCondition::kGreaterThanEquals:
      functor([](const auto& lhs, const auto& rhs) {
        return lhs >= rhs;
      });
      return;
    default:
      Fail("No comparator for this condition");
  }
}

/// Match mask of one 128-value block; bit i corresponds to offset base + i.
using BlockMask = std::array<uint64_t, 2>;

/// Appends `base + bit` for every set bit to `matches`, ascending.
inline void EmitBlockMask(const BlockMask& mask, size_t base, std::vector<ChunkOffset>& matches) {
  for (auto word_index = size_t{0}; word_index < 2; ++word_index) {
    auto word = mask[word_index];
    const auto word_base = base + word_index * 64;
    while (word != 0) {
      matches.push_back(static_cast<ChunkOffset>(word_base + static_cast<size_t>(std::countr_zero(word))));
      word &= word - 1;
    }
  }
}

/// Evaluates `predicate(index)` for every index in [0, count) into a match
/// mask. The full-block case runs two fixed 64-iteration shift-or loops with
/// no data-dependent branch.
template <typename Predicate>
BlockMask BuildBlockMaskAt(size_t count, const Predicate& predicate) {
  auto mask = BlockMask{};
  if (count == BaseCompressedVector::kDecodeBlockSize) {
    for (auto word_index = size_t{0}; word_index < 2; ++word_index) {
      auto word = uint64_t{0};
      for (auto bit = size_t{0}; bit < 64; ++bit) {
        word |= static_cast<uint64_t>(predicate(word_index * 64 + bit)) << bit;
      }
      mask[word_index] = word;
    }
  } else {
    for (auto index = size_t{0}; index < count; ++index) {
      mask[index >> 6] |= static_cast<uint64_t>(predicate(index)) << (index & 63);
    }
  }
  return mask;
}

/// Evaluates `predicate(element)` over `count` elements into a match mask.
template <typename ElementT, typename Predicate>
BlockMask BuildBlockMask(const ElementT* elements, size_t count, const Predicate& predicate) {
  return BuildBlockMaskAt(count, [&](size_t index) {
    return predicate(elements[index]);
  });
}

/// Clears mask bits of NULL positions (`nulls` as stored by
/// FrameOfReferenceSegment: empty means no NULLs).
inline void ApplyNullMask(BlockMask& mask, const std::vector<bool>& nulls, size_t base, size_t count) {
  if (nulls.empty()) {
    return;
  }
  auto keep = BlockMask{};
  for (auto index = size_t{0}; index < count; ++index) {
    keep[index >> 6] |= static_cast<uint64_t>(!nulls[base + index]) << (index & 63);
  }
  mask[0] &= keep[0];
  mask[1] &= keep[1];
}

/// Calls `functor(codes, count, base)` for every 128-row block of the codes
/// at `positions`' chunk offsets (a pos list that references a single chunk
/// of `vector`'s segment): the gather counterpart of ForEachCodeBlock, read
/// through the vector's non-virtual decompressor.
template <typename CompressedVectorT, typename Functor>
void ForEachGatheredCodeBlock(const CompressedVectorT& vector, const RowIDPosList& positions,
                              const Functor& functor) {
  constexpr auto kBlock = BaseCompressedVector::kDecodeBlockSize;
  const auto decompressor = vector.CreateDecompressor();
  const auto size = positions.size();
  alignas(64) std::array<uint32_t, kBlock> buffer;
  for (auto base = size_t{0}; base < size; base += kBlock) {
    const auto count = std::min(kBlock, size - base);
    for (auto index = size_t{0}; index < count; ++index) {
      buffer[index] = decompressor.Get(positions[base + index].chunk_offset);
    }
    functor(buffer.data(), count, base);
  }
}

/// Unencoded kernel: raw values plus byte-per-row null flags (nullptr when
/// the segment is not nullable). `size` must be the segment's published row
/// count, which may trail the vector's capacity on the mutable tail chunk.
template <typename T, typename Predicate>
void ScanDenseValues(const T* values, const uint8_t* nulls, size_t size, const Predicate& predicate,
                     std::vector<ChunkOffset>& matches) {
  constexpr auto kBlock = BaseCompressedVector::kDecodeBlockSize;
  for (auto base = size_t{0}; base < size; base += kBlock) {
    const auto count = std::min(kBlock, size - base);
    auto mask = BuildBlockMask(values + base, count, predicate);
    if (nulls != nullptr) {
      const auto keep = BuildBlockMask(nulls + base, count, [](uint8_t is_null) {
        return is_null == 0;
      });
      mask[0] &= keep[0];
      mask[1] &= keep[1];
    }
    EmitBlockMask(mask, base, matches);
  }
}

/// Frame-of-reference kernel: unpack a block of offsets, rebase onto the
/// frame minimum (2048 is a multiple of 128, so each block has exactly one
/// frame), compare, and mask nulls.
template <typename T, typename CompressedVectorT, typename Predicate>
void ScanFrameOfReferenceSegment(const FrameOfReferenceSegment<T>& segment, const CompressedVectorT& offset_values,
                                 const Predicate& predicate, std::vector<ChunkOffset>& matches) {
  static_assert(FrameOfReferenceSegment<T>::kBlockSize % BaseCompressedVector::kDecodeBlockSize == 0);
  const auto& minima = segment.block_minima();
  const auto& nulls = segment.null_values();
  alignas(64) std::array<T, BaseCompressedVector::kDecodeBlockSize> values;
  ForEachCodeBlock(offset_values, [&](const auto* codes, size_t count, size_t base) {
    const auto minimum = minima[base / FrameOfReferenceSegment<T>::kBlockSize];
    for (auto index = size_t{0}; index < count; ++index) {
      values[index] = minimum + static_cast<T>(codes[index]);
    }
    auto mask = BuildBlockMask(values.data(), count, predicate);
    ApplyNullMask(mask, nulls, base, count);
    EmitBlockMask(mask, base, matches);
  });
}

/// Run-length kernel: one predicate evaluation per run, then the whole run's
/// offset range is emitted — sequential decode cost proportional to the run
/// count, not the row count.
template <typename T, typename Predicate>
void ScanRunLengthSegment(const RunLengthSegment<T>& segment, const Predicate& predicate,
                          std::vector<ChunkOffset>& matches) {
  const auto& values = segment.values();
  const auto& run_is_null = segment.run_is_null();
  const auto& end_positions = segment.end_positions();
  auto start = ChunkOffset{0};
  for (auto run = size_t{0}; run < values.size(); ++run) {
    const auto end = end_positions[run];
    if (!run_is_null[run] && predicate(values[run])) {
      for (auto offset = start; offset <= end; ++offset) {
        matches.push_back(offset);
      }
    }
    start = end + 1;
  }
}

}  // namespace hyrise

#endif  // HYRISE_SRC_OPERATORS_SCAN_KERNELS_HPP_
