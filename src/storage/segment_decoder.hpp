#ifndef HYRISE_SRC_STORAGE_SEGMENT_DECODER_HPP_
#define HYRISE_SRC_STORAGE_SEGMENT_DECODER_HPP_

#include <algorithm>
#include <array>
#include <type_traits>
#include <vector>

#include "storage/dictionary_segment.hpp"
#include "storage/frame_of_reference_segment.hpp"
#include "storage/run_length_segment.hpp"
#include "storage/segment_iterables/segment_iterate.hpp"
#include "storage/value_segment.hpp"
#include "storage/vector_compression/base_compressed_vector.hpp"
#include "storage/vector_compression/compressed_vector_utils.hpp"

namespace hyrise {

/// Calls `functor(codes, count, base)` for every 128-code block of a
/// statically resolved compressed vector. Fixed-width vectors are read in
/// place (the functor sees uint8/16/32 elements); bit-packed vectors are
/// unpacked block-wise through the SIMD kernels.
template <typename CompressedVectorT, typename Functor>
void ForEachCodeBlock(const CompressedVectorT& vector, const Functor& functor) {
  constexpr auto kBlock = BaseCompressedVector::kDecodeBlockSize;
  const auto size = vector.size();
  if constexpr (requires { vector.data(); }) {
    const auto* codes = vector.data().data();
    for (auto base = size_t{0}; base < size; base += kBlock) {
      functor(codes + base, std::min(kBlock, size - base), base);
    }
  } else {
    alignas(64) std::array<uint32_t, kBlock> buffer;
    const auto block_count = (size + kBlock - 1) / kBlock;
    for (auto block = size_t{0}; block < block_count; ++block) {
      const auto count = vector.DecodeBlockInto(block, buffer.data());
      functor(buffer.data(), count, block * kBlock);
    }
  }
}

/// A decoded column: values plus null flags, indexed by row (within one
/// segment, or counting across a table's chunks). `nulls` is empty when no
/// row is NULL.
template <typename T>
struct MaterializedColumn {
  std::vector<T> values;
  std::vector<bool> nulls;

  bool IsNull(size_t row) const {
    return !nulls.empty() && nulls[row];
  }

  /// Sets the null flags of `null_rows`.
  void MarkNulls(const std::vector<size_t>& null_rows) {
    if (!null_rows.empty() && nulls.empty()) {
      nulls.assign(values.size(), false);
    }
    for (const auto row : null_rows) {
      nulls[row] = true;
    }
  }
};

/// The segment -> typed values decoder (DESIGN.md §5d). Reads `segment` (a T
/// column) and writes each value, cast to K, to `values[base + offset]`;
/// NULL rows are appended to `null_rows` as `base + offset`, in ascending
/// offset order. `values` must already hold `base + segment.size()` entries.
///
/// Value segments copy their backing vector, dictionary and frame-of-
/// reference segments decode the compressed vector 128 codes at a time and
/// gather/rebase, run-length segments expand run-wise; reference segments go
/// through SegmentIterate.
template <typename K, typename T>
void DecodeSegment(const AbstractSegment& segment, size_t base, std::vector<K>& values,
                   std::vector<size_t>& null_rows) {
  if (const auto* value_segment = dynamic_cast<const ValueSegment<T>*>(&segment)) {
    // A mutable segment may have grown since `values` was sized.
    const auto capacity = values.size() > base ? values.size() - base : size_t{0};
    const auto size = std::min(static_cast<size_t>(value_segment->size()), capacity);
    const auto& raw = value_segment->values();
    const auto& nulls = value_segment->null_values();
    for (auto offset = size_t{0}; offset < size; ++offset) {
      if (!nulls.empty() && nulls[offset] != 0) {
        null_rows.push_back(base + offset);
      } else {
        values[base + offset] = static_cast<K>(raw[offset]);
      }
    }
    return;
  }

  if (const auto* dictionary_segment = dynamic_cast<const DictionarySegment<T>*>(&segment)) {
    const auto& dictionary = dictionary_segment->dictionary();
    const auto null_id = dictionary_segment->null_value_id();
    ResolveCompressedVector(dictionary_segment->attribute_vector(), [&](const auto& vector) {
      ForEachCodeBlock(vector, [&](const auto* codes, size_t count, size_t block_base) {
        for (auto index = size_t{0}; index < count; ++index) {
          const auto code = static_cast<uint32_t>(codes[index]);
          if (code == null_id) {
            null_rows.push_back(base + block_base + index);
          } else {
            values[base + block_base + index] = static_cast<K>(dictionary[code]);
          }
        }
      });
    });
    return;
  }

  if constexpr (std::is_same_v<T, int32_t> || std::is_same_v<T, int64_t>) {
    if (const auto* for_segment = dynamic_cast<const FrameOfReferenceSegment<T>*>(&segment)) {
      const auto& minima = for_segment->block_minima();
      const auto& nulls = for_segment->null_values();
      ResolveCompressedVector(for_segment->offset_values(), [&](const auto& vector) {
        ForEachCodeBlock(vector, [&](const auto* codes, size_t count, size_t block_base) {
          const auto minimum = minima[block_base / FrameOfReferenceSegment<T>::kBlockSize];
          for (auto index = size_t{0}; index < count; ++index) {
            if (!nulls.empty() && nulls[block_base + index]) {
              null_rows.push_back(base + block_base + index);
            } else {
              values[base + block_base + index] = static_cast<K>(minimum + static_cast<T>(codes[index]));
            }
          }
        });
      });
      return;
    }
  }

  if (const auto* run_length_segment = dynamic_cast<const RunLengthSegment<T>*>(&segment)) {
    const auto& run_values = run_length_segment->values();
    const auto& run_is_null = run_length_segment->run_is_null();
    const auto& end_positions = run_length_segment->end_positions();
    auto start = size_t{0};
    for (auto run = size_t{0}; run < run_values.size(); ++run) {
      const auto end = static_cast<size_t>(end_positions[run]);
      if (run_is_null[run]) {
        for (auto offset = start; offset <= end; ++offset) {
          null_rows.push_back(base + offset);
        }
      } else {
        const auto value = static_cast<K>(run_values[run]);
        for (auto offset = start; offset <= end; ++offset) {
          values[base + offset] = value;
        }
      }
      start = end + 1;
    }
    return;
  }

  SegmentIterate<T>(segment, [&](const auto& position) {
    if (position.is_null()) {
      null_rows.push_back(base + position.chunk_offset());
    } else {
      values[base + position.chunk_offset()] = static_cast<K>(position.value());
    }
  });
}

/// Decodes a whole segment as K: its own type, or any arithmetic type when
/// the segment is arithmetic too. Fails for string as number or vice versa.
template <typename K>
MaterializedColumn<K> DecodeSegmentAs(const AbstractSegment& segment) {
  auto decoded = MaterializedColumn<K>{};
  decoded.values.resize(segment.size());
  auto null_rows = std::vector<size_t>{};
  ResolveDataType(segment.data_type(), [&](auto type_tag) {
    using T = decltype(type_tag);
    if constexpr (std::is_same_v<T, K> || (std::is_arithmetic_v<T> && std::is_arithmetic_v<K>)) {
      DecodeSegment<K, T>(segment, 0, decoded.values, null_rows);
    } else {
      Fail("Segment type cannot be decoded as the requested type");
    }
  });
  decoded.MarkNulls(null_rows);
  return decoded;
}

}  // namespace hyrise

#endif  // HYRISE_SRC_STORAGE_SEGMENT_DECODER_HPP_
