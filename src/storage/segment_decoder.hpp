#ifndef HYRISE_SRC_STORAGE_SEGMENT_DECODER_HPP_
#define HYRISE_SRC_STORAGE_SEGMENT_DECODER_HPP_

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "storage/dictionary_segment.hpp"
#include "storage/frame_of_reference_segment.hpp"
#include "storage/pos_list.hpp"
#include "storage/reference_segment.hpp"
#include "storage/run_length_segment.hpp"
#include "storage/table.hpp"
#include "storage/value_segment.hpp"
#include "storage/vector_compression/base_compressed_vector.hpp"
#include "storage/vector_compression/compressed_vector_utils.hpp"

namespace hyrise {

/// The rows a decode reads from one stored segment: entry i of `count` is
/// read at chunk offset OffsetAt(i) and written to row RowAt(i) of the
/// output. Each shape is its own type, so every read loop is compiled for it.

/// Every row of a stored segment, in order.
struct AllRows {
  size_t count;

  size_t OffsetAt(size_t index) const {
    return index;
  }

  size_t RowAt(size_t index) const {
    return index;
  }
};

/// Entries of a pos list. Not grouped (a scan's single-chunk list): entry i
/// is position i. Grouped (one chunk's share of a join's multi-chunk list):
/// entry i is position `rows[i]`. Either way a position's index is its row.
template <bool kGrouped>
struct PosListRows {
  const RowIDPosList* positions;
  const uint32_t* rows;  // Unused when not grouped.
  size_t count;

  size_t OffsetAt(size_t index) const {
    return (*positions)[RowAt(index)].chunk_offset;
  }

  size_t RowAt(size_t index) const {
    if constexpr (kGrouped) {
      return rows[index];
    } else {
      return index;
    }
  }
};

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

/// Calls `functor(codes, count, base)` for every 128-entry block of `rows`,
/// where code i of a block is the code at `rows.OffsetAt(base + i)`. All rows
/// are read through ForEachCodeBlock; other shapes are gathered through the
/// vector's non-virtual decompressor.
template <typename CompressedVectorT, typename Rows, typename Functor>
void ForEachGatheredCodeBlock(const CompressedVectorT& vector, const Rows& rows, const Functor& functor) {
  if constexpr (std::is_same_v<Rows, AllRows>) {
    ForEachCodeBlock(vector, functor);
  } else {
    constexpr auto kBlock = BaseCompressedVector::kDecodeBlockSize;
    const auto decompressor = vector.CreateDecompressor();
    alignas(64) std::array<uint32_t, kBlock> buffer;
    for (auto base = size_t{0}; base < rows.count; base += kBlock) {
      const auto count = std::min(kBlock, rows.count - base);
      for (auto index = size_t{0}; index < count; ++index) {
        buffer[index] = decompressor.Get(rows.OffsetAt(base + index));
      }
      functor(buffer.data(), count, base);
    }
  }
}

/// A dictionary-encoded column as a scan sees it: a stored DictionarySegment
/// (`positions` is nullptr: all its rows), or a ReferenceSegment whose pos
/// list references a single chunk of one (row i is the code at the pos
/// list's i-th chunk offset). The scan's dictionary kernels consume this
/// view, so a scan following a scan still compares value IDs (paper §2.3).
template <typename T>
struct DictionaryView {
  const DictionarySegment<T>* segment{nullptr};
  const RowIDPosList* positions{nullptr};
  std::shared_ptr<const AbstractSegment> referenced;  // Keeps a referenced segment alive.
};

template <typename T>
std::optional<DictionaryView<T>> ViewDictionary(const AbstractSegment& segment) {
  if (const auto* dictionary_segment = dynamic_cast<const DictionarySegment<T>*>(&segment)) {
    return DictionaryView<T>{dictionary_segment, nullptr, nullptr};
  }
  const auto* reference_segment = dynamic_cast<const ReferenceSegment*>(&segment);
  if (!reference_segment) {
    return std::nullopt;
  }
  const auto& positions = *reference_segment->pos_list();
  if (!positions.ReferencesSingleChunk() || positions.empty()) {
    return std::nullopt;  // Join outputs and other multi-chunk lists are decoded (DecodeSegment).
  }
  auto referenced = std::shared_ptr<const AbstractSegment>{reference_segment->referenced_table()
                                                               ->GetChunk(positions.CommonChunkId())
                                                               ->GetSegment(reference_segment->referenced_column_id())};
  const auto* dictionary_segment = dynamic_cast<const DictionarySegment<T>*>(referenced.get());
  if (!dictionary_segment) {
    return std::nullopt;
  }
  return DictionaryView<T>{dictionary_segment, &positions, std::move(referenced)};
}

/// The view's code-block source: `functor(codes, count, base)` per 128 rows,
/// read in place or unpacked from a stored segment, or gathered at the pos
/// list's chunk offsets.
template <typename T, typename Functor>
void ForEachViewCodeBlock(const DictionaryView<T>& view, const Functor& functor) {
  ResolveCompressedVector(view.segment->attribute_vector(), [&](const auto& vector) {
    if (view.positions) {
      ForEachGatheredCodeBlock(vector, PosListRows<false>{view.positions, nullptr, view.positions->size()}, functor);
    } else {
      ForEachCodeBlock(vector, functor);
    }
  });
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

namespace detail {

/// Decodes `rows` of the stored segment `segment` (a T column): each value,
/// cast to K, goes to `values[base + row]`, each NULL row to `null_rows` as
/// `base + row`. One branch per encoding; compressed codes are read by
/// ForEachGatheredCodeBlock, so dictionary decoding and the scans' dictionary
/// kernels share one code reader. The loops read through local pointers:
/// `null_rows.push_back` may reallocate, so anything reached through a
/// reference or a lambda capture would be reloaded on every row.
template <typename K, typename T, typename Rows>
void DecodeRows(const AbstractSegment& segment, const Rows& rows, size_t base, std::vector<K>& values,
                std::vector<size_t>& null_rows) {
  auto* const output = values.data() + base;

  if (const auto* value_segment = dynamic_cast<const ValueSegment<T>*>(&segment)) {
    const auto* const raw = value_segment->values().data();
    if (value_segment->null_values().empty()) {
      for (auto index = size_t{0}; index < rows.count; ++index) {
        output[rows.RowAt(index)] = static_cast<K>(raw[rows.OffsetAt(index)]);
      }
      return;
    }
    const auto* const nulls = value_segment->null_values().data();
    const auto local_rows = rows;
    for (auto index = size_t{0}; index < local_rows.count; ++index) {
      const auto offset = local_rows.OffsetAt(index);
      if (nulls[offset] != 0) {
        null_rows.push_back(base + local_rows.RowAt(index));
      } else {
        output[local_rows.RowAt(index)] = static_cast<K>(raw[offset]);
      }
    }
    return;
  }

  if (const auto* dictionary_segment = dynamic_cast<const DictionarySegment<T>*>(&segment)) {
    const auto* const dictionary = dictionary_segment->dictionary().data();
    const auto null_id = dictionary_segment->null_value_id();
    ResolveCompressedVector(dictionary_segment->attribute_vector(), [&](const auto& vector) {
      ForEachGatheredCodeBlock(vector, rows, [&](const auto* codes, size_t count, size_t block_base) {
        const auto block_rows = rows;
        const auto* const block_dictionary = dictionary;
        const auto block_null_id = null_id;
        auto* const block_output = output;
        for (auto index = size_t{0}; index < count; ++index) {
          const auto code = static_cast<uint32_t>(codes[index]);
          const auto row = block_rows.RowAt(block_base + index);
          if (code == block_null_id) {
            null_rows.push_back(base + row);
          } else {
            block_output[row] = static_cast<K>(block_dictionary[code]);
          }
        }
      });
    });
    return;
  }

  if constexpr (std::is_same_v<T, int32_t> || std::is_same_v<T, int64_t>) {
    if (const auto* for_segment = dynamic_cast<const FrameOfReferenceSegment<T>*>(&segment)) {
      const auto* const minima = for_segment->block_minima().data();
      const auto& nulls = for_segment->null_values();
      ResolveCompressedVector(for_segment->offset_values(), [&](const auto& vector) {
        ForEachGatheredCodeBlock(vector, rows, [&](const auto* codes, size_t count, size_t block_base) {
          const auto block_rows = rows;
          const auto* const block_minima = minima;
          auto* const block_output = output;
          if (nulls.empty()) {
            for (auto index = size_t{0}; index < count; ++index) {
              const auto offset = block_rows.OffsetAt(block_base + index);
              block_output[block_rows.RowAt(block_base + index)] = static_cast<K>(
                  block_minima[offset / FrameOfReferenceSegment<T>::kBlockSize] + static_cast<T>(codes[index]));
            }
            return;
          }
          for (auto index = size_t{0}; index < count; ++index) {
            const auto offset = block_rows.OffsetAt(block_base + index);
            const auto row = block_rows.RowAt(block_base + index);
            if (nulls[offset]) {
              null_rows.push_back(base + row);
            } else {
              block_output[row] = static_cast<K>(block_minima[offset / FrameOfReferenceSegment<T>::kBlockSize] +
                                                 static_cast<T>(codes[index]));
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
    if constexpr (std::is_same_v<Rows, AllRows>) {
      // Run-wise: one value per run, written over the run's rows.
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
          std::fill(output + start, output + end + 1, value);
        }
        start = end + 1;
      }
    } else {
      for (auto index = size_t{0}; index < rows.count; ++index) {
        const auto run = run_length_segment->RunIndexOf(static_cast<ChunkOffset>(rows.OffsetAt(index)));
        if (run_is_null[run]) {
          null_rows.push_back(base + rows.RowAt(index));
        } else {
          output[rows.RowAt(index)] = static_cast<K>(run_values[run]);
        }
      }
    }
    return;
  }

  Fail("Unknown segment type in DecodeSegment");
}

/// A reference segment: each referenced chunk's segment is resolved once and
/// read by its encoding's branch of DecodeRows. A single-chunk pos list is
/// one gather. A multi-chunk pos list is grouped by chunk first — one
/// counting-sort pass writes the pos-list indices of each chunk's rows
/// contiguously (one uint32 per row, freed on return) — and each group is
/// scattered back to its pos-list rows. kNullRowId padding rows are NULL.
template <typename K, typename T>
void DecodeReferenceSegment(const ReferenceSegment& segment, size_t base, std::vector<K>& values,
                            std::vector<size_t>& null_rows) {
  const auto& positions = *segment.pos_list();
  const auto& table = *segment.referenced_table();
  const auto column_id = segment.referenced_column_id();
  if (positions.empty()) {
    return;
  }
  if (positions.ReferencesSingleChunk()) {
    const auto referenced = table.GetChunk(positions.CommonChunkId())->GetSegment(column_id);
    DecodeRows<K, T>(*referenced, PosListRows<false>{&positions, nullptr, positions.size()}, base, values,
                     null_rows);
    return;
  }

  // Bucket `chunk_count` collects the padding rows.
  const auto chunk_count = static_cast<size_t>(table.chunk_count());
  const auto bucket_of = [&](const RowID& row_id) {
    return row_id == kNullRowId ? chunk_count : static_cast<size_t>(row_id.chunk_id);
  };
  auto bucket_ends = std::vector<uint32_t>(chunk_count + 1, 0);
  for (const auto& row_id : positions) {
    ++bucket_ends[bucket_of(row_id)];
  }
  auto total = uint32_t{0};
  for (auto& bucket_end : bucket_ends) {
    total += bucket_end;
    bucket_end = total;
  }
  // Filled back to front, so each bucket ends up in pos-list order and each
  // bucket_ends entry becomes its bucket's start.
  auto grouped = std::vector<uint32_t>(positions.size());
  for (auto row = positions.size(); row-- > 0;) {
    grouped[--bucket_ends[bucket_of(positions[row])]] = static_cast<uint32_t>(row);
  }

  for (auto chunk_id = size_t{0}; chunk_id < chunk_count; ++chunk_id) {
    const auto begin = bucket_ends[chunk_id];
    const auto end = bucket_ends[chunk_id + 1];
    if (begin == end) {
      continue;
    }
    const auto referenced = table.GetChunk(static_cast<ChunkID>(chunk_id))->GetSegment(column_id);
    DecodeRows<K, T>(*referenced, PosListRows<true>{&positions, grouped.data() + begin, end - begin}, base,
                     values, null_rows);
  }
  for (auto index = static_cast<size_t>(bucket_ends[chunk_count]); index < positions.size(); ++index) {
    null_rows.push_back(base + grouped[index]);
  }
}

}  // namespace detail

/// The segment -> typed values decoder (DESIGN.md §5d), for stored and
/// reference segments alike. Reads `segment` (a T column) and writes each
/// value, cast to K, to `values[base + row]`; NULL rows are appended to
/// `null_rows` as `base + row`, in no particular order. A reference
/// segment's row i is its pos list's entry i. `values` must already hold
/// `base + segment.size()` entries; a mutable value segment that has grown
/// since is read only that far.
template <typename K, typename T>
void DecodeSegment(const AbstractSegment& segment, size_t base, std::vector<K>& values,
                   std::vector<size_t>& null_rows) {
  if (const auto* reference_segment = dynamic_cast<const ReferenceSegment*>(&segment)) {
    detail::DecodeReferenceSegment<K, T>(*reference_segment, base, values, null_rows);
    return;
  }
  const auto capacity = values.size() > base ? values.size() - base : size_t{0};
  detail::DecodeRows<K, T>(segment, AllRows{std::min(static_cast<size_t>(segment.size()), capacity)}, base, values,
                           null_rows);
}

/// DecodeSegment with the segment's type resolved at run time: decodes it as
/// K, its own type or any arithmetic type when the segment is arithmetic
/// too. Fails for string as number or vice versa.
template <typename K>
void DecodeSegmentAs(const AbstractSegment& segment, size_t base, std::vector<K>& values,
                     std::vector<size_t>& null_rows) {
  ResolveDataType(segment.data_type(), [&](auto type_tag) {
    using T = decltype(type_tag);
    if constexpr (std::is_same_v<T, K> || (std::is_arithmetic_v<T> && std::is_arithmetic_v<K>)) {
      DecodeSegment<K, T>(segment, base, values, null_rows);
    } else {
      Fail("Segment type cannot be decoded as the requested type");
    }
  });
}

/// Decodes the first `row_count` rows of a segment as K (see above): all of
/// them, or as many as its chunk had when a mutable value segment has grown
/// since.
template <typename K>
MaterializedColumn<K> DecodeSegmentAs(const AbstractSegment& segment, size_t row_count) {
  auto decoded = MaterializedColumn<K>{};
  decoded.values.resize(row_count);
  auto null_rows = std::vector<size_t>{};
  DecodeSegmentAs<K>(segment, 0, decoded.values, null_rows);
  decoded.MarkNulls(null_rows);
  return decoded;
}

/// Decodes a whole segment as K (see above).
template <typename K>
MaterializedColumn<K> DecodeSegmentAs(const AbstractSegment& segment) {
  return DecodeSegmentAs<K>(segment, segment.size());
}

}  // namespace hyrise

#endif  // HYRISE_SRC_STORAGE_SEGMENT_DECODER_HPP_
