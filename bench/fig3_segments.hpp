#ifndef HYRISE_BENCH_FIG3_SEGMENTS_HPP_
#define HYRISE_BENCH_FIG3_SEGMENTS_HPP_

/// The data of both Figure 3 benches: 1 M integers in runs of eight over a
/// domain of 1024 values (dictionary/RLE-friendly, within FoR's small-offset
/// sweet spot), encoded and stored as the only chunk of a one-column table,
/// and sorted random positions into it.

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "storage/chunk_encoder.hpp"
#include "storage/reference_segment.hpp"
#include "storage/segment_decoder.hpp"
#include "storage/table.hpp"
#include "storage/value_segment.hpp"

namespace hyrise {

inline constexpr size_t kFig3ValueCount = 1'000'000;

inline std::shared_ptr<Table> MakeFig3Table(const SegmentEncodingSpec& spec) {
  auto rng = std::mt19937{42};
  auto values = std::vector<int32_t>(kFig3ValueCount);
  auto current = int32_t{0};
  for (auto index = size_t{0}; index < kFig3ValueCount; ++index) {
    if (index % 8 == 0) {
      current = static_cast<int32_t>(rng() % 1024) + 1'000'000;
    }
    values[index] = current;
  }
  auto segment = std::make_shared<ValueSegment<int32_t>>(std::move(values));
  auto table = std::make_shared<Table>(TableColumnDefinitions{{"a", DataType::kInt}}, TableType::kData,
                                       static_cast<ChunkOffset>(kFig3ValueCount));
  table->AppendChunk({ChunkEncoder::EncodeSegment(segment, DataType::kInt, spec)});
  return table;
}

/// `count` random chunk offsets, sorted like a scan's output.
inline std::vector<ChunkOffset> MakeFig3Positions(size_t count) {
  auto rng = std::mt19937{7};
  auto positions = std::vector<ChunkOffset>(count);
  for (auto& position : positions) {
    position = static_cast<ChunkOffset>(rng() % kFig3ValueCount);
  }
  std::sort(positions.begin(), positions.end());
  return positions;
}

/// A scan's output over the table's only chunk: a reference segment whose
/// single-chunk pos list holds `positions`.
inline ReferenceSegment MakeFig3Reference(const std::shared_ptr<Table>& table,
                                          const std::vector<ChunkOffset>& positions) {
  auto pos_list = std::make_shared<RowIDPosList>();
  pos_list->reserve(positions.size());
  for (const auto position : positions) {
    pos_list->push_back(RowID{ChunkID{0}, position});
  }
  pos_list->GuaranteeSingleChunk();
  return ReferenceSegment{table, ColumnID{0}, std::move(pos_list)};
}

/// Positional materialization through the engine's decoder: the gather a
/// scan's output gets (paper §2.3's with_iterators(position_list, ...)).
inline int64_t SumPositional(const ReferenceSegment& reference) {
  const auto decoded = DecodeSegmentAs<int32_t>(reference);
  auto sum = int64_t{0};
  for (auto row = size_t{0}; row < decoded.values.size(); ++row) {
    if (!decoded.IsNull(row)) {
      sum += decoded.values[row];
    }
  }
  return sum;
}

inline std::string Fig3Label(const SegmentEncodingSpec& spec) {
  return std::string{EncodingTypeToString(spec.encoding_type)} + "/" +
         VectorCompressionTypeToString(spec.vector_compression);
}

}  // namespace hyrise

#endif  // HYRISE_BENCH_FIG3_SEGMENTS_HPP_
