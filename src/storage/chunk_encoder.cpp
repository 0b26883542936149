#include "storage/chunk_encoder.hpp"

#include <algorithm>
#include <limits>

#include "scheduler/job_helpers.hpp"
#include "storage/dictionary_segment.hpp"
#include "storage/frame_of_reference_segment.hpp"
#include "storage/run_length_segment.hpp"
#include "storage/segment_decoder.hpp"
#include "storage/table.hpp"
#include "storage/value_segment.hpp"
#include "storage/vector_compression/compressed_vector_utils.hpp"
#include "utils/assert.hpp"

namespace hyrise {

namespace {

template <typename T>
std::shared_ptr<AbstractSegment> EncodeDictionary(const MaterializedColumn<T>& column,
                                                  VectorCompressionType vector_compression) {
  const auto& values = column.values;
  auto dictionary = std::vector<T>{};
  dictionary.reserve(values.size());
  for (auto index = size_t{0}; index < values.size(); ++index) {
    if (!column.IsNull(index)) {
      dictionary.push_back(values[index]);
    }
  }
  std::sort(dictionary.begin(), dictionary.end());
  dictionary.erase(std::unique(dictionary.begin(), dictionary.end()), dictionary.end());
  dictionary.shrink_to_fit();

  const auto null_value_id = static_cast<uint32_t>(dictionary.size());
  auto codes = std::vector<uint32_t>(values.size());
  for (auto index = size_t{0}; index < values.size(); ++index) {
    if (column.IsNull(index)) {
      codes[index] = null_value_id;
    } else {
      const auto iter = std::lower_bound(dictionary.begin(), dictionary.end(), values[index]);
      codes[index] = static_cast<uint32_t>(std::distance(dictionary.begin(), iter));
    }
  }

  auto attribute_vector = CompressVector(codes, vector_compression, null_value_id);
  return std::make_shared<DictionarySegment<T>>(std::make_shared<const std::vector<T>>(std::move(dictionary)),
                                                std::move(attribute_vector));
}

template <typename T>
std::shared_ptr<AbstractSegment> EncodeRunLength(const MaterializedColumn<T>& column) {
  const auto& values = column.values;
  auto run_values = std::make_shared<std::vector<T>>();
  auto run_is_null = std::make_shared<std::vector<bool>>();
  auto end_positions = std::make_shared<std::vector<ChunkOffset>>();

  for (auto index = size_t{0}; index < values.size(); ++index) {
    const auto is_null = column.IsNull(index);
    const auto starts_new_run = run_values->empty() || is_null != run_is_null->back() ||
                                (!is_null && values[index] != run_values->back());
    if (starts_new_run) {
      run_values->push_back(is_null ? T{} : values[index]);
      run_is_null->push_back(is_null);
      end_positions->push_back(static_cast<ChunkOffset>(index));
    } else {
      end_positions->back() = static_cast<ChunkOffset>(index);
    }
  }

  return std::make_shared<RunLengthSegment<T>>(std::move(run_values), std::move(run_is_null),
                                               std::move(end_positions));
}

template <typename T>
std::shared_ptr<AbstractSegment> EncodeFrameOfReference(const MaterializedColumn<T>& column,
                                                        VectorCompressionType vector_compression) {
  const auto& values = column.values;
  constexpr auto kBlockSize = static_cast<size_t>(FrameOfReferenceSegment<T>::kBlockSize);

  const auto block_count = (values.size() + kBlockSize - 1) / kBlockSize;
  auto block_minima = std::vector<T>(block_count);
  auto offsets = std::vector<uint32_t>(values.size());
  auto max_offset = uint32_t{0};

  for (auto block = size_t{0}; block < block_count; ++block) {
    const auto begin = block * kBlockSize;
    const auto end = std::min(begin + kBlockSize, values.size());

    auto minimum = std::numeric_limits<T>::max();
    auto has_value = false;
    for (auto index = begin; index < end; ++index) {
      if (!column.IsNull(index)) {
        minimum = std::min(minimum, values[index]);
        has_value = true;
      }
    }
    if (!has_value) {
      minimum = T{0};
    }
    block_minima[block] = minimum;

    for (auto index = begin; index < end; ++index) {
      if (column.IsNull(index)) {
        offsets[index] = 0;
        continue;
      }
      const auto delta = static_cast<uint64_t>(values[index]) - static_cast<uint64_t>(minimum);
      if (delta > std::numeric_limits<uint32_t>::max()) {
        return nullptr;  // Offsets do not fit; caller falls back to dictionary.
      }
      offsets[index] = static_cast<uint32_t>(delta);
      max_offset = std::max(max_offset, offsets[index]);
    }
  }

  auto offset_vector = CompressVector(offsets, vector_compression, max_offset);
  return std::make_shared<FrameOfReferenceSegment<T>>(std::move(block_minima), std::move(offset_vector),
                                                      column.nulls);
}

}  // namespace

std::shared_ptr<AbstractSegment> ChunkEncoder::EncodeSegment(const std::shared_ptr<AbstractSegment>& segment,
                                                             DataType data_type, const SegmentEncodingSpec& spec) {
  auto result = std::shared_ptr<AbstractSegment>{};
  ResolveDataType(data_type, [&](auto type_tag) {
    using ColumnDataType = decltype(type_tag);
    auto column = DecodeSegmentAs<ColumnDataType>(*segment);

    switch (spec.encoding_type) {
      case EncodingType::kUnencoded:
        result = std::make_shared<ValueSegment<ColumnDataType>>(std::move(column.values), std::move(column.nulls));
        return;
      case EncodingType::kDictionary:
        result = EncodeDictionary(column, spec.vector_compression);
        return;
      case EncodingType::kRunLength:
        result = EncodeRunLength(column);
        return;
      case EncodingType::kFrameOfReference: {
        if constexpr (std::is_same_v<ColumnDataType, int32_t> || std::is_same_v<ColumnDataType, int64_t>) {
          result = EncodeFrameOfReference(column, spec.vector_compression);
          if (result) {
            return;
          }
        }
        // Unsupported type or offsets out of range: dictionary is the
        // general-purpose fallback.
        result = EncodeDictionary(column, spec.vector_compression);
        return;
      }
    }
    Fail("Unhandled EncodingType");
  });
  return result;
}

void ChunkEncoder::EncodeChunk(const std::shared_ptr<Chunk>& chunk, const std::vector<DataType>& data_types,
                               const std::vector<SegmentEncodingSpec>& specs) {
  Assert(!chunk->IsMutable(), "Only immutable chunks can be encoded");
  Assert(data_types.size() == chunk->column_count() && specs.size() == chunk->column_count(),
         "EncodeChunk: wrong spec count");
  for (auto column_id = ColumnID{0}; column_id < chunk->column_count(); ++column_id) {
    const auto encoded = EncodeSegment(chunk->GetSegment(column_id), data_types[column_id], specs[column_id]);
    chunk->ReplaceSegment(column_id, encoded);
  }
}

void ChunkEncoder::EncodeAllChunks(const std::shared_ptr<Table>& table, const SegmentEncodingSpec& spec) {
  EncodeAllChunks(table, std::vector<SegmentEncodingSpec>(table->column_count(), spec));
}

void ChunkEncoder::EncodeAllChunks(const std::shared_ptr<Table>& table,
                                   const std::vector<SegmentEncodingSpec>& specs) {
  auto data_types = std::vector<DataType>{};
  data_types.reserve(table->column_count());
  for (auto column_id = ColumnID{0}; column_id < table->column_count(); ++column_id) {
    data_types.push_back(table->column_data_type(column_id));
  }
  // One task per chunk (paper §2.9): each job finalizes and re-encodes only
  // its own chunk, so no two tasks touch shared state.
  const auto chunk_count = table->chunk_count();
  auto jobs = std::vector<std::shared_ptr<AbstractTask>>{};
  jobs.reserve(chunk_count);
  for (auto chunk_id = ChunkID{0}; chunk_id < chunk_count; ++chunk_id) {
    const auto chunk = table->GetChunk(chunk_id);
    jobs.push_back(std::make_shared<JobTask>([chunk, &data_types, &specs] {
      chunk->Finalize();
      EncodeChunk(chunk, data_types, specs);
    }));
  }
  SpawnAndWaitForTasks(jobs);
}

}  // namespace hyrise
