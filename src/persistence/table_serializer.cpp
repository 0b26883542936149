#include "persistence/table_serializer.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "operators/validate.hpp"
#include "persistence/binary_format.hpp"
#include "statistics/table_statistics.hpp"
#include "storage/chunk.hpp"
#include "storage/chunk_encoder.hpp"
#include "storage/dictionary_segment.hpp"
#include "storage/frame_of_reference_segment.hpp"
#include "storage/run_length_segment.hpp"
#include "storage/segment_decoder.hpp"
#include "storage/table.hpp"
#include "storage/value_segment.hpp"
#include "storage/vector_compression/compressed_vector_utils.hpp"
#include "utils/failure_injection.hpp"

namespace hyrise::persistence {

namespace {

/// Segment record tags (DESIGN.md §5e). Values are part of the on-disk
/// format; never reorder.
enum class SegmentTag : uint8_t { kValue = 0, kDictionary = 1, kRunLength = 2, kFrameOfReference = 3 };

template <typename T>
void WriteTypedVector(BinaryWriter& writer, const std::vector<T>& values) {
  if constexpr (std::is_same_v<T, std::string>) {
    writer.WriteStringVector(values);
  } else {
    writer.WriteVector(values);
  }
}

template <typename T>
bool ReadTypedVector(BinaryReader& reader, std::vector<T>& out) {
  if constexpr (std::is_same_v<T, std::string>) {
    return reader.ReadStringVector(out);
  } else {
    return reader.ReadVector(out);
  }
}

template <typename T>
void WriteTypedValue(BinaryWriter& writer, const T& value) {
  if constexpr (std::is_same_v<T, std::string>) {
    writer.WriteString(value);
  } else {
    writer.WriteScalar(value);
  }
}

template <typename T>
bool ReadTypedValue(BinaryReader& reader, T& out) {
  if constexpr (std::is_same_v<T, std::string>) {
    return reader.ReadString(out);
  } else {
    return reader.ReadScalar(out);
  }
}

// --- Compressed vectors ------------------------------------------------------

/// Record: u8 tag (CompressedVectorInternalType) + payload. Fixed-width
/// vectors are their raw code array; BitPacking128 is its exact in-memory
/// parts including the trailing guard word, so both directions are memcpys.
void WriteCompressedVector(BinaryWriter& writer, const BaseCompressedVector& vector) {
  writer.WriteScalar<uint8_t>(static_cast<uint8_t>(vector.internal_type()));
  ResolveCompressedVector(vector, [&](const auto& typed) {
    using VectorType = std::decay_t<decltype(typed)>;
    if constexpr (std::is_same_v<VectorType, BitPackingVector>) {
      writer.WriteScalar<uint64_t>(typed.size());
      writer.WriteVector(typed.block_bits());
      writer.WriteVector(typed.block_offsets());
      writer.WriteVector(typed.packed_data());
    } else {
      writer.WriteVector(typed.data());
    }
  });
}

template <typename UnsignedIntType>
std::shared_ptr<const BaseCompressedVector> ReadFixedWidthVector(BinaryReader& reader, uint64_t expected_size) {
  auto data = std::vector<UnsignedIntType>{};
  if (!reader.ReadVector(data)) {
    return nullptr;
  }
  if (data.size() != expected_size) {
    reader.SetError("Corrupt file: attribute vector size mismatch");
    return nullptr;
  }
  return std::make_shared<FixedWidthIntegerVector<UnsignedIntType>>(std::move(data));
}

std::shared_ptr<const BaseCompressedVector> ReadCompressedVector(BinaryReader& reader, uint64_t expected_size) {
  auto tag = uint8_t{0};
  if (!reader.ReadScalar(tag)) {
    return nullptr;
  }
  switch (static_cast<CompressedVectorInternalType>(tag)) {
    case CompressedVectorInternalType::kFixedWidth1Byte:
      return ReadFixedWidthVector<uint8_t>(reader, expected_size);
    case CompressedVectorInternalType::kFixedWidth2Byte:
      return ReadFixedWidthVector<uint16_t>(reader, expected_size);
    case CompressedVectorInternalType::kFixedWidth4Byte:
      return ReadFixedWidthVector<uint32_t>(reader, expected_size);
    case CompressedVectorInternalType::kBitPacking128: {
      auto size = uint64_t{0};
      auto block_bits = std::vector<uint8_t>{};
      auto block_offsets = std::vector<uint32_t>{};
      auto data = std::vector<uint64_t>{};
      if (!reader.ReadScalar(size) || !reader.ReadVector(block_bits) || !reader.ReadVector(block_offsets) ||
          !reader.ReadVector(data)) {
        return nullptr;
      }
      if (size != expected_size || !ValidateBitPackingParts(size, block_bits, block_offsets, data)) {
        reader.SetError("Corrupt file: invalid BitPacking128 layout");
        return nullptr;
      }
      return std::make_shared<BitPackingVector>(size, std::move(block_bits), std::move(block_offsets),
                                                std::move(data));
    }
  }
  reader.SetError("Corrupt file: unknown compressed vector tag " + std::to_string(tag));
  return nullptr;
}

// --- Segment payloads --------------------------------------------------------

/// Value segments are sliced to `row_count`: the chunk may still be mutable
/// with rows appended after the export captured its size.
template <typename T>
void WriteValueSegmentPayload(BinaryWriter& writer, const ValueSegment<T>& segment, ChunkOffset row_count) {
  writer.WriteScalar<uint8_t>(segment.is_nullable() ? 1 : 0);
  const auto& values = segment.values();
  if (values.size() == row_count) {
    WriteTypedVector(writer, values);
  } else {
    const auto slice = std::vector<T>(values.begin(), values.begin() + row_count);
    WriteTypedVector(writer, slice);
  }
  if (segment.is_nullable()) {
    const auto& nulls = segment.null_values();
    auto bits = std::vector<bool>(row_count);
    for (auto offset = ChunkOffset{0}; offset < row_count; ++offset) {
      bits[offset] = nulls[offset] != 0;
    }
    writer.WriteBoolVector(bits);
  }
}

template <typename T>
bool SerializeSegment(BinaryWriter& writer, const AbstractSegment& segment, ChunkOffset row_count) {
  if (const auto* value_segment = dynamic_cast<const ValueSegment<T>*>(&segment)) {
    writer.WriteScalar<uint8_t>(static_cast<uint8_t>(SegmentTag::kValue));
    WriteValueSegmentPayload(writer, *value_segment, row_count);
    return true;
  }
  if (const auto* dictionary_segment = dynamic_cast<const DictionarySegment<T>*>(&segment)) {
    writer.WriteScalar<uint8_t>(static_cast<uint8_t>(SegmentTag::kDictionary));
    WriteTypedVector(writer, dictionary_segment->dictionary());
    WriteCompressedVector(writer, dictionary_segment->attribute_vector());
    return true;
  }
  if (const auto* run_length_segment = dynamic_cast<const RunLengthSegment<T>*>(&segment)) {
    writer.WriteScalar<uint8_t>(static_cast<uint8_t>(SegmentTag::kRunLength));
    WriteTypedVector(writer, run_length_segment->values());
    writer.WriteBoolVector(run_length_segment->run_is_null());
    writer.WriteVector(run_length_segment->end_positions());
    return true;
  }
  if constexpr (std::is_same_v<T, int32_t> || std::is_same_v<T, int64_t>) {
    if (const auto* for_segment = dynamic_cast<const FrameOfReferenceSegment<T>*>(&segment)) {
      writer.WriteScalar<uint8_t>(static_cast<uint8_t>(SegmentTag::kFrameOfReference));
      writer.WriteVector(for_segment->block_minima());
      writer.WriteScalar<uint8_t>(for_segment->null_values().empty() ? 0 : 1);
      if (!for_segment->null_values().empty()) {
        writer.WriteBoolVector(for_segment->null_values());
      }
      WriteCompressedVector(writer, for_segment->offset_values());
      return true;
    }
  }
  return false;
}

template <typename T>
std::shared_ptr<AbstractSegment> ReadSegment(BinaryReader& reader, ChunkOffset row_count) {
  auto tag = uint8_t{0};
  if (!reader.ReadScalar(tag)) {
    return nullptr;
  }
  switch (static_cast<SegmentTag>(tag)) {
    case SegmentTag::kValue: {
      auto has_nulls = uint8_t{0};
      auto values = std::vector<T>{};
      if (!reader.ReadScalar(has_nulls) || !ReadTypedVector(reader, values)) {
        return nullptr;
      }
      auto nulls = std::vector<bool>{};
      if (has_nulls != 0 && !reader.ReadBoolVector(nulls)) {
        return nullptr;
      }
      if (values.size() != row_count || (has_nulls != 0 && nulls.size() != row_count)) {
        reader.SetError("Corrupt file: value segment size mismatch");
        return nullptr;
      }
      return std::make_shared<ValueSegment<T>>(std::move(values), std::move(nulls));
    }
    case SegmentTag::kDictionary: {
      auto dictionary = std::vector<T>{};
      if (!ReadTypedVector(reader, dictionary)) {
        return nullptr;
      }
      const auto attribute_vector = ReadCompressedVector(reader, row_count);
      if (!attribute_vector) {
        return nullptr;
      }
      return std::make_shared<DictionarySegment<T>>(std::make_shared<const std::vector<T>>(std::move(dictionary)),
                                                    attribute_vector);
    }
    case SegmentTag::kRunLength: {
      auto values = std::vector<T>{};
      auto run_is_null = std::vector<bool>{};
      auto end_positions = std::vector<ChunkOffset>{};
      if (!ReadTypedVector(reader, values) || !reader.ReadBoolVector(run_is_null) ||
          !reader.ReadVector(end_positions)) {
        return nullptr;
      }
      auto valid = values.size() == run_is_null.size() && values.size() == end_positions.size() &&
                   !end_positions.empty() && end_positions.back() + 1 == row_count;
      for (auto run = size_t{1}; valid && run < end_positions.size(); ++run) {
        valid = end_positions[run - 1] < end_positions[run];
      }
      if (!valid) {
        reader.SetError("Corrupt file: run-length segment structure invalid");
        return nullptr;
      }
      return std::make_shared<RunLengthSegment<T>>(
          std::make_shared<const std::vector<T>>(std::move(values)),
          std::make_shared<const std::vector<bool>>(std::move(run_is_null)),
          std::make_shared<const std::vector<ChunkOffset>>(std::move(end_positions)));
    }
    case SegmentTag::kFrameOfReference: {
      if constexpr (std::is_same_v<T, int32_t> || std::is_same_v<T, int64_t>) {
        auto block_minima = std::vector<T>{};
        auto has_nulls = uint8_t{0};
        auto nulls = std::vector<bool>{};
        if (!reader.ReadVector(block_minima) || !reader.ReadScalar(has_nulls)) {
          return nullptr;
        }
        if (has_nulls != 0 && !reader.ReadBoolVector(nulls)) {
          return nullptr;
        }
        const auto offset_values = ReadCompressedVector(reader, row_count);
        if (!offset_values) {
          return nullptr;
        }
        const auto expected_blocks =
            (row_count + FrameOfReferenceSegment<T>::kBlockSize - 1) / FrameOfReferenceSegment<T>::kBlockSize;
        if (block_minima.size() != expected_blocks || (has_nulls != 0 && nulls.size() != row_count)) {
          reader.SetError("Corrupt file: frame-of-reference segment structure invalid");
          return nullptr;
        }
        return std::make_shared<FrameOfReferenceSegment<T>>(std::move(block_minima), offset_values,
                                                            std::move(nulls));
      } else {
        reader.SetError("Corrupt file: frame-of-reference on a non-integral column");
        return nullptr;
      }
    }
  }
  reader.SetError("Corrupt file: unknown segment tag " + std::to_string(tag));
  return nullptr;
}

/// Materializes the visible rows of `segment` and re-encodes them with the
/// segment's original spec. Only partially visible chunks pay this — fully
/// visible chunks serialize their encoded form untouched.
template <typename T>
std::shared_ptr<AbstractSegment> FilterAndReencode(const AbstractSegment& segment,
                                                   const std::vector<ChunkOffset>& visible, DataType data_type) {
  auto decoded = DecodeSegmentAs<T>(segment);
  auto values = std::vector<T>{};
  auto nulls = std::vector<bool>{};
  values.reserve(visible.size());
  nulls.reserve(visible.size());
  auto any_null = false;
  for (const auto offset : visible) {
    values.push_back(std::move(decoded.values[offset]));
    nulls.push_back(decoded.IsNull(offset));
    any_null = any_null || decoded.IsNull(offset);
  }
  auto value_segment =
      std::make_shared<ValueSegment<T>>(std::move(values), any_null ? std::move(nulls) : std::vector<bool>{});
  const auto spec = SegmentSpecOf(segment);
  if (spec.encoding_type == EncodingType::kUnencoded) {
    return value_segment;
  }
  return ChunkEncoder::EncodeSegment(value_segment, data_type, spec);
}

// --- Statistics --------------------------------------------------------------

void WriteStatistics(BinaryWriter& writer, const TableStatistics* statistics) {
  writer.WriteScalar<uint8_t>(statistics != nullptr ? 1 : 0);
  if (statistics == nullptr) {
    return;
  }
  writer.WriteScalar<double>(statistics->row_count);
  writer.WriteScalar<uint32_t>(static_cast<uint32_t>(statistics->column_statistics.size()));
  for (const auto& column_statistics : statistics->column_statistics) {
    if (!column_statistics || column_statistics->data_type == DataType::kNull) {
      writer.WriteScalar<uint8_t>(0);
      continue;
    }
    writer.WriteScalar<uint8_t>(1);
    writer.WriteScalar<uint8_t>(static_cast<uint8_t>(column_statistics->data_type));
    writer.WriteScalar<double>(column_statistics->null_ratio);
    ResolveDataType(column_statistics->data_type, [&](auto type_tag) {
      using ColumnDataType = decltype(type_tag);
      const auto& typed = static_cast<const AttributeStatistics<ColumnDataType>&>(*column_statistics);
      const auto& histogram = typed.histogram;
      writer.WriteScalar<uint64_t>(histogram ? histogram->bins().size() : 0);
      if (!histogram) {
        return;
      }
      for (const auto& bin : histogram->bins()) {
        WriteTypedValue(writer, bin.min);
        WriteTypedValue(writer, bin.max);
        writer.WriteScalar<double>(bin.height);
        writer.WriteScalar<double>(bin.distinct_count);
      }
    });
  }
}

std::shared_ptr<TableStatistics> ReadStatistics(BinaryReader& reader) {
  auto has_statistics = uint8_t{0};
  if (!reader.ReadScalar(has_statistics) || has_statistics == 0) {
    return nullptr;
  }
  auto statistics = std::make_shared<TableStatistics>();
  auto column_count = uint32_t{0};
  if (!reader.ReadScalar(statistics->row_count) || !reader.ReadScalar(column_count)) {
    return nullptr;
  }
  for (auto column = uint32_t{0}; column < column_count && reader.ok(); ++column) {
    auto has_column = uint8_t{0};
    if (!reader.ReadScalar(has_column)) {
      return nullptr;
    }
    if (has_column == 0) {
      statistics->column_statistics.push_back(nullptr);
      continue;
    }
    auto data_type_raw = uint8_t{0};
    auto null_ratio = 0.0;
    auto bin_count = uint64_t{0};
    if (!reader.ReadScalar(data_type_raw) || !reader.ReadScalar(null_ratio) || !reader.ReadScalar(bin_count)) {
      return nullptr;
    }
    if (data_type_raw == 0 || data_type_raw > static_cast<uint8_t>(DataType::kString)) {
      reader.SetError("Corrupt file: invalid statistics data type");
      return nullptr;
    }
    ResolveDataType(static_cast<DataType>(data_type_raw), [&](auto type_tag) {
      using ColumnDataType = decltype(type_tag);
      auto bins = std::vector<HistogramBin<ColumnDataType>>{};
      bins.reserve(std::min<uint64_t>(bin_count, 1024));
      for (auto bin_index = uint64_t{0}; bin_index < bin_count && reader.ok(); ++bin_index) {
        auto bin = HistogramBin<ColumnDataType>{};
        if (!ReadTypedValue(reader, bin.min) || !ReadTypedValue(reader, bin.max) ||
            !reader.ReadScalar(bin.height) || !reader.ReadScalar(bin.distinct_count)) {
          return;
        }
        bins.push_back(std::move(bin));
      }
      auto attribute = std::make_shared<AttributeStatistics<ColumnDataType>>();
      attribute->null_ratio = null_ratio;
      attribute->histogram = Histogram<ColumnDataType>::FromBins(std::move(bins));
      statistics->column_statistics.push_back(std::move(attribute));
    });
    if (!reader.ok()) {
      return nullptr;
    }
  }
  return statistics;
}

/// One chunk scheduled for export: its captured row count and, for MVCC
/// chunks with invisible rows, the visible offsets to filter down to.
struct ChunkExportPlan {
  std::shared_ptr<Chunk> chunk;
  ChunkOffset row_count{0};
  std::optional<std::vector<ChunkOffset>> visible;
};

}  // namespace

SegmentEncodingSpec SegmentSpecOf(const AbstractSegment& segment) {
  auto spec = SegmentEncodingSpec{EncodingType::kUnencoded};
  const auto* encoded = dynamic_cast<const AbstractEncodedSegment*>(&segment);
  if (encoded == nullptr) {
    return spec;
  }
  spec.encoding_type = encoded->encoding_type();
  spec.vector_compression = VectorCompressionType::kFixedWidthInteger;
  ResolveDataType(segment.data_type(), [&](auto type_tag) {
    using ColumnDataType = decltype(type_tag);
    if (const auto* dictionary_segment = dynamic_cast<const DictionarySegment<ColumnDataType>*>(&segment)) {
      spec.vector_compression = dictionary_segment->attribute_vector().type();
      return;
    }
    if constexpr (std::is_same_v<ColumnDataType, int32_t> || std::is_same_v<ColumnDataType, int64_t>) {
      if (const auto* for_segment = dynamic_cast<const FrameOfReferenceSegment<ColumnDataType>*>(&segment)) {
        spec.vector_compression = for_segment->offset_values().type();
      }
    }
  });
  return spec;
}

bool ValidateBitPackingParts(size_t size, const std::vector<uint8_t>& block_bits,
                             const std::vector<uint32_t>& block_offsets, const std::vector<uint64_t>& data) {
  constexpr auto kBlockSize = BitPackingVector::kBlockSize;
  const auto blocks = (size + kBlockSize - 1) / kBlockSize;
  if (block_bits.size() != blocks || block_offsets.size() != blocks) {
    return false;
  }
  auto words = uint64_t{0};
  for (auto block = size_t{0}; block < blocks; ++block) {
    const auto bits = block_bits[block];
    if (bits < 1 || bits > 32 || block_offsets[block] != words) {
      return false;
    }
    words += (kBlockSize * bits + 63) / 64;
  }
  return data.size() == words + 1;  // The packer always appends one guard word.
}

Result<uint64_t> ExportTableBinary(const Table& table, const std::string& path, CommitID snapshot_cid,
                                   TransactionID exporter_tid) {
  if (table.type() != TableType::kData) {
    return Result<uint64_t>::Error("Only data tables can be exported");
  }

  // Plan which chunks and rows to write. Row visibility is decided up front
  // so the header can carry exact counts.
  auto plans = std::vector<ChunkExportPlan>{};
  auto total_rows = uint64_t{0};
  const auto chunk_count = table.chunk_count();
  for (auto chunk_id = ChunkID{0}; chunk_id < chunk_count; ++chunk_id) {
    auto plan = ChunkExportPlan{};
    plan.chunk = table.GetChunk(chunk_id);
    plan.row_count = plan.chunk->size();
    if (plan.row_count == 0) {
      continue;
    }
    const auto& mvcc_data = plan.chunk->mvcc_data();
    if (mvcc_data) {
      auto visible = std::vector<ChunkOffset>{};
      visible.reserve(plan.row_count);
      for (auto offset = ChunkOffset{0}; offset < plan.row_count; ++offset) {
        if (Validate::IsRowVisible(exporter_tid, snapshot_cid, mvcc_data->GetTid(offset),
                                   mvcc_data->GetBeginCid(offset), mvcc_data->GetEndCid(offset))) {
          visible.push_back(offset);
        }
      }
      if (visible.empty()) {
        continue;
      }
      if (visible.size() < plan.row_count) {
        plan.row_count = static_cast<ChunkOffset>(visible.size());
        plan.visible = std::move(visible);
      }
    }
    total_rows += plan.row_count;
    plans.push_back(std::move(plan));
  }

  const auto temporary_path = path + ".tmp";
  auto writer = BinaryWriter{temporary_path};
  if (!writer.ok()) {
    return Result<uint64_t>::Error(writer.error());
  }

  // Header + schema.
  writer.WriteScalar<uint64_t>(kMagic);
  writer.WriteScalar<uint32_t>(kFormatVersion);
  writer.WriteScalar<uint8_t>(table.uses_mvcc() == UseMvcc::kYes ? 1 : 0);
  writer.WriteScalar<uint32_t>(table.column_count());
  writer.WriteScalar<uint32_t>(static_cast<uint32_t>(plans.size()));
  writer.WriteScalar<uint64_t>(total_rows);
  writer.WriteScalar<uint32_t>(table.target_chunk_size());
  for (const auto& definition : table.column_definitions()) {
    writer.WriteString(definition.name);
    writer.WriteScalar<uint8_t>(static_cast<uint8_t>(definition.data_type));
    writer.WriteScalar<uint8_t>(definition.nullable ? 1 : 0);
  }

  // Statistics: persist existing ones, or build them now so the restored
  // table's optimizer is warm at the first query.
  auto statistics = table.table_statistics();
  if (!statistics) {
    statistics = GenerateTableStatistics(table);
  }
  WriteStatistics(writer, statistics.get());
  writer.WriteChecksum();

  // Chunks: per chunk a row count, then one record per segment, each closed
  // by a checksum checkpoint.
  for (const auto& plan : plans) {
    writer.WriteScalar<uint32_t>(plan.row_count);
    const auto columns = plan.chunk->column_count();
    for (auto column_id = ColumnID{0}; column_id < columns; ++column_id) {
      FAILPOINT("persistence/segment_write");
      const auto segment = plan.chunk->GetSegment(column_id);
      const auto data_type = table.column_data_type(column_id);
      auto serialized = false;
      ResolveDataType(data_type, [&](auto type_tag) {
        using ColumnDataType = decltype(type_tag);
        if (plan.visible) {
          const auto filtered = FilterAndReencode<ColumnDataType>(*segment, *plan.visible, data_type);
          serialized = SerializeSegment<ColumnDataType>(writer, *filtered, plan.row_count);
        } else {
          serialized = SerializeSegment<ColumnDataType>(writer, *segment, plan.row_count);
        }
      });
      if (!serialized) {
        return Result<uint64_t>::Error("Cannot export segment of unsupported class (column '" +
                                       table.column_name(column_id) + "')");
      }
      writer.WriteChecksum();
    }
  }

  if (!writer.Finish()) {
    return Result<uint64_t>::Error(writer.error());
  }

  // Commit point: the file appears under its final name all-or-nothing.
  auto rename_error = std::string{};
  if (!AtomicRename(temporary_path, path, rename_error)) {
    return Result<uint64_t>::Error(rename_error);
  }
  return writer.bytes_written();
}

Result<std::shared_ptr<Table>> ImportTableBinary(const std::string& path) {
  using ImportResult = Result<std::shared_ptr<Table>>;
  auto reader = BinaryReader{path};
  const auto fail = [&](const std::string& detail) {
    return ImportResult::Error("Import of '" + path + "' failed: " + detail);
  };
  const auto fail_reader = [&]() {
    return fail(reader.ok() ? std::string{"unexpected end of file"} : reader.error());
  };
  if (!reader.ok()) {
    return ImportResult::Error(reader.error());
  }

  auto magic = uint64_t{0};
  auto version = uint32_t{0};
  if (!reader.ReadScalar(magic) || !reader.ReadScalar(version)) {
    return fail_reader();
  }
  if (magic != kMagic) {
    return fail("not a Hyrise binary table file");
  }
  if (version != kFormatVersion) {
    return fail("unsupported format version " + std::to_string(version));
  }

  auto uses_mvcc = uint8_t{0};
  auto column_count = uint32_t{0};
  auto chunk_count = uint32_t{0};
  auto total_rows = uint64_t{0};
  auto target_chunk_size = uint32_t{0};
  if (!reader.ReadScalar(uses_mvcc) || !reader.ReadScalar(column_count) || !reader.ReadScalar(chunk_count) ||
      !reader.ReadScalar(total_rows) || !reader.ReadScalar(target_chunk_size)) {
    return fail_reader();
  }
  if (uses_mvcc > 1 || column_count == 0 || column_count > std::numeric_limits<uint16_t>::max() ||
      target_chunk_size == 0) {
    return fail("corrupt header");
  }

  auto definitions = TableColumnDefinitions{};
  definitions.reserve(column_count);
  for (auto column = uint32_t{0}; column < column_count; ++column) {
    auto name = std::string{};
    auto data_type_raw = uint8_t{0};
    auto nullable = uint8_t{0};
    if (!reader.ReadString(name) || !reader.ReadScalar(data_type_raw) || !reader.ReadScalar(nullable)) {
      return fail_reader();
    }
    if (name.empty() || data_type_raw == 0 || data_type_raw > static_cast<uint8_t>(DataType::kString) ||
        nullable > 1) {
      return fail("corrupt column definition");
    }
    definitions.emplace_back(std::move(name), static_cast<DataType>(data_type_raw), nullable != 0);
  }

  const auto statistics = ReadStatistics(reader);
  if (!reader.VerifyChecksum()) {
    return fail_reader();
  }

  auto table = std::make_shared<Table>(std::move(definitions), TableType::kData, target_chunk_size,
                                       uses_mvcc != 0 ? UseMvcc::kYes : UseMvcc::kNo);
  if (statistics) {
    table->SetTableStatistics(statistics);
  }

  auto imported_rows = uint64_t{0};
  for (auto chunk_index = uint32_t{0}; chunk_index < chunk_count; ++chunk_index) {
    auto row_count = uint32_t{0};
    if (!reader.ReadScalar(row_count)) {
      return fail_reader();
    }
    if (row_count == 0) {
      return fail("corrupt file: empty chunk record");
    }
    auto segments = Segments{};
    segments.reserve(column_count);
    for (auto column = uint32_t{0}; column < column_count; ++column) {
      auto segment = std::shared_ptr<AbstractSegment>{};
      ResolveDataType(table->column_data_type(ColumnID{static_cast<uint16_t>(column)}), [&](auto type_tag) {
        using ColumnDataType = decltype(type_tag);
        segment = ReadSegment<ColumnDataType>(reader, row_count);
      });
      if (!segment || !reader.VerifyChecksum()) {
        return fail_reader();
      }
      if (segment->size() != row_count) {
        return fail("corrupt file: segment size does not match chunk row count");
      }
      segments.push_back(std::move(segment));
    }
    auto mvcc_data = std::shared_ptr<MvccData>{};
    if (uses_mvcc != 0) {
      // Imported rows are visible to everyone, like bulk loads: begin CID 0,
      // no end CID, no owner.
      mvcc_data = std::make_shared<MvccData>(row_count);
      for (auto offset = ChunkOffset{0}; offset < row_count; ++offset) {
        mvcc_data->SetBeginCid(offset, CommitID{0});
      }
    }
    table->AppendChunk(std::move(segments), std::move(mvcc_data));
    imported_rows += row_count;
  }

  auto footer = uint64_t{0};
  if (!reader.ReadScalar(footer)) {
    return fail_reader();
  }
  if (footer != kFooterMagic) {
    return fail("corrupt file: footer missing");
  }
  if (!reader.VerifyChecksum()) {
    return fail_reader();
  }
  if (!reader.AtEnd()) {
    return fail("corrupt file: trailing bytes after footer");
  }
  if (imported_rows != total_rows) {
    return fail("corrupt file: row count mismatch");
  }
  return table;
}

}  // namespace hyrise::persistence
