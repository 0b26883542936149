#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "storage/chunk_encoder.hpp"
#include "storage/reference_segment.hpp"
#include "storage/segment_decoder.hpp"
#include "storage/table.hpp"

namespace hyrise {

namespace {

constexpr auto kChunkSize = ChunkOffset{1000};
constexpr auto kRowCount = 2600;  // Chunks of 1000, 1000 and 600 rows.

struct DecoderCase {
  SegmentEncodingSpec spec;
  DataType data_type;
  bool nullable;
};

std::string CaseName(const ::testing::TestParamInfo<DecoderCase>& info) {
  auto name = std::string{EncodingTypeToString(info.param.spec.encoding_type)} + "_" +
              VectorCompressionTypeToString(info.param.spec.vector_compression) + "_" +
              DataTypeToString(info.param.data_type) + (info.param.nullable ? "_nullable" : "_notnull");
  for (auto& character : name) {
    if (!std::isalnum(static_cast<unsigned char>(character))) {
      character = '_';
    }
  }
  return name;
}

std::vector<DecoderCase> AllCases() {
  auto cases = std::vector<DecoderCase>{};
  for (const auto encoding : {EncodingType::kUnencoded, EncodingType::kDictionary, EncodingType::kRunLength,
                              EncodingType::kFrameOfReference}) {
    for (const auto compression :
         {VectorCompressionType::kFixedWidthInteger, VectorCompressionType::kBitPacking128}) {
      for (const auto data_type :
           {DataType::kInt, DataType::kLong, DataType::kFloat, DataType::kDouble, DataType::kString}) {
        for (const auto nullable : {false, true}) {
          cases.push_back({SegmentEncodingSpec{encoding, compression}, data_type, nullable});
        }
      }
    }
  }
  return cases;
}

/// One column of the case's type in three encoded chunks. Values come in
/// short runs (for run-length encoding) over a small domain; a nullable
/// column has about one NULL in seven rows.
std::shared_ptr<Table> MakeEncodedTable(const DecoderCase& test_case) {
  auto table = std::make_shared<Table>(TableColumnDefinitions{{"a", test_case.data_type, test_case.nullable}},
                                       TableType::kData, kChunkSize);
  auto rng = std::mt19937{42};
  auto value = AllTypeVariant{};
  for (auto row = 0; row < kRowCount; ++row) {
    if (row % 3 == 0) {
      ResolveDataType(test_case.data_type, [&](auto type_tag) {
        using T = decltype(type_tag);
        if constexpr (std::is_same_v<T, std::string>) {
          value = AllTypeVariant{"v" + std::to_string(rng() % 97)};
        } else {
          value = AllTypeVariant{static_cast<T>(static_cast<int>(rng() % 5000) - 2500)};
        }
      });
    }
    table->AppendRow({test_case.nullable && rng() % 7 == 0 ? kNullVariant : value});
  }
  ChunkEncoder::EncodeAllChunks(table, test_case.spec);
  return table;
}

/// One chunk of 3 * 2048 + 500 rows whose domain drifts up by one every
/// four rows: each of its four frame-of-reference blocks has another minimum.
std::shared_ptr<Table> MakeDriftingTable(const DecoderCase& test_case) {
  constexpr auto kDriftingRows = 3 * 2048 + 500;
  auto table = std::make_shared<Table>(TableColumnDefinitions{{"a", test_case.data_type, test_case.nullable}},
                                       TableType::kData, ChunkOffset{kDriftingRows});
  auto rng = std::mt19937{3};
  for (auto row = 0; row < kDriftingRows; ++row) {
    const auto number = row / 4 + static_cast<int>(rng() % 300);
    ResolveDataType(test_case.data_type, [&](auto type_tag) {
      using T = decltype(type_tag);
      auto value = AllTypeVariant{};
      if constexpr (std::is_same_v<T, std::string>) {
        value = AllTypeVariant{"v" + std::to_string(number)};
      } else {
        value = AllTypeVariant{static_cast<T>(number)};
      }
      table->AppendRow({test_case.nullable && rng() % 7 == 0 ? kNullVariant : value});
    });
  }
  ChunkEncoder::EncodeAllChunks(table, test_case.spec);
  return table;
}

/// The decoder must reproduce the per-row virtual operator[] of `segment`,
/// as its own type and, for numbers, cast to double.
void ExpectDecodesLikeOperator(const AbstractSegment& segment) {
  ResolveDataType(segment.data_type(), [&](auto type_tag) {
    using T = decltype(type_tag);
    const auto decoded = DecodeSegmentAs<T>(segment);
    ASSERT_EQ(decoded.values.size(), segment.size());
    for (auto row = ChunkOffset{0}; row < segment.size(); ++row) {
      const auto expected = segment[row];
      ASSERT_EQ(decoded.IsNull(row), VariantIsNull(expected)) << "row " << row;
      if (!VariantIsNull(expected)) {
        ASSERT_EQ(decoded.values[row], std::get<T>(expected)) << "row " << row;
      }
    }
    if constexpr (std::is_arithmetic_v<T>) {
      const auto cast = DecodeSegmentAs<double>(segment);
      for (auto row = size_t{0}; row < decoded.values.size(); ++row) {
        ASSERT_EQ(cast.IsNull(row), decoded.IsNull(row)) << "row " << row;
        if (!decoded.IsNull(row)) {
          ASSERT_EQ(cast.values[row], static_cast<double>(decoded.values[row])) << "row " << row;
        }
      }
    }
  });
}

}  // namespace

/// Differential property: DecodeSegmentAs<T> equals the per-row operator[]
/// for every data type × encoding × vector compression × nullability, on a
/// stored segment and on the reference segments operators produce.
class SegmentDecoderTest : public ::testing::TestWithParam<DecoderCase> {
 protected:
  void SetUp() override {
    table_ = MakeEncodedTable(GetParam());
  }

  std::shared_ptr<Table> table_;
};

INSTANTIATE_TEST_SUITE_P(AllEncodings, SegmentDecoderTest, ::testing::ValuesIn(AllCases()), CaseName);

TEST_P(SegmentDecoderTest, StoredSegment) {
  ASSERT_EQ(table_->chunk_count(), ChunkID{3});
  for (auto chunk_id = ChunkID{0}; chunk_id < table_->chunk_count(); ++chunk_id) {
    ExpectDecodesLikeOperator(*table_->GetChunk(chunk_id)->GetSegment(ColumnID{0}));
  }
}

TEST_P(SegmentDecoderTest, DriftingDomainAcrossBlocks) {
  const auto table = MakeDriftingTable(GetParam());
  ASSERT_EQ(table->chunk_count(), ChunkID{1});
  ExpectDecodesLikeOperator(*table->GetChunk(ChunkID{0})->GetSegment(ColumnID{0}));

  auto positions = std::make_shared<RowIDPosList>();
  for (auto offset = ChunkOffset{0}; offset < table->row_count(); offset += 3) {
    positions->push_back(RowID{ChunkID{0}, offset});
  }
  positions->GuaranteeSingleChunk();
  ExpectDecodesLikeOperator(ReferenceSegment{table, ColumnID{0}, positions});
}

TEST_P(SegmentDecoderTest, SingleChunkPosList) {
  // A scan's output: ascending offsets of one chunk, under the single-chunk
  // guarantee.
  auto rng = std::mt19937{7};
  auto positions = std::make_shared<RowIDPosList>();
  for (auto offset = ChunkOffset{0}; offset < kChunkSize; ++offset) {
    if (rng() % 3 == 0) {
      positions->push_back(RowID{ChunkID{1}, offset});
    }
  }
  positions->GuaranteeSingleChunk();
  ExpectDecodesLikeOperator(ReferenceSegment{table_, ColumnID{0}, positions});
}

TEST_P(SegmentDecoderTest, ShuffledMultiChunkPosListWithPadding) {
  // A join's output: rows of every chunk in random order, repeats included,
  // and outer-join padding rows.
  auto rng = std::mt19937{11};
  auto positions = std::make_shared<RowIDPosList>();
  for (auto index = 0; index < 3000; ++index) {
    if (index % 13 == 0) {
      positions->push_back(kNullRowId);
      continue;
    }
    const auto row = static_cast<uint32_t>(rng() % kRowCount);
    positions->push_back(RowID{ChunkID{row / kChunkSize}, static_cast<ChunkOffset>(row % kChunkSize)});
  }
  std::shuffle(positions->begin(), positions->end(), rng);
  ExpectDecodesLikeOperator(ReferenceSegment{table_, ColumnID{0}, positions});
}

TEST_P(SegmentDecoderTest, EmptyPosList) {
  const auto segment = ReferenceSegment{table_, ColumnID{0}, std::make_shared<RowIDPosList>()};
  ExpectDecodesLikeOperator(segment);
  ResolveDataType(segment.data_type(), [&](auto type_tag) {
    const auto decoded = DecodeSegmentAs<decltype(type_tag)>(segment);
    EXPECT_TRUE(decoded.values.empty());
    EXPECT_TRUE(decoded.nulls.empty());
  });
}

}  // namespace hyrise
