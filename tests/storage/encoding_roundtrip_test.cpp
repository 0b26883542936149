#include <gtest/gtest.h>

#include <random>

#include "storage/chunk_encoder.hpp"
#include "storage/reference_segment.hpp"
#include "storage/segment_accessor.hpp"
#include "storage/segment_decoder.hpp"
#include "storage/table.hpp"
#include "storage/value_segment.hpp"

namespace hyrise {

namespace {

struct EncodingCase {
  SegmentEncodingSpec spec;
  DataType data_type;
  bool with_nulls;
};

std::string CaseName(const ::testing::TestParamInfo<EncodingCase>& info) {
  auto name = std::string{EncodingTypeToString(info.param.spec.encoding_type)} + "_" +
              VectorCompressionTypeToString(info.param.spec.vector_compression) + "_" +
              DataTypeToString(info.param.data_type) + (info.param.with_nulls ? "_nulls" : "_nonulls");
  for (auto& character : name) {
    if (!std::isalnum(static_cast<unsigned char>(character))) {
      character = '_';
    }
  }
  return name;
}

std::vector<EncodingCase> AllCases() {
  auto cases = std::vector<EncodingCase>{};
  for (const auto encoding : {EncodingType::kUnencoded, EncodingType::kDictionary, EncodingType::kRunLength,
                              EncodingType::kFrameOfReference}) {
    for (const auto compression :
         {VectorCompressionType::kFixedWidthInteger, VectorCompressionType::kBitPacking128}) {
      for (const auto data_type :
           {DataType::kInt, DataType::kLong, DataType::kFloat, DataType::kDouble, DataType::kString}) {
        for (const auto with_nulls : {false, true}) {
          cases.push_back({SegmentEncodingSpec{encoding, compression}, data_type, with_nulls});
        }
      }
    }
  }
  return cases;
}

}  // namespace

/// Property: encoding then reading back (via operator[], the decoder, and
/// the accessors) reproduces the original values for every combination of
/// encoding, physical compression, data type, and null pattern.
class EncodingRoundTripTest : public ::testing::TestWithParam<EncodingCase> {};

INSTANTIATE_TEST_SUITE_P(AllEncodings, EncodingRoundTripTest, ::testing::ValuesIn(AllCases()), CaseName);

TEST_P(EncodingRoundTripTest, ValuesSurviveEncoding) {
  const auto& [spec, data_type, with_nulls] = GetParam();

  ResolveDataType(data_type, [&, spec = spec, with_nulls = with_nulls](auto type_tag) {
    using T = decltype(type_tag);
    auto rng = std::mt19937{1234};

    auto source = std::make_shared<ValueSegment<T>>(with_nulls);
    auto expected_values = std::vector<T>{};
    auto expected_nulls = std::vector<bool>{};
    for (auto index = 0; index < 3000; ++index) {
      const auto is_null = with_nulls && rng() % 7 == 0;
      if (is_null) {
        source->Append(kNullVariant);
        expected_values.emplace_back();
        expected_nulls.push_back(true);
        continue;
      }
      // Runs of repeated values (to exercise RLE) mixed with random ones.
      if constexpr (std::is_same_v<T, std::string>) {
        const auto value = "val_" + std::to_string(rng() % 64);
        source->AppendTyped(value);
        expected_values.push_back(value);
      } else {
        const auto value = static_cast<T>(rng() % 512);
        source->AppendTyped(value);
        expected_values.push_back(value);
      }
      expected_nulls.push_back(false);
    }

    const auto encoded = ChunkEncoder::EncodeSegment(source, data_type, spec);
    ASSERT_EQ(encoded->size(), source->size());

    // 1. Virtual operator[].
    for (auto offset = ChunkOffset{0}; offset < encoded->size(); offset += 97) {
      if (expected_nulls[offset]) {
        EXPECT_TRUE(VariantIsNull((*encoded)[offset]));
      } else {
        EXPECT_EQ(std::get<T>((*encoded)[offset]), expected_values[offset]);
      }
    }

    // 2. Statically resolved decode of the whole segment.
    const auto decoded = DecodeSegmentAs<T>(*encoded);
    ASSERT_EQ(decoded.values.size(), expected_values.size());
    for (auto offset = size_t{0}; offset < expected_values.size(); ++offset) {
      EXPECT_EQ(decoded.IsNull(offset), static_cast<bool>(expected_nulls[offset])) << offset;
      if (!decoded.IsNull(offset)) {
        EXPECT_EQ(decoded.values[offset], expected_values[offset]) << offset;
      }
    }

    // 3. Point access: a reference segment over every third offset, shuffled.
    auto table = std::make_shared<Table>(TableColumnDefinitions{{"a", data_type, with_nulls}}, TableType::kData);
    table->AppendChunk({encoded});
    auto offsets = std::vector<ChunkOffset>{};
    for (auto offset = ChunkOffset{0}; offset < encoded->size(); offset += 3) {
      offsets.push_back(offset);
    }
    std::shuffle(offsets.begin(), offsets.end(), rng);
    auto positions = std::make_shared<RowIDPosList>();
    for (const auto offset : offsets) {
      positions->push_back(RowID{ChunkID{0}, offset});
    }
    positions->GuaranteeSingleChunk();
    const auto gathered = DecodeSegmentAs<T>(ReferenceSegment{table, ColumnID{0}, positions});
    ASSERT_EQ(gathered.values.size(), offsets.size());
    for (auto index = size_t{0}; index < offsets.size(); ++index) {
      const auto referenced = offsets[index];
      EXPECT_EQ(gathered.IsNull(index), static_cast<bool>(expected_nulls[referenced])) << index;
      if (!gathered.IsNull(index)) {
        EXPECT_EQ(gathered.values[index], expected_values[referenced]) << index;
      }
    }

    // 4. Virtual accessors (dynamic path).
    const auto accessor = CreateSegmentAccessor<T>(*encoded);
    for (auto offset = ChunkOffset{0}; offset < encoded->size(); offset += 131) {
      const auto value = accessor->Access(offset);
      EXPECT_EQ(!value.has_value(), static_cast<bool>(expected_nulls[offset]));
      if (value.has_value()) {
        EXPECT_EQ(*value, expected_values[offset]);
      }
    }
  });
}

}  // namespace hyrise
