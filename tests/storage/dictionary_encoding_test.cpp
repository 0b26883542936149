#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>

#include "storage/chunk_encoder.hpp"
#include "storage/dictionary_segment.hpp"
#include "storage/value_segment.hpp"
#include "storage/vector_compression/compressed_vector_utils.hpp"

namespace hyrise {

namespace {

template <typename T>
using Rows = std::vector<std::optional<T>>;

/// The number `number` as a T; strings share a 40-character prefix, so
/// comparisons decide on the last characters.
template <typename T>
T ValueOf(int number) {
  if constexpr (std::is_same_v<T, std::string>) {
    return std::string(40, 'p') + std::to_string(number);
  } else {
    return static_cast<T>(number);
  }
}

template <typename T>
std::shared_ptr<ValueSegment<T>> MakeValueSegment(const Rows<T>& rows) {
  auto segment = std::make_shared<ValueSegment<T>>(true);
  for (const auto& row : rows) {
    segment->Append(row ? AllTypeVariant{*row} : kNullVariant);
  }
  return segment;
}

/// Dictionary encoding of `rows` must equal the sort-and-lower_bound
/// reference: the sorted distinct non-NULL values, each row's code its
/// value's position, NULL rows null_value_id, and the same attribute vector
/// width. Checked for both vector compressions, encoding the value segment in
/// place and re-encoding a run-length copy (which is decoded first).
template <typename T>
void ExpectDictionaryMatchesReference(const Rows<T>& rows) {
  auto dictionary = std::vector<T>{};
  for (const auto& row : rows) {
    if (row) {
      dictionary.push_back(*row);
    }
  }
  std::sort(dictionary.begin(), dictionary.end());
  dictionary.erase(std::unique(dictionary.begin(), dictionary.end()), dictionary.end());
  const auto null_value_id = static_cast<uint32_t>(dictionary.size());
  auto codes = std::vector<uint32_t>{};
  for (const auto& row : rows) {
    codes.push_back(row ? static_cast<uint32_t>(std::lower_bound(dictionary.begin(), dictionary.end(), *row) -
                                                dictionary.begin())
                        : null_value_id);
  }

  const auto value_segment = MakeValueSegment(rows);
  const auto data_type = DataTypeOf<T>();
  const auto run_length_segment =
      ChunkEncoder::EncodeSegment(value_segment, data_type, SegmentEncodingSpec{EncodingType::kRunLength});
  for (const auto compression : {VectorCompressionType::kFixedWidthInteger, VectorCompressionType::kBitPacking128}) {
    const auto spec = SegmentEncodingSpec{EncodingType::kDictionary, compression};
    for (const auto& source : {std::shared_ptr<AbstractSegment>{value_segment}, run_length_segment}) {
      SCOPED_TRACE(std::string{VectorCompressionTypeToString(compression)} + ", from " +
                   (source == run_length_segment ? "run-length" : "value") + " segment");
      const auto encoded = ChunkEncoder::EncodeSegment(source, data_type, spec);
      const auto* segment = dynamic_cast<const DictionarySegment<T>*>(encoded.get());
      ASSERT_NE(segment, nullptr);
      ASSERT_EQ(segment->dictionary(), dictionary);
      ASSERT_EQ(segment->null_value_id(), null_value_id);
      const auto& attribute_vector = segment->attribute_vector();
      ASSERT_EQ(attribute_vector.size(), codes.size());
      EXPECT_EQ(attribute_vector.internal_type(),
                CompressVector(codes, compression, null_value_id)->internal_type());
      auto mismatches = 0;
      for (auto row = size_t{0}; row < codes.size(); ++row) {
        mismatches += attribute_vector.Get(row) != codes[row] ? 1 : 0;
      }
      EXPECT_EQ(mismatches, 0);
    }
  }
}

template <typename Functor>
void ForEachColumnType(const Functor& functor) {
  for (const auto data_type : {DataType::kInt, DataType::kLong, DataType::kFloat, DataType::kDouble,
                               DataType::kString}) {
    ResolveDataType(data_type, [&](auto type_tag) {
      SCOPED_TRACE(DataTypeToString(data_type));
      functor(type_tag);
    });
  }
}

}  // namespace

/// Hash-first dictionary encoding reproduces the sort-and-lower_bound
/// reference on duplicates, with NULL as the first and the last row.
TEST(ChunkEncoderTest, DictionaryMatchesReferenceWithDuplicatesAndNulls) {
  ForEachColumnType([](auto type_tag) {
    using T = decltype(type_tag);
    auto rng = std::mt19937{17};
    auto rows = Rows<T>{std::nullopt};
    for (auto index = 0; index < 5000; ++index) {
      const auto number = static_cast<int>(rng() % 300) - 150;
      rows.emplace_back(rng() % 9 == 0 ? std::nullopt : std::optional<T>{ValueOf<T>(number)});
    }
    rows.emplace_back(std::nullopt);
    ExpectDictionaryMatchesReference(rows);
  });
}

TEST(ChunkEncoderTest, DictionaryMatchesReferenceAllNull) {
  ForEachColumnType([](auto type_tag) {
    using T = decltype(type_tag);
    ExpectDictionaryMatchesReference(Rows<T>(3000, std::nullopt));
  });
}

/// The empty string sorts first; strings sharing long prefixes and prefixes
/// of one another keep their byte order.
TEST(ChunkEncoderTest, DictionaryMatchesReferenceStrings) {
  const auto prefix = std::string(64, 'x');
  auto rows = Rows<std::string>{};
  for (auto round = 0; round < 3; ++round) {
    for (const auto& value : {prefix + "b", std::string{}, prefix, prefix + "a", prefix + "ab", std::string{"x"},
                              prefix + "\x7f", prefix + "\x80", std::string(1, '\0')}) {
      rows.emplace_back(value);
    }
    rows.emplace_back(std::nullopt);
  }
  ExpectDictionaryMatchesReference(rows);
}

/// -0.0 and 0.0 compare equal: one dictionary entry, one code for both.
TEST(ChunkEncoderTest, DictionaryMatchesReferenceSignedZero) {
  const auto check = [](auto type_tag) {
    using T = decltype(type_tag);
    const auto rows = Rows<T>{T{1.5}, T{-0.0}, T{0.0}, T{-1.5}, T{0.0}, T{-0.0}, std::nullopt, T{-0.0}};
    ExpectDictionaryMatchesReference(rows);
    const auto encoded = ChunkEncoder::EncodeSegment(MakeValueSegment(rows), DataTypeOf<T>(),
                                                     SegmentEncodingSpec{EncodingType::kDictionary});
    const auto& segment = static_cast<const DictionarySegment<T>&>(*encoded);
    EXPECT_EQ(segment.dictionary().size(), 3u);
    EXPECT_EQ(segment.attribute_vector().Get(1), segment.attribute_vector().Get(2));
  };
  check(float{});
  check(double{});
}

/// Over 65,536 distinct values: the codes no longer fit two bytes.
TEST(ChunkEncoderTest, DictionaryMatchesReferenceWideCodes) {
  ForEachColumnType([](auto type_tag) {
    using T = decltype(type_tag);
    auto numbers = std::vector<int>{};
    for (auto number = 0; number < 70'000; ++number) {
      numbers.push_back(number - 35'000);
      if (number % 10 == 0) {
        numbers.push_back(number - 35'000);
      }
    }
    std::shuffle(numbers.begin(), numbers.end(), std::mt19937{5});
    auto rows = Rows<T>{};
    for (const auto number : numbers) {
      rows.emplace_back(ValueOf<T>(number));
    }
    ExpectDictionaryMatchesReference(rows);
    const auto encoded = ChunkEncoder::EncodeSegment(
        MakeValueSegment(rows), DataTypeOf<T>(),
        SegmentEncodingSpec{EncodingType::kDictionary, VectorCompressionType::kFixedWidthInteger});
    EXPECT_EQ(static_cast<const DictionarySegment<T>&>(*encoded).attribute_vector().internal_type(),
              CompressedVectorInternalType::kFixedWidth4Byte);
  });
}

}  // namespace hyrise
