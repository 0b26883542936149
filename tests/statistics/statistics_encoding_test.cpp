#include <gtest/gtest.h>

#include <random>

#include "statistics/abstract_segment_filter.hpp"
#include "statistics/table_statistics.hpp"
#include "storage/chunk_encoder.hpp"
#include "storage/table.hpp"
#include "storage/value_segment.hpp"

namespace hyrise {

namespace {

// Chunks of 5000, 5000 and 1000 rows; a 5000-row chunk spans three
// frame-of-reference blocks.
constexpr auto kChunkSize = ChunkOffset{5000};
constexpr auto kRowCount = 11000;
// Row r holds an even number 2k, k in [r / 8 - kDomain / 2, r / 8 + kDomain / 2):
// the domain drifts, so blocks have different minima, and odd probes are absent.
constexpr auto kDomain = 600;
constexpr auto kLowestNumber = -kDomain;
constexpr auto kHighestNumber = 2 * ((kRowCount - 1) / 8 + kDomain / 2);

const auto kColumnTypes = std::vector<DataType>{DataType::kInt, DataType::kLong, DataType::kFloat, DataType::kDouble,
                                                DataType::kString};

template <typename T>
T ValueOf(int number) {
  if constexpr (std::is_same_v<T, std::string>) {
    return "v" + std::to_string(number);
  } else {
    return static_cast<T>(number);
  }
}

/// One nullable column per type in kColumnTypes. Each column holds even
/// numbers in short runs (for run-length encoding), about one NULL in seven
/// rows; all chunks are finalized and encoded with `spec`.
std::shared_ptr<Table> MakeTable(const SegmentEncodingSpec& spec) {
  auto definitions = TableColumnDefinitions{};
  for (const auto data_type : kColumnTypes) {
    definitions.push_back({"c" + std::to_string(definitions.size()), data_type, true});
  }
  auto table = std::make_shared<Table>(definitions, TableType::kData, kChunkSize);
  auto rng = std::mt19937{42};
  auto numbers = std::vector<int>(kColumnTypes.size());
  for (auto row = 0; row < kRowCount; ++row) {
    auto values = std::vector<AllTypeVariant>{};
    for (auto column = size_t{0}; column < kColumnTypes.size(); ++column) {
      if (rng() % 3 == 0) {
        numbers[column] = 2 * (static_cast<int>(rng() % kDomain) - kDomain / 2 + row / 8);
      }
      ResolveDataType(kColumnTypes[column], [&](auto type_tag) {
        using T = decltype(type_tag);
        values.push_back(rng() % 7 == 0 ? kNullVariant : AllTypeVariant{ValueOf<T>(numbers[column])});
      });
    }
    table->AppendRow(values);
  }
  ChunkEncoder::EncodeAllChunks(table, spec);
  return table;
}

std::string SpecName(const SegmentEncodingSpec& spec) {
  auto name = std::string{EncodingTypeToString(spec.encoding_type)} + "_" +
              VectorCompressionTypeToString(spec.vector_compression);
  for (auto& character : name) {
    if (!std::isalnum(static_cast<unsigned char>(character))) {
      character = '_';
    }
  }
  return name;
}

}  // namespace

/// Statistics decode every segment through the segment decoder; built over
/// an encoded table they must equal those of the same table unencoded.
class GenerateStatisticsAcrossEncodingsTest : public ::testing::TestWithParam<SegmentEncodingSpec> {
 protected:
  void SetUp() override {
    unencoded_ = MakeTable(SegmentEncodingSpec{EncodingType::kUnencoded});
    encoded_ = MakeTable(GetParam());
    if (GetParam().encoding_type != EncodingType::kUnencoded) {
      // The integer columns carry the requested encoding (the others fall
      // back to dictionary for frame-of-reference).
      const auto* segment =
          dynamic_cast<const AbstractEncodedSegment*>(encoded_->GetChunk(ChunkID{0})->GetSegment(ColumnID{0}).get());
      ASSERT_NE(segment, nullptr);
      ASSERT_EQ(segment->encoding_type(), GetParam().encoding_type);
    }
  }

  std::shared_ptr<Table> unencoded_;
  std::shared_ptr<Table> encoded_;
};

INSTANTIATE_TEST_SUITE_P(
    AllEncodings, GenerateStatisticsAcrossEncodingsTest,
    ::testing::Values(SegmentEncodingSpec{EncodingType::kUnencoded},
                      SegmentEncodingSpec{EncodingType::kDictionary, VectorCompressionType::kFixedWidthInteger},
                      SegmentEncodingSpec{EncodingType::kDictionary, VectorCompressionType::kBitPacking128},
                      SegmentEncodingSpec{EncodingType::kFrameOfReference, VectorCompressionType::kFixedWidthInteger},
                      SegmentEncodingSpec{EncodingType::kFrameOfReference, VectorCompressionType::kBitPacking128},
                      SegmentEncodingSpec{EncodingType::kRunLength}),
    [](const auto& info) {
      return SpecName(info.param);
    });

/// MinMax bounds and CQF membership: every chunk's filter answers every
/// range and equality probe — present values and absent odd ones, inside and
/// outside the domain — as the unencoded table's filter does, and never
/// prunes an equality probe for a value the chunk holds.
TEST_P(GenerateStatisticsAcrossEncodingsTest, PruningFiltersMatchUnencoded) {
  GenerateChunkPruningStatistics(unencoded_);
  GenerateChunkPruningStatistics(encoded_);
  ASSERT_EQ(encoded_->chunk_count(), unencoded_->chunk_count());

  const auto conditions = {PredicateCondition::kEquals, PredicateCondition::kLessThan,
                           PredicateCondition::kLessThanEquals, PredicateCondition::kGreaterThan,
                           PredicateCondition::kGreaterThanEquals};
  for (auto chunk_id = ChunkID{0}; chunk_id < unencoded_->chunk_count(); ++chunk_id) {
    const auto& expected_filters = *unencoded_->GetChunk(chunk_id)->pruning_statistics();
    const auto& actual_filters = *encoded_->GetChunk(chunk_id)->pruning_statistics();
    for (auto column = size_t{0}; column < kColumnTypes.size(); ++column) {
      ASSERT_NE(expected_filters[column], nullptr);
      ASSERT_NE(actual_filters[column], nullptr);
      ResolveDataType(kColumnTypes[column], [&](auto type_tag) {
        using T = decltype(type_tag);
        auto mismatches = 0;
        for (auto number = kLowestNumber - 3; number <= kHighestNumber + 3; ++number) {
          const auto probe = AllTypeVariant{ValueOf<T>(number)};
          for (const auto condition : conditions) {
            if (actual_filters[column]->CanPrune(condition, probe) !=
                expected_filters[column]->CanPrune(condition, probe)) {
              ++mismatches;
            }
          }
        }
        EXPECT_EQ(mismatches, 0) << "chunk " << chunk_id << ", column " << column;
      });

      const auto& segment = *unencoded_->GetChunk(chunk_id)->GetSegment(static_cast<ColumnID>(column));
      auto pruned_present_values = 0;
      for (auto offset = ChunkOffset{0}; offset < segment.size(); ++offset) {
        const auto value = segment[offset];
        if (!VariantIsNull(value) && actual_filters[column]->CanPrune(PredicateCondition::kEquals, value)) {
          ++pruned_present_values;
        }
      }
      EXPECT_EQ(pruned_present_values, 0) << "chunk " << chunk_id << ", column " << column;
    }
  }
}

/// Null ratio and every histogram bin (bounds, height, distinct count), for
/// each layout, over all rows and over the every-third-row sample.
TEST_P(GenerateStatisticsAcrossEncodingsTest, TableStatisticsMatchUnencoded) {
  for (const auto layout :
       {HistogramLayout::kEqualDistinctCount, HistogramLayout::kEqualHeight, HistogramLayout::kEqualWidth}) {
    for (const auto max_sample_size : {size_t{500'000}, size_t{kRowCount / 3}}) {
      const auto expected = GenerateTableStatistics(*unencoded_, layout, max_sample_size);
      const auto actual = GenerateTableStatistics(*encoded_, layout, max_sample_size);
      ASSERT_EQ(actual->row_count, expected->row_count);
      for (auto column = size_t{0}; column < kColumnTypes.size(); ++column) {
        SCOPED_TRACE("column " + std::to_string(column) + ", sample " + std::to_string(max_sample_size));
        EXPECT_EQ(actual->column_statistics[column]->null_ratio, expected->column_statistics[column]->null_ratio);
        EXPECT_GT(expected->column_statistics[column]->null_ratio, 0.0);
        ResolveDataType(kColumnTypes[column], [&](auto type_tag) {
          using T = decltype(type_tag);
          const auto& expected_bins =
              static_cast<const AttributeStatistics<T>&>(*expected->column_statistics[column]).histogram->bins();
          const auto& actual_bins =
              static_cast<const AttributeStatistics<T>&>(*actual->column_statistics[column]).histogram->bins();
          ASSERT_EQ(actual_bins.size(), expected_bins.size());
          for (auto bin = size_t{0}; bin < expected_bins.size(); ++bin) {
            EXPECT_EQ(actual_bins[bin].min, expected_bins[bin].min) << "bin " << bin;
            EXPECT_EQ(actual_bins[bin].max, expected_bins[bin].max) << "bin " << bin;
            EXPECT_EQ(actual_bins[bin].height, expected_bins[bin].height) << "bin " << bin;
            EXPECT_EQ(actual_bins[bin].distinct_count, expected_bins[bin].distinct_count) << "bin " << bin;
          }
        });
      }
    }
  }
}

}  // namespace hyrise
