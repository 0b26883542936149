#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>

#include "storage/chunk_encoder.hpp"
#include "storage/index/abstract_chunk_index.hpp"
#include "storage/index/adaptive_radix_tree.hpp"
#include "storage/index/art_chunk_index.hpp"
#include "storage/table.hpp"
#include "storage/value_segment.hpp"

namespace hyrise {

namespace {

/// Reference model: offsets of values matching a range, in ascending offset
/// order after sorting.
template <typename T>
std::vector<ChunkOffset> ReferenceRange(const std::multimap<T, ChunkOffset>& model, const std::optional<T>& lower,
                                        bool lower_inclusive, const std::optional<T>& upper, bool upper_inclusive) {
  auto result = std::vector<ChunkOffset>{};
  for (const auto& [key, offset] : model) {
    if (lower.has_value() && (lower_inclusive ? key < *lower : key <= *lower)) {
      continue;
    }
    if (upper.has_value() && (upper_inclusive ? key > *upper : key >= *upper)) {
      continue;
    }
    result.push_back(offset);
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<ChunkOffset> Sorted(std::vector<ChunkOffset> offsets) {
  std::sort(offsets.begin(), offsets.end());
  return offsets;
}

/// `row_count` nullable ints, about one NULL in eleven rows, each value
/// repeated for `run_length` rows. Rows 0..1999 hold values in [-200, 200),
/// each further 2000 rows the same range shifted up by 400, so that blocks of
/// a frame-of-reference segment have different minima. `model` maps each
/// value to its offsets.
struct RandomIntColumn {
  std::vector<std::optional<int32_t>> values;
  std::multimap<int32_t, ChunkOffset> model;
};

RandomIntColumn MakeRandomIntColumn(std::mt19937& rng, ChunkOffset row_count = 2000, ChunkOffset run_length = 1) {
  auto column = RandomIntColumn{};
  auto value = int32_t{0};
  for (auto offset = ChunkOffset{0}; offset < row_count; ++offset) {
    if (rng() % 11 == 0) {
      column.values.push_back(std::nullopt);
      continue;
    }
    if (offset % run_length == 0) {
      // Includes negatives to exercise the sign-flip key encoding.
      value = static_cast<int32_t>(rng() % 400) - 200 + static_cast<int32_t>(offset / 2000 * 400);
    }
    column.values.push_back(value);
    column.model.emplace(value, offset);
  }
  return column;
}

/// 50 equality and 50 range probes in [-250, -250 + probe_width), each
/// against the reference model.
void ExpectMatchesReferenceModel(const AbstractChunkIndex& index, const std::multimap<int32_t, ChunkOffset>& model,
                                 std::mt19937& rng, uint32_t probe_width = 500) {
  for (auto probe = 0; probe < 50; ++probe) {
    const auto value = static_cast<int32_t>(rng() % probe_width) - 250;
    auto result = std::vector<ChunkOffset>{};
    index.Equals(AllTypeVariant{value}, result);
    EXPECT_EQ(Sorted(result), ReferenceRange<int32_t>(model, value, true, value, true)) << "Equals " << value;
  }
  for (auto probe = 0; probe < 50; ++probe) {
    auto low = static_cast<int32_t>(rng() % probe_width) - 250;
    auto high = static_cast<int32_t>(rng() % probe_width) - 250;
    if (low > high) {
      std::swap(low, high);
    }
    const auto lower_inclusive = rng() % 2 == 0;
    const auto upper_inclusive = rng() % 2 == 0;
    auto result = std::vector<ChunkOffset>{};
    index.Range(AllTypeVariant{low}, lower_inclusive, AllTypeVariant{high}, upper_inclusive, result);
    EXPECT_EQ(Sorted(result), ReferenceRange<int32_t>(model, low, lower_inclusive, high, upper_inclusive))
        << low << (lower_inclusive ? " <= " : " < ") << "x" << (upper_inclusive ? " <= " : " < ") << high;
  }
}

}  // namespace

class ChunkIndexTest : public ::testing::TestWithParam<ChunkIndexType> {
 protected:
  // GroupKey needs a dictionary segment; by default every index gets that input.
  std::shared_ptr<AbstractChunkIndex> BuildIntIndex(
      const std::vector<std::optional<int32_t>>& values,
      const SegmentEncodingSpec& spec = SegmentEncodingSpec{EncodingType::kDictionary}) {
    auto segment = std::make_shared<ValueSegment<int32_t>>(true);
    for (const auto& value : values) {
      segment->Append(value.has_value() ? AllTypeVariant{*value} : kNullVariant);
    }
    return CreateChunkIndex(GetParam(), ChunkEncoder::EncodeSegment(segment, DataType::kInt, spec));
  }
};

INSTANTIATE_TEST_SUITE_P(AllIndexes, ChunkIndexTest,
                         ::testing::Values(ChunkIndexType::kAdaptiveRadixTree, ChunkIndexType::kBTree,
                                           ChunkIndexType::kGroupKey),
                         [](const auto& info) {
                           return std::string{ChunkIndexTypeToString(info.param)};
                         });

TEST_P(ChunkIndexTest, EqualsBasic) {
  const auto index = BuildIntIndex({{10}, {20}, {10}, std::nullopt, {30}});
  auto result = std::vector<ChunkOffset>{};
  index->Equals(AllTypeVariant{10}, result);
  EXPECT_EQ(Sorted(result), (std::vector<ChunkOffset>{0, 2}));

  result.clear();
  index->Equals(AllTypeVariant{99}, result);
  EXPECT_TRUE(result.empty());

  result.clear();
  index->Equals(kNullVariant, result);
  EXPECT_TRUE(result.empty()) << "NULLs are not indexed";
}

TEST_P(ChunkIndexTest, RangeBasic) {
  const auto index = BuildIntIndex({{5}, {15}, {25}, {35}, {45}});
  auto result = std::vector<ChunkOffset>{};
  index->Range(AllTypeVariant{15}, true, AllTypeVariant{35}, true, result);
  EXPECT_EQ(Sorted(result), (std::vector<ChunkOffset>{1, 2, 3}));

  result.clear();
  index->Range(AllTypeVariant{15}, false, AllTypeVariant{35}, false, result);
  EXPECT_EQ(Sorted(result), (std::vector<ChunkOffset>{2}));

  result.clear();
  index->Range(std::nullopt, true, AllTypeVariant{15}, true, result);
  EXPECT_EQ(Sorted(result), (std::vector<ChunkOffset>{0, 1}));

  result.clear();
  index->Range(AllTypeVariant{36}, true, std::nullopt, true, result);
  EXPECT_EQ(Sorted(result), (std::vector<ChunkOffset>{4}));
}

TEST_P(ChunkIndexTest, RandomizedAgainstReferenceModel) {
  auto rng = std::mt19937{99};
  const auto column = MakeRandomIntColumn(rng);
  ExpectMatchesReferenceModel(*BuildIntIndex(column.values), column.model, rng);
}

/// Indexes read their segment through the segment decoder: built from every
/// encoding, each must answer like the reference model. A group-key index
/// reads dictionary segments only.
TEST_P(ChunkIndexTest, RandomizedAgainstReferenceModelOnEveryEncoding) {
  for (const auto& spec :
       {SegmentEncodingSpec{EncodingType::kUnencoded},
        SegmentEncodingSpec{EncodingType::kDictionary, VectorCompressionType::kFixedWidthInteger},
        SegmentEncodingSpec{EncodingType::kDictionary, VectorCompressionType::kBitPacking128},
        SegmentEncodingSpec{EncodingType::kFrameOfReference, VectorCompressionType::kFixedWidthInteger},
        SegmentEncodingSpec{EncodingType::kFrameOfReference, VectorCompressionType::kBitPacking128},
        SegmentEncodingSpec{EncodingType::kRunLength}}) {
    if (GetParam() == ChunkIndexType::kGroupKey && spec.encoding_type != EncodingType::kDictionary) {
      continue;
    }
    SCOPED_TRACE(std::string{EncodingTypeToString(spec.encoding_type)} + "/" +
                 VectorCompressionTypeToString(spec.vector_compression));
    auto rng = std::mt19937{7};
    const auto column = MakeRandomIntColumn(rng, 6000, 3);  // Three frame-of-reference blocks.
    ExpectMatchesReferenceModel(*BuildIntIndex(column.values, spec), column.model, rng, 1300);
  }
}

TEST_P(ChunkIndexTest, StringIndex) {
  auto segment = std::make_shared<ValueSegment<std::string>>();
  for (const auto* value : {"delta", "alpha", "charlie", "bravo", "alpha"}) {
    segment->AppendTyped(value);
  }
  const auto encoded =
      ChunkEncoder::EncodeSegment(segment, DataType::kString, SegmentEncodingSpec{EncodingType::kDictionary});
  const auto index = CreateChunkIndex(GetParam(), encoded);

  auto result = std::vector<ChunkOffset>{};
  index->Equals(AllTypeVariant{std::string{"alpha"}}, result);
  EXPECT_EQ(Sorted(result), (std::vector<ChunkOffset>{1, 4}));

  result.clear();
  index->Range(AllTypeVariant{std::string{"b"}}, true, AllTypeVariant{std::string{"d"}}, false, result);
  EXPECT_EQ(Sorted(result), (std::vector<ChunkOffset>{2, 3}));
}

TEST_P(ChunkIndexTest, MemoryUsageNonZero) {
  const auto index = BuildIntIndex({{1}, {2}, {3}});
  EXPECT_GT(index->MemoryUsage(), 0u);
}

TEST(ArtTreeTest, PathCompressionSplit) {
  auto tree = ArtTree{};
  // Shared 9-byte prefix forces path compression, then a split.
  tree.Insert(EncodeArtKey(std::string{"prefix_aaa"}), 0);
  tree.Insert(EncodeArtKey(std::string{"prefix_aab"}), 1);
  tree.Insert(EncodeArtKey(std::string{"prefix_b"}), 2);
  EXPECT_EQ(tree.Lookup(EncodeArtKey(std::string{"prefix_aaa"}))->front(), 0u);
  EXPECT_EQ(tree.Lookup(EncodeArtKey(std::string{"prefix_aab"}))->front(), 1u);
  EXPECT_EQ(tree.Lookup(EncodeArtKey(std::string{"prefix_b"}))->front(), 2u);
  EXPECT_EQ(tree.Lookup(EncodeArtKey(std::string{"prefix_"})), nullptr);
  EXPECT_EQ(tree.Lookup(EncodeArtKey(std::string{"prefix_aac"})), nullptr);
}

TEST(ArtTreeTest, NodeGrowthThrough256) {
  auto tree = ArtTree{};
  // 300 distinct leading bytes under one root → grows 4 → 16 → 48 → 256.
  for (auto value = int32_t{0}; value < 300; ++value) {
    tree.Insert(EncodeArtKey(value * 65536), static_cast<ChunkOffset>(value));
  }
  for (auto value = int32_t{0}; value < 300; ++value) {
    const auto* postings = tree.Lookup(EncodeArtKey(value * 65536));
    ASSERT_NE(postings, nullptr) << value;
    EXPECT_EQ(postings->front(), static_cast<ChunkOffset>(value));
  }
}

TEST(ArtTreeTest, DuplicateKeysSharePostings) {
  auto tree = ArtTree{};
  tree.Insert(EncodeArtKey(int32_t{7}), 1);
  tree.Insert(EncodeArtKey(int32_t{7}), 5);
  const auto* postings = tree.Lookup(EncodeArtKey(int32_t{7}));
  ASSERT_NE(postings, nullptr);
  EXPECT_EQ(*postings, (std::vector<ChunkOffset>{1, 5}));
}

TEST(ArtKeyEncodingTest, OrderPreserving) {
  // Byte-wise order of encoded keys must equal value order.
  const auto check_order = [](const auto& smaller, const auto& larger) {
    const auto key_smaller = EncodeArtKey(smaller);
    const auto key_larger = EncodeArtKey(larger);
    EXPECT_TRUE(std::lexicographical_compare(key_smaller.begin(), key_smaller.end(), key_larger.begin(),
                                             key_larger.end()));
  };
  check_order(int32_t{-5}, int32_t{3});
  check_order(int32_t{-2'000'000'000}, int32_t{-1});
  check_order(int64_t{-1}, int64_t{0});
  check_order(-1.5f, -0.5f);
  check_order(-0.5f, 0.25f);
  check_order(1.5, 2.5);
  check_order(std::string{"abc"}, std::string{"abd"});
  check_order(std::string{"ab"}, std::string{"abc"});
}

}  // namespace hyrise
