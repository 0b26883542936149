#include <gtest/gtest.h>

#include <random>

#include "hyrise.hpp"
#include "sql/sql_pipeline.hpp"
#include "statistics/counting_quotient_filter.hpp"
#include "statistics/min_max_filter.hpp"
#include "statistics/table_statistics.hpp"
#include "storage/chunk_encoder.hpp"
#include "storage/table.hpp"

namespace hyrise {

TEST(MinMaxFilterTest, PrunesOutOfRangePredicates) {
  const auto filter = MinMaxFilter<int32_t>{10, 20};
  EXPECT_TRUE(filter.CanPrune(PredicateCondition::kEquals, AllTypeVariant{5}));
  EXPECT_TRUE(filter.CanPrune(PredicateCondition::kEquals, AllTypeVariant{25}));
  EXPECT_FALSE(filter.CanPrune(PredicateCondition::kEquals, AllTypeVariant{15}));
  EXPECT_TRUE(filter.CanPrune(PredicateCondition::kLessThan, AllTypeVariant{10}));
  EXPECT_FALSE(filter.CanPrune(PredicateCondition::kLessThan, AllTypeVariant{11}));
  EXPECT_TRUE(filter.CanPrune(PredicateCondition::kLessThanEquals, AllTypeVariant{9}));
  EXPECT_TRUE(filter.CanPrune(PredicateCondition::kGreaterThan, AllTypeVariant{20}));
  EXPECT_TRUE(filter.CanPrune(PredicateCondition::kGreaterThanEquals, AllTypeVariant{21}));
  EXPECT_FALSE(filter.CanPrune(PredicateCondition::kGreaterThanEquals, AllTypeVariant{20}));
}

TEST(MinMaxFilterTest, BetweenPruning) {
  const auto filter = MinMaxFilter<int32_t>{10, 20};
  EXPECT_TRUE(filter.CanPrune(PredicateCondition::kBetweenInclusive, AllTypeVariant{21}, AllTypeVariant{30}));
  EXPECT_TRUE(filter.CanPrune(PredicateCondition::kBetweenInclusive, AllTypeVariant{1}, AllTypeVariant{9}));
  EXPECT_FALSE(filter.CanPrune(PredicateCondition::kBetweenInclusive, AllTypeVariant{15}, AllTypeVariant{30}));
}

TEST(MinMaxFilterTest, StringRangesAndLikePrefix) {
  const auto filter = MinMaxFilter<std::string>{"1994-01-01", "1994-12-31"};
  EXPECT_TRUE(filter.CanPrune(PredicateCondition::kGreaterThanEquals, AllTypeVariant{std::string{"1995-01-01"}}));
  EXPECT_FALSE(filter.CanPrune(PredicateCondition::kGreaterThanEquals, AllTypeVariant{std::string{"1994-06-01"}}));

  const auto name_filter = MinMaxFilter<std::string>{"apple", "banana"};
  EXPECT_TRUE(name_filter.CanPrune(PredicateCondition::kLike, AllTypeVariant{std::string{"cherry%"}}));
  EXPECT_FALSE(name_filter.CanPrune(PredicateCondition::kLike, AllTypeVariant{std::string{"app%"}}));
  EXPECT_FALSE(name_filter.CanPrune(PredicateCondition::kLike, AllTypeVariant{std::string{"%x"}}));
}

TEST(MinMaxFilterTest, NeverPrunesNullOrMismatchedTypes) {
  const auto filter = MinMaxFilter<int32_t>{10, 20};
  EXPECT_FALSE(filter.CanPrune(PredicateCondition::kEquals, kNullVariant));
  EXPECT_FALSE(filter.CanPrune(PredicateCondition::kEquals, AllTypeVariant{std::string{"x"}}));
}

TEST(CountingQuotientFilterTest, MembershipNoFalseNegatives) {
  auto filter = CountingQuotientFilter<int32_t>{1000};
  for (auto value = 0; value < 1000; value += 2) {
    filter.Insert(value);
  }
  for (auto value = 0; value < 1000; value += 2) {
    EXPECT_TRUE(filter.Contains(value)) << value;
  }
}

TEST(CountingQuotientFilterTest, LowFalsePositiveRate) {
  auto filter = CountingQuotientFilter<int32_t>{10'000};
  for (auto value = 0; value < 10'000; ++value) {
    filter.Insert(value);
  }
  auto false_positives = 0;
  for (auto value = 100'000; value < 110'000; ++value) {
    if (filter.Contains(value)) {
      ++false_positives;
    }
  }
  EXPECT_LT(false_positives, 100);  // < 1% for 16 remainder bits.
}

TEST(CountingQuotientFilterTest, CountsAreUpperBounds) {
  auto filter = CountingQuotientFilter<std::string>{100};
  filter.Insert("a");
  filter.Insert("a");
  filter.Insert("b");
  EXPECT_GE(filter.Count("a"), 2u);
  EXPECT_GE(filter.Count("b"), 1u);
  EXPECT_EQ(filter.Count("zzz"), 0u) << "collision in tiny filter is possible but unlikely";
}

TEST(CountingQuotientFilterTest, PrunesOnlyEquals) {
  auto filter = CountingQuotientFilter<int32_t>{100};
  filter.Insert(42);
  EXPECT_TRUE(filter.CanPrune(PredicateCondition::kEquals, AllTypeVariant{43}));
  EXPECT_FALSE(filter.CanPrune(PredicateCondition::kEquals, AllTypeVariant{42}));
  EXPECT_FALSE(filter.CanPrune(PredicateCondition::kLessThan, AllTypeVariant{0}));
}

class HistogramLayoutTest : public ::testing::TestWithParam<HistogramLayout> {};

INSTANTIATE_TEST_SUITE_P(AllLayouts, HistogramLayoutTest,
                         ::testing::Values(HistogramLayout::kEqualWidth, HistogramLayout::kEqualHeight,
                                           HistogramLayout::kEqualDistinctCount),
                         [](const auto& info) {
                           switch (info.param) {
                             case HistogramLayout::kEqualWidth:
                               return std::string{"EqualWidth"};
                             case HistogramLayout::kEqualHeight:
                               return std::string{"EqualHeight"};
                             default:
                               return std::string{"EqualDistinctCount"};
                           }
                         });

TEST_P(HistogramLayoutTest, TotalsPreserved) {
  auto values = std::vector<int32_t>{};
  auto rng = std::mt19937{7};
  for (auto index = 0; index < 10'000; ++index) {
    values.push_back(static_cast<int32_t>(rng() % 1000));
  }
  const auto histogram = Histogram<int32_t>::FromValues(values, GetParam());
  ASSERT_NE(histogram, nullptr);
  EXPECT_DOUBLE_EQ(histogram->total_count(), 10'000.0);
  EXPECT_DOUBLE_EQ(histogram->total_distinct_count(), 1000.0);
  EXPECT_LE(histogram->bins().size(), 64u);
}

TEST_P(HistogramLayoutTest, UniformRangeEstimatesWithinTolerance) {
  auto values = std::vector<int32_t>{};
  for (auto index = 0; index < 100'000; ++index) {
    values.push_back(index % 1000);  // Uniform over [0, 1000).
  }
  const auto histogram = Histogram<int32_t>::FromValues(values, GetParam());

  // column < 250 should be ~25%.
  const auto less_than = histogram->EstimateCardinality(PredicateCondition::kLessThan, 250);
  EXPECT_NEAR(less_than / histogram->total_count(), 0.25, 0.05);

  // column = 500 should be ~100 rows.
  const auto equals = histogram->EstimateCardinality(PredicateCondition::kEquals, 500);
  EXPECT_NEAR(equals, 100.0, 50.0);

  // BETWEEN 200 AND 399 should be ~20%.
  const auto between =
      histogram->EstimateCardinality(PredicateCondition::kBetweenInclusive, 200, std::optional<int32_t>{399});
  EXPECT_NEAR(between / histogram->total_count(), 0.2, 0.05);
}

TEST_P(HistogramLayoutTest, OutOfRangeIsZero) {
  auto values = std::vector<int32_t>{10, 20, 30};
  const auto histogram = Histogram<int32_t>::FromValues(values, GetParam());
  EXPECT_DOUBLE_EQ(histogram->EstimateCardinality(PredicateCondition::kEquals, 40), 0.0);
  EXPECT_DOUBLE_EQ(histogram->EstimateCardinality(PredicateCondition::kLessThan, 10), 0.0);
  EXPECT_DOUBLE_EQ(histogram->EstimateCardinality(PredicateCondition::kGreaterThan, 30), 0.0);
}

TEST_P(HistogramLayoutTest, PartialBinLeavesItsLargestValueAbove) {
  auto values = std::vector<double>{};
  for (auto value = 1; value <= 200; ++value) {
    values.push_back(value);
  }
  const auto histogram = Histogram<double>::FromValues(values, GetParam());
  // 200 is stored once, and it lies above 199.5 and is not below itself.
  EXPECT_GE(histogram->EstimateCardinality(PredicateCondition::kGreaterThan, 199.5), 1.0);
  EXPECT_GE(histogram->EstimateCardinality(PredicateCondition::kGreaterThanEquals, 200.0), 1.0);
  EXPECT_LE(histogram->EstimateCardinality(PredicateCondition::kLessThanEquals, 199.5), 199.0);
}

TEST(HistogramTest, EmptyInputYieldsNull) {
  EXPECT_EQ(Histogram<int32_t>::FromValues({}, HistogramLayout::kEqualHeight), nullptr);
}

TEST(HistogramTest, StringDomainInterpolation) {
  auto values = std::vector<std::string>{};
  for (auto year = 1992; year <= 1998; ++year) {
    for (auto month = 1; month <= 12; ++month) {
      values.push_back(std::to_string(year) + (month < 10 ? "-0" : "-") + std::to_string(month) + "-15");
    }
  }
  const auto histogram = Histogram<std::string>::FromValues(values, HistogramLayout::kEqualDistinctCount);
  const auto below_1995 = histogram->EstimateCardinality(PredicateCondition::kLessThan, std::string{"1995-01-01"});
  EXPECT_NEAR(below_1995 / histogram->total_count(), 3.0 / 7.0, 0.1);
}

TEST(GenerateStatisticsTest, TableStatisticsEndToEnd) {
  auto table = std::make_shared<Table>(TableColumnDefinitions{{"id", DataType::kInt}, {"name", DataType::kString, true}},
                                       TableType::kData, 1000);
  for (auto index = 0; index < 5000; ++index) {
    table->AppendRow({AllTypeVariant{index}, index % 10 == 0 ? kNullVariant : AllTypeVariant{"n" + std::to_string(index % 7)}});
  }
  const auto statistics = GenerateTableStatistics(*table);
  EXPECT_DOUBLE_EQ(statistics->row_count, 5000.0);
  ASSERT_EQ(statistics->column_statistics.size(), 2u);
  EXPECT_NEAR(statistics->column_statistics[1]->null_ratio, 0.1, 0.01);
  EXPECT_NEAR(statistics->column_statistics[0]->distinct_count(), 5000.0, 1.0);
  const auto selectivity =
      statistics->column_statistics[0]->EstimateSelectivity(PredicateCondition::kLessThan, AllTypeVariant{2500});
  EXPECT_NEAR(selectivity, 0.5, 0.05);
}

TEST(GenerateStatisticsTest, ChunkPruningStatisticsCreatedOnImmutableChunks) {
  auto table = std::make_shared<Table>(TableColumnDefinitions{{"v", DataType::kInt}}, TableType::kData, 100);
  for (auto index = 0; index < 250; ++index) {
    table->AppendRow({AllTypeVariant{index}});
  }
  GenerateChunkPruningStatistics(table);
  // Chunks 0 and 1 are full/immutable, chunk 2 is still mutable.
  ASSERT_EQ(table->chunk_count(), ChunkID{3});
  ASSERT_NE(table->GetChunk(ChunkID{0})->pruning_statistics(), nullptr);
  ASSERT_NE(table->GetChunk(ChunkID{1})->pruning_statistics(), nullptr);
  EXPECT_EQ(table->GetChunk(ChunkID{2})->pruning_statistics(), nullptr);

  const auto& filter = (*table->GetChunk(ChunkID{0})->pruning_statistics())[0];
  ASSERT_NE(filter, nullptr);
  // Chunk 0 holds 0..99.
  EXPECT_TRUE(filter->CanPrune(PredicateCondition::kEquals, AllTypeVariant{150}));
  EXPECT_TRUE(filter->CanPrune(PredicateCondition::kGreaterThan, AllTypeVariant{99}));
  EXPECT_FALSE(filter->CanPrune(PredicateCondition::kEquals, AllTypeVariant{50}));
}

TEST(GenerateStatisticsTest, CqfCatchesGapsMinMaxMisses) {
  auto table = std::make_shared<Table>(TableColumnDefinitions{{"v", DataType::kInt}}, TableType::kData, 100);
  for (auto index = 0; index < 100; ++index) {
    table->AppendRow({AllTypeVariant{index * 10}});  // 0, 10, ..., 990: gaps in between.
  }
  table->AppendMutableChunk();  // Finalize chunk 0.
  GenerateChunkPruningStatistics(table);
  const auto& filter = (*table->GetChunk(ChunkID{0})->pruning_statistics())[0];
  EXPECT_FALSE(filter->CanPrune(PredicateCondition::kEquals, AllTypeVariant{500}));
  EXPECT_TRUE(filter->CanPrune(PredicateCondition::kEquals, AllTypeVariant{505}));  // In range but absent.
}

TEST(GenerateStatisticsTest, NullableStringValuesBeforeFirstNullKeepTheirFilters) {
  // Chunk 0's largest value "zz" and its smallest "b" both sit before its
  // first NULL; "zz" occurs nowhere else.
  Hyrise::Reset();
  auto table =
      std::make_shared<Table>(TableColumnDefinitions{{"s", DataType::kString, true}}, TableType::kData, 5);
  for (const auto& value : std::vector<AllTypeVariant>{AllTypeVariant{std::string{"zz"}}, AllTypeVariant{std::string{"b"}},
                                                        kNullVariant, AllTypeVariant{std::string{"c"}}, kNullVariant,
                                                        AllTypeVariant{std::string{"a"}}}) {
    table->AppendRow({value});
  }
  GenerateChunkPruningStatistics(table);
  const auto& filter = (*table->GetChunk(ChunkID{0})->pruning_statistics())[0];
  ASSERT_NE(filter, nullptr);
  EXPECT_FALSE(filter->CanPrune(PredicateCondition::kEquals, AllTypeVariant{std::string{"zz"}}));
  EXPECT_FALSE(filter->CanPrune(PredicateCondition::kGreaterThan, AllTypeVariant{std::string{"y"}}));
  EXPECT_FALSE(filter->CanPrune(PredicateCondition::kEquals, AllTypeVariant{std::string{"b"}}));
  EXPECT_TRUE(filter->CanPrune(PredicateCondition::kLessThan, AllTypeVariant{std::string{"b"}}));

  // Through the optimizer's chunk pruning, the queries still find the row.
  Hyrise::Get().storage_manager.AddTable("t", table);
  EXPECT_EQ(ExecuteSql("SELECT s FROM t WHERE s = 'zz'")->row_count(), 1u);
  EXPECT_EQ(ExecuteSql("SELECT s FROM t WHERE s > 'y'")->row_count(), 1u);
  EXPECT_EQ(ExecuteSql("SELECT s FROM t WHERE s < 'b'")->row_count(), 1u);
  Hyrise::Reset();
}

}  // namespace hyrise
