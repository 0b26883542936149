#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "expression/expressions.hpp"
#include "hyrise.hpp"
#include "logical_query_plan/lqp_translator.hpp"
#include "logical_query_plan/operator_nodes.hpp"
#include "logical_query_plan/stored_table_node.hpp"
#include "operators/index_scan.hpp"
#include "operators/table_scan.hpp"
#include "operators/table_wrapper.hpp"
#include "optimizer/optimizer.hpp"
#include "optimizer/rules/chunk_pruning_rule.hpp"
#include "statistics/table_statistics.hpp"
#include "storage/chunk_encoder.hpp"
#include "storage/index/abstract_chunk_index.hpp"
#include "storage/table.hpp"

namespace hyrise {

/// Differential test of literal typing: every numeric literal type against
/// INT, BIGINT, FLOAT and DOUBLE columns under every encoding. TableScan,
/// IndexScan (GroupKey indexes on dictionary chunks, TableScan's kernel on
/// the rest) and a ChunkPruningRule-pruned plan must each return the count
/// that the test computes from the generated rows, comparing in long double
/// (exact for every stored value and literal).
namespace {

constexpr auto kChunkSize = ChunkOffset{32};
constexpr auto kEncodedChunks = 5;
constexpr auto kMutableRows = 10;

struct DifferentialCase {
  DataType data_type;
  EncodingType encoding;
};

std::string CaseName(const ::testing::TestParamInfo<DifferentialCase>& info) {
  return std::string{DataTypeToString(info.param.data_type)} + "_" + EncodingTypeToString(info.param.encoding);
}

long double Exact(const AllTypeVariant& value) {
  return std::visit(
      [](const auto& typed) -> long double {
        if constexpr (std::is_arithmetic_v<std::decay_t<decltype(typed)>>) {
          return static_cast<long double>(typed);
        } else {
          Fail("Numeric value expected");
        }
      },
      value);
}

bool Compare(long double x, PredicateCondition condition, long double literal) {
  switch (condition) {
    case PredicateCondition::kEquals:
      return x == literal;
    case PredicateCondition::kNotEquals:
      return x != literal;
    case PredicateCondition::kLessThan:
      return x < literal;
    case PredicateCondition::kLessThanEquals:
      return x <= literal;
    case PredicateCondition::kGreaterThan:
      return x > literal;
    case PredicateCondition::kGreaterThanEquals:
      return x >= literal;
    default:
      Fail("Not a comparison");
  }
}

/// Chunk c holds values around (c - 2) * 10, so range literals fall between
/// chunks and min-max pruning has work to do. The type's negative extremes go
/// into the first chunk, its positive extremes into the last encoded one.
template <typename T>
std::vector<AllTypeVariant> GenerateValues(std::mt19937& rng) {
  auto extremes_low = std::vector<T>{};
  auto extremes_high = std::vector<T>{};
  auto step = T{1};
  if constexpr (std::is_integral_v<T>) {
    extremes_low = {std::numeric_limits<T>::min(), static_cast<T>(std::numeric_limits<T>::min() + 1)};
    extremes_high = {std::numeric_limits<T>::max(), static_cast<T>(std::numeric_limits<T>::max() - 1)};
    if constexpr (std::is_same_v<T, int64_t>) {
      extremes_low.insert(extremes_low.end(), {-4294967297, -4294967296, -1'000'000'000'000});
      extremes_high.insert(extremes_high.end(), {4294967296, 4294967306, 1'000'000'000'000, 1'000'000'000'001});
    }
  } else {
    step = T{0.25};
    constexpr auto kInfinity = std::numeric_limits<T>::infinity();
    extremes_low = {-kInfinity, std::numeric_limits<T>::lowest(), T{-1e12}};
    extremes_high = {kInfinity, std::numeric_limits<T>::max(), T{1e12}, T{0.1}, T{4294967296.5}};
  }

  auto values = std::vector<AllTypeVariant>{};
  for (auto chunk = 0; chunk <= kEncodedChunks; ++chunk) {
    const auto rows = chunk < kEncodedChunks ? static_cast<int>(kChunkSize) : kMutableRows;
    for (auto row = 0; row < rows; ++row) {
      if (rng() % 10 == 0) {
        values.emplace_back(kNullVariant);
        continue;
      }
      const auto& extremes = chunk == 0 ? extremes_low : extremes_high;
      if ((chunk == 0 || chunk == kEncodedChunks - 1) && static_cast<size_t>(row) < extremes.size()) {
        values.emplace_back(extremes[row]);
        continue;
      }
      const auto steps = static_cast<int>(rng() % static_cast<uint32_t>(10 / step));
      values.emplace_back(static_cast<T>((chunk - 2) * 10 + steps * step));
    }
  }
  return values;
}

/// The literals probed against every column: each numeric type, fractional
/// values between stored values, ±1e12, ±(2^32 + k), values beyond the FLOAT
/// and integer ranges, infinities and NaN, plus literals next to sampled
/// stored values.
std::vector<AllTypeVariant> GenerateLiterals(const std::vector<AllTypeVariant>& values, std::mt19937& rng) {
  constexpr auto kFloatInfinity = std::numeric_limits<float>::infinity();
  constexpr auto kDoubleInfinity = std::numeric_limits<double>::infinity();
  auto literals = std::vector<AllTypeVariant>{
      int32_t{-21}, int32_t{-20}, int32_t{0}, int32_t{9}, int32_t{10}, int32_t{29},
      std::numeric_limits<int32_t>::min(), std::numeric_limits<int32_t>::max(),
      int64_t{10}, int64_t{4294967306}, int64_t{-4294967306}, int64_t{4294967295}, int64_t{4294967297},
      int64_t{2147483648}, int64_t{-2147483649}, int64_t{1'000'000'000'000}, int64_t{-1'000'000'000'000},
      std::numeric_limits<int64_t>::min(), std::numeric_limits<int64_t>::max(),
      10.5f, -0.25f, 0.1f, 9.5f, 1e12f, -1e12f, 4294967296.0f, 3.4e38f, -3.4e38f, kFloatInfinity, -kFloatInfinity,
      10.5, 0.1, -9.75, 20.125, 1e12, -1e12, 1000000000000.5, 4294967306.0, -4294967306.5, 4294967296.5,
      2147483647.5, -2147483648.5, 9.3e18, -9.3e18, 3.5e38, -3.5e38, 1e39, -1e39, 1e300, kDoubleInfinity,
      -kDoubleInfinity, std::numeric_limits<double>::quiet_NaN()};
  for (auto sample = 0; sample < 6; ++sample) {
    const auto& value = values[rng() % values.size()];
    if (VariantIsNull(value) || !std::isfinite(static_cast<double>(Exact(value)))) {
      continue;
    }
    const auto exact = static_cast<double>(Exact(value));
    literals.insert(literals.end(), {value, exact, exact + 0.5, exact - 0.125});
  }
  return literals;
}

std::string Describe(const AllTypeVariant& value) {
  return VariantToString(value) + " (" + DataTypeToString(DataTypeOfVariant(value)) + ")";
}

}  // namespace

class LiteralTypingDifferentialTest : public ::testing::TestWithParam<DifferentialCase> {
 protected:
  void SetUp() override {
    Hyrise::Reset();
    auto rng = std::mt19937{42 + static_cast<uint32_t>(GetParam().data_type) * 7 +
                            static_cast<uint32_t>(GetParam().encoding)};
    ResolveDataType(GetParam().data_type, [&](auto type_tag) {
      if constexpr (std::is_arithmetic_v<decltype(type_tag)>) {
        values_ = GenerateValues<decltype(type_tag)>(rng);
      }
    });
    literals_ = GenerateLiterals(values_, rng);

    table_ = std::make_shared<Table>(TableColumnDefinitions{{"a", GetParam().data_type, true}}, TableType::kData,
                                     kChunkSize);
    const auto encoded_rows = values_.size() - kMutableRows;
    for (auto row = size_t{0}; row < encoded_rows; ++row) {
      table_->AppendRow({values_[row]});
    }
    ChunkEncoder::EncodeAllChunks(table_, SegmentEncodingSpec{GetParam().encoding});
    for (auto row = encoded_rows; row < values_.size(); ++row) {
      table_->AppendRow({values_[row]});  // A mutable tail: no statistics, no index.
    }
    GenerateChunkPruningStatistics(table_);
    if (GetParam().encoding == EncodingType::kDictionary) {
      // Chunk 1 stays unindexed: IndexScan runs TableScan's kernel there.
      for (auto chunk_id = ChunkID{0}; chunk_id < kEncodedChunks; ++chunk_id) {
        if (chunk_id != ChunkID{1}) {
          const auto chunk = table_->GetChunk(chunk_id);
          chunk->AddIndex({ColumnID{0}}, CreateChunkIndex(ChunkIndexType::kGroupKey, chunk->GetSegment(ColumnID{0})));
        }
      }
    }
    Hyrise::Get().storage_manager.AddTable("t", table_);
  }

  size_t ExpectedCount(PredicateCondition condition, const AllTypeVariant& value,
                       const std::optional<AllTypeVariant>& value2) const {
    auto count = size_t{0};
    for (const auto& stored : values_) {
      if (VariantIsNull(stored)) {
        continue;
      }
      const auto x = Exact(stored);
      if (condition == PredicateCondition::kBetweenInclusive) {
        count += Compare(x, PredicateCondition::kGreaterThanEquals, Exact(value)) &&
                 Compare(x, PredicateCondition::kLessThanEquals, Exact(*value2));
      } else {
        count += Compare(x, condition, Exact(value));
      }
    }
    return count;
  }

  ExpressionPtr MakePredicate(PredicateCondition condition, ExpressionPtr column, const AllTypeVariant& value,
                              const std::optional<AllTypeVariant>& value2, bool flipped = false) const {
    auto arguments = Expressions{std::move(column), std::make_shared<ValueExpression>(value)};
    if (value2) {
      arguments.push_back(std::make_shared<ValueExpression>(*value2));
    } else if (flipped) {
      std::swap(arguments[0], arguments[1]);
      condition = FlipPredicateCondition(condition);
    }
    return std::make_shared<PredicateExpression>(condition, std::move(arguments));
  }

  /// `flipped` writes the predicate as `value <flipped condition> a` and
  /// scans the reference segments an IS NOT NULL scan emits.
  size_t TableScanCount(PredicateCondition condition, const AllTypeVariant& value,
                        const std::optional<AllTypeVariant>& value2, bool flipped) const {
    const auto column = std::make_shared<PqpColumnExpression>(ColumnID{0}, GetParam().data_type, true, "a");
    auto input = std::shared_ptr<AbstractOperator>{std::make_shared<TableWrapper>(table_)};
    if (flipped) {
      input = std::make_shared<TableScan>(
          input, std::make_shared<PredicateExpression>(PredicateCondition::kIsNotNull, Expressions{column}));
    }
    auto scan = std::make_shared<TableScan>(input, MakePredicate(condition, column, value, value2, flipped));
    scan->Execute();
    return scan->get_output()->row_count();
  }

  size_t IndexScanCount(PredicateCondition condition, const AllTypeVariant& value,
                        const std::optional<AllTypeVariant>& value2) const {
    auto scan = std::make_shared<IndexScan>("t", std::vector<ChunkID>{}, ColumnID{0}, condition, value, value2);
    scan->Execute();
    return scan->get_output()->row_count();
  }

  size_t PrunedPlanCount(PredicateCondition condition, const AllTypeVariant& value,
                         const std::optional<AllTypeVariant>& value2) {
    const auto stored = StoredTableNode::Make("t");
    auto lqp = LqpNodePtr{
        PredicateNode::Make(MakePredicate(condition, stored->output_expressions()[0], value, value2), stored)};
    ApplyRuleRecursively(ChunkPruningRule{}, lqp);
    pruned_chunks_ += stored->pruned_chunk_ids.size();
    auto pqp = LqpTranslator{}.Translate(lqp);
    Assert(pqp.ok(), pqp.error());
    pqp.value()->Execute();
    return pqp.value()->get_output()->row_count();
  }

  void Check(PredicateCondition condition, const AllTypeVariant& value,
             const std::optional<AllTypeVariant>& value2 = std::nullopt) {
    const auto expected = ExpectedCount(condition, value, value2);
    const auto context = std::string{"a "} + PredicateConditionToString(condition) + " " + Describe(value) +
                         (value2 ? " AND " + Describe(*value2) : std::string{});
    EXPECT_EQ(TableScanCount(condition, value, value2, false), expected) << "TableScan: " << context;
    if (!value2) {
      EXPECT_EQ(TableScanCount(condition, value, value2, true), expected) << "TableScan, flipped, over references: " << context;
    }
    EXPECT_EQ(IndexScanCount(condition, value, value2), expected) << "IndexScan: " << context;
    EXPECT_EQ(PrunedPlanCount(condition, value, value2), expected) << "Pruned plan: " << context;
  }

  std::vector<AllTypeVariant> values_;
  std::vector<AllTypeVariant> literals_;
  std::shared_ptr<Table> table_;
  size_t pruned_chunks_{0};
};

TEST_P(LiteralTypingDifferentialTest, EveryEngineMatchesExactComparison) {
  for (const auto& literal : literals_) {
    for (const auto condition : {PredicateCondition::kLessThan, PredicateCondition::kLessThanEquals,
                                 PredicateCondition::kGreaterThan, PredicateCondition::kGreaterThanEquals,
                                 PredicateCondition::kEquals, PredicateCondition::kNotEquals}) {
      Check(condition, literal);
    }
  }
  auto rng = std::mt19937{7};
  for (auto pair = 0; pair < 60; ++pair) {
    Check(PredicateCondition::kBetweenInclusive, literals_[rng() % literals_.size()],
          literals_[rng() % literals_.size()]);
  }
  EXPECT_GT(pruned_chunks_, 0u) << "the pruned plans never pruned a chunk";
}

INSTANTIATE_TEST_SUITE_P(
    AllColumnTypesAndEncodings, LiteralTypingDifferentialTest,
    ::testing::Values(DifferentialCase{DataType::kInt, EncodingType::kDictionary},
                      DifferentialCase{DataType::kInt, EncodingType::kUnencoded},
                      DifferentialCase{DataType::kInt, EncodingType::kRunLength},
                      DifferentialCase{DataType::kInt, EncodingType::kFrameOfReference},
                      DifferentialCase{DataType::kLong, EncodingType::kDictionary},
                      DifferentialCase{DataType::kLong, EncodingType::kUnencoded},
                      DifferentialCase{DataType::kLong, EncodingType::kRunLength},
                      DifferentialCase{DataType::kLong, EncodingType::kFrameOfReference},
                      DifferentialCase{DataType::kFloat, EncodingType::kDictionary},
                      DifferentialCase{DataType::kFloat, EncodingType::kUnencoded},
                      DifferentialCase{DataType::kFloat, EncodingType::kRunLength},
                      DifferentialCase{DataType::kDouble, EncodingType::kDictionary},
                      DifferentialCase{DataType::kDouble, EncodingType::kUnencoded},
                      DifferentialCase{DataType::kDouble, EncodingType::kRunLength}),
    CaseName);

}  // namespace hyrise
