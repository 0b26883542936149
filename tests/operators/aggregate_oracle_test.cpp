#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "hyrise.hpp"
#include "operators/aggregate.hpp"
#include "operators/pos_list_utils.hpp"
#include "operators/table_wrapper.hpp"
#include "storage/chunk_encoder.hpp"
#include "test_utils.hpp"

namespace hyrise {

namespace {

/// Column i of the oracle table has type kColumnTypes[i].
constexpr auto kColumnTypes =
    std::array{DataType::kInt, DataType::kLong, DataType::kFloat, DataType::kDouble, DataType::kString};

constexpr auto kFunctions =
    std::array{AggregateFunction::kMin, AggregateFunction::kMax, AggregateFunction::kSum, AggregateFunction::kAvg,
               AggregateFunction::kCount, AggregateFunction::kCountDistinct};

constexpr auto kChunkSize = ChunkOffset{8};

enum class InputKind {
  kMixedStored,                  // Chunks unencoded, dictionary, frame-of-reference, run-length in turn.
  kDictionaryStored,             // Every immutable chunk dictionary-encoded.
  kMixedScanReferences,          // A scan's output over kMixedStored: single-chunk pos lists.
  kDictionaryScanReferences,     // The same over kDictionaryStored.
  kMixedJoinReferences,          // A join's output over kMixedStored: multi-chunk pos lists.
};

/// Small value domains, so that groups repeat: integers -2..3, floating-point
/// values -1.0..1.5 in steps of 0.5 and -0.0 beside 0.0, four strings, and
/// about one NULL in seven. The last chunk stays mutable.
std::shared_ptr<Table> RandomTable(std::mt19937& rng, size_t row_count) {
  auto rows = std::vector<std::vector<AllTypeVariant>>{};
  for (auto row = size_t{0}; row < row_count; ++row) {
    auto values = std::vector<AllTypeVariant>{};
    for (const auto type : kColumnTypes) {
      const auto draw = static_cast<int32_t>(rng() % 7) - 2;  // -2..4; 4 stands for -0.0.
      if (rng() % 7 == 0) {
        values.push_back(kNullVariant);
      } else if (type == DataType::kInt) {
        values.emplace_back(std::min(draw, 3));
      } else if (type == DataType::kLong) {
        values.emplace_back(int64_t{std::min(draw, 3)});
      } else if (type == DataType::kFloat) {
        values.emplace_back(draw == 4 ? -0.0f : static_cast<float>(draw) * 0.5f);
      } else if (type == DataType::kDouble) {
        values.emplace_back(draw == 4 ? -0.0 : static_cast<double>(draw) * 0.5);
      } else {
        values.emplace_back(std::string(1 + (draw + 2) % 3, static_cast<char>('a' + (draw + 2) % 4)));
      }
    }
    rows.push_back(std::move(values));
  }
  return MakeTable({{"i", DataType::kInt, true},
                    {"l", DataType::kLong, true},
                    {"f", DataType::kFloat, true},
                    {"d", DataType::kDouble, true},
                    {"s", DataType::kString, true}},
                   rows, kChunkSize);
}

/// Encodes every immutable chunk: all dictionary, or the encodings in turn
/// (frame-of-reference falls back to dictionary on non-integer columns).
void EncodeChunks(const std::shared_ptr<Table>& table, bool mixed) {
  const auto types = std::vector<DataType>(kColumnTypes.begin(), kColumnTypes.end());
  const auto chunk_count = table->chunk_count();
  for (auto chunk_id = ChunkID{0}; chunk_id < chunk_count; ++chunk_id) {
    const auto chunk = table->GetChunk(chunk_id);
    if (chunk->IsMutable()) {
      continue;
    }
    auto spec = SegmentEncodingSpec{EncodingType::kDictionary};
    if (mixed) {
      switch (chunk_id % 4) {
        case 0:
          continue;  // Unencoded.
        case 1:
          break;
        case 2:
          spec = SegmentEncodingSpec{EncodingType::kFrameOfReference, VectorCompressionType::kBitPacking128};
          break;
        default:
          spec = SegmentEncodingSpec{EncodingType::kRunLength};
      }
    }
    ChunkEncoder::EncodeChunk(chunk, types, std::vector<SegmentEncodingSpec>(types.size(), spec));
  }
}

std::shared_ptr<const Table> PrepareInput(std::mt19937& rng, InputKind kind) {
  auto table = RandomTable(rng, 61);
  const auto mixed = kind == InputKind::kMixedStored || kind == InputKind::kMixedScanReferences ||
                     kind == InputKind::kMixedJoinReferences;
  EncodeChunks(table, mixed);
  EXPECT_TRUE(table->GetChunk(ChunkID{table->chunk_count() - 1})->IsMutable());
  switch (kind) {
    case InputKind::kMixedStored:
    case InputKind::kDictionaryStored:
      return table;
    case InputKind::kMixedScanReferences:
    case InputKind::kDictionaryScanReferences: {
      // Per chunk, every row but each third one.
      auto references = MakeReferenceTable(table);
      for (auto chunk_id = ChunkID{0}; chunk_id < table->chunk_count(); ++chunk_id) {
        auto matches = std::vector<ChunkOffset>{};
        for (auto offset = ChunkOffset{0}; offset < table->GetChunk(chunk_id)->size(); ++offset) {
          if ((chunk_id + offset) % 3 != 2) {
            matches.push_back(offset);
          }
        }
        references->AppendChunk(ComposeFilteredSegments(table, chunk_id, matches));
      }
      return references;
    }
    case InputKind::kMixedJoinReferences: {
      // Three chunks of shuffled rows from all chunks, some rows twice.
      auto rows = std::vector<size_t>{};
      for (auto row = size_t{0}; row < table->row_count(); ++row) {
        rows.push_back(row);
        if (row % 5 == 0) {
          rows.push_back(row);
        }
      }
      std::shuffle(rows.begin(), rows.end(), rng);
      auto references = MakeReferenceTable(table);
      const auto third = rows.size() / 3;
      for (auto part = size_t{0}; part < 3; ++part) {
        const auto end = part == 2 ? rows.end() : rows.begin() + static_cast<std::ptrdiff_t>((part + 1) * third);
        const auto begin = rows.begin() + static_cast<std::ptrdiff_t>(part * third);
        references->AppendChunk(ComposeOutputSegments(table, std::vector<size_t>(begin, end)));
      }
      return references;
    }
  }
  Fail("unreachable");
}

/// Orders group keys as SQL groups them: NULL is one value, and -0.0 and
/// +0.0 compare equal.
struct KeyLess {
  bool operator()(const std::vector<AllTypeVariant>& lhs, const std::vector<AllTypeVariant>& rhs) const {
    return std::lexicographical_compare(lhs.begin(), lhs.end(), rhs.begin(), rhs.end(), VariantLessThan);
  }
};

struct VariantLess {
  bool operator()(const AllTypeVariant& lhs, const AllTypeVariant& rhs) const {
    return VariantLessThan(lhs, rhs);
  }
};

/// The aggregate as the test computes it, from the input's rows in order:
/// groups in first-occurrence order, each aggregate over its non-NULL inputs.
std::vector<std::vector<AllTypeVariant>> OracleAggregate(const Table& input, const std::vector<ColumnID>& groups,
                                                         const std::vector<AggregateColumnDefinition>& aggregates) {
  const auto rows = input.GetRows();
  auto group_of_key = std::map<std::vector<AllTypeVariant>, size_t, KeyLess>{};
  auto group_rows = std::vector<std::vector<size_t>>{};
  auto keys = std::vector<std::vector<AllTypeVariant>>{};
  for (auto row = size_t{0}; row < rows.size(); ++row) {
    auto key = std::vector<AllTypeVariant>{};
    for (const auto column_id : groups) {
      key.push_back(rows[row][column_id]);
    }
    const auto [entry, inserted] = group_of_key.emplace(key, group_rows.size());
    if (inserted) {
      group_rows.emplace_back();
      keys.push_back(key);
    }
    group_rows[entry->second].push_back(row);
  }
  if (groups.empty() && group_rows.empty()) {
    group_rows.emplace_back();
    keys.emplace_back();
  }

  auto result = std::vector<std::vector<AllTypeVariant>>{};
  for (auto group = size_t{0}; group < group_rows.size(); ++group) {
    auto output_row = keys[group];
    for (const auto& aggregate : aggregates) {
      if (!aggregate.column) {
        output_row.emplace_back(static_cast<int64_t>(group_rows[group].size()));
        continue;
      }
      auto values = std::vector<AllTypeVariant>{};
      for (const auto row : group_rows[group]) {
        if (!VariantIsNull(rows[row][*aggregate.column])) {
          values.push_back(rows[row][*aggregate.column]);
        }
      }
      const auto count = static_cast<int64_t>(values.size());
      auto sum = 0.0;
      for (const auto& value : values) {
        sum += kColumnTypes[*aggregate.column] == DataType::kString ? 0.0 : VariantCast<double>(value);
      }
      switch (aggregate.function) {
        case AggregateFunction::kMin:
          output_row.push_back(count == 0 ? kNullVariant
                                          : *std::min_element(values.begin(), values.end(), VariantLess{}));
          break;
        case AggregateFunction::kMax:
          output_row.push_back(count == 0 ? kNullVariant
                                          : *std::max_element(values.begin(), values.end(), VariantLess{}));
          break;
        case AggregateFunction::kSum:
          output_row.push_back(count == 0 ? kNullVariant : AllTypeVariant{sum});
          break;
        case AggregateFunction::kAvg:
          output_row.push_back(count == 0 ? kNullVariant : AllTypeVariant{sum / static_cast<double>(count)});
          break;
        case AggregateFunction::kCount:
          output_row.emplace_back(count);
          break;
        case AggregateFunction::kCountDistinct:
          output_row.emplace_back(
              static_cast<int64_t>(std::set<AllTypeVariant, VariantLess>(values.begin(), values.end()).size()));
          break;
      }
    }
    result.push_back(std::move(output_row));
  }
  return result;
}

/// COUNT(*), then every function over every column it applies to.
std::vector<AggregateColumnDefinition> AllAggregates() {
  auto aggregates = std::vector<AggregateColumnDefinition>{{AggregateFunction::kCount, std::nullopt}};
  for (auto column = uint16_t{0}; column < kColumnTypes.size(); ++column) {
    for (const auto function : kFunctions) {
      const auto numeric_only = function == AggregateFunction::kSum || function == AggregateFunction::kAvg;
      if (!numeric_only || kColumnTypes[column] != DataType::kString) {
        aggregates.push_back({function, ColumnID{column}});
      }
    }
  }
  return aggregates;
}

std::shared_ptr<const Table> RunAggregate(const std::shared_ptr<const Table>& input, std::vector<ColumnID> groups,
                                          std::vector<AggregateColumnDefinition> aggregates) {
  auto wrapper = std::make_shared<TableWrapper>(input);
  wrapper->Execute();
  auto aggregate = std::make_shared<Aggregate>(wrapper, std::move(groups), std::move(aggregates));
  aggregate->Execute();
  return aggregate->get_output();
}

}  // namespace

/// Cross-checks Aggregate against a test-side std::map reference that
/// shares no code with it: 0 to 3 group columns of INT/BIGINT/FLOAT/DOUBLE/
/// string with NULLs, every aggregate function over every column, on stored
/// chunks of every encoding plus a mutable last chunk, and through a scan's
/// single-chunk and a join's multi-chunk pos lists. Dictionary chunks group
/// on codes, the others on values; both must give the reference's groups in
/// first-occurrence order.
class AggregateOracleTest : public ::testing::TestWithParam<InputKind> {
 protected:
  void SetUp() override {
    Hyrise::Reset();
  }
};

TEST_P(AggregateOracleTest, EveryGroupingAndFunctionMatchesTheOracle) {
  auto rng = std::mt19937{41 + static_cast<uint32_t>(GetParam())};
  const auto input = PrepareInput(rng, GetParam());
  const auto aggregates = AllAggregates();
  const auto column_count = static_cast<uint16_t>(kColumnTypes.size());

  auto group_sets = std::vector<std::vector<ColumnID>>{{}};
  for (auto first = uint16_t{0}; first < column_count; ++first) {
    group_sets.push_back({ColumnID{first}});
    for (auto second = uint16_t{0}; second < column_count; ++second) {
      if (second != first) {
        group_sets.push_back({ColumnID{first}, ColumnID{second}});
        auto third = static_cast<uint16_t>((second + 1) % column_count);
        if (third == first) {
          third = static_cast<uint16_t>((second + 2) % column_count);
        }
        group_sets.push_back({ColumnID{first}, ColumnID{second}, ColumnID{third}});
      }
    }
  }

  auto compared_groups = size_t{0};
  for (const auto& groups : group_sets) {
    auto description = std::string{"GROUP BY"};
    for (const auto column_id : groups) {
      description += std::string{" "} + DataTypeToString(kColumnTypes[column_id]);
    }
    const auto expected = OracleAggregate(*input, groups, aggregates);
    const auto actual = RunAggregate(input, groups, aggregates)->GetRows();
    ASSERT_EQ(actual.size(), expected.size()) << description;
    for (auto row = size_t{0}; row < expected.size(); ++row) {
      ASSERT_TRUE(RowsEqual(actual[row], expected[row]))
          << description << ", group " << row << "\nactual:   " << RowsToString({actual[row]})
          << "expected: " << RowsToString({expected[row]});
    }
    compared_groups += expected.size();
  }
  // Guards against a sweep that degenerates into few groups.
  EXPECT_GT(compared_groups, 1'000u);
}

INSTANTIATE_TEST_SUITE_P(AllInputs, AggregateOracleTest,
                         ::testing::Values(InputKind::kMixedStored, InputKind::kDictionaryStored,
                                           InputKind::kMixedScanReferences, InputKind::kDictionaryScanReferences,
                                           InputKind::kMixedJoinReferences),
                         [](const auto& info) {
                           switch (info.param) {
                             case InputKind::kMixedStored:
                               return std::string{"MixedStored"};
                             case InputKind::kDictionaryStored:
                               return std::string{"DictionaryStored"};
                             case InputKind::kMixedScanReferences:
                               return std::string{"MixedScanReferences"};
                             case InputKind::kDictionaryScanReferences:
                               return std::string{"DictionaryScanReferences"};
                             case InputKind::kMixedJoinReferences:
                               return std::string{"MixedJoinReferences"};
                           }
                           return std::string{};
                         });

/// SQL compares -0.0 and +0.0 equal, so they form one group, on dictionary
/// codes (a dictionary holds one zero) and on decoded values alike.
TEST(AggregateZeroTest, NegativeAndPositiveZeroFormOneGroup) {
  for (const auto encode : {false, true}) {
    Hyrise::Reset();
    const auto table =
        MakeTable({{"f", DataType::kFloat}, {"d", DataType::kDouble}},
                  {{0.0f, -0.0}, {-0.0f, 0.0}, {1.0f, 1.0}, {-0.0f, -0.0}, {0.0f, 0.0}, {1.0f, 1.0}}, 3);
    if (encode) {
      ChunkEncoder::EncodeAllChunks(table, SegmentEncodingSpec{EncodingType::kDictionary});
    }
    for (const auto column_id : {ColumnID{0}, ColumnID{1}}) {
      const auto output =
          RunAggregate(table, {column_id}, {{AggregateFunction::kCount, std::nullopt}});
      ExpectTableContents(output, {{0.0, int64_t{4}}, {1.0, int64_t{2}}}, true);
    }
    const auto output = RunAggregate(table, {ColumnID{0}, ColumnID{1}}, {{AggregateFunction::kCount, std::nullopt}});
    EXPECT_EQ(output->row_count(), 2u) << (encode ? "dictionary" : "unencoded");
  }
}

}  // namespace hyrise
