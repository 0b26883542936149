#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>

#include "expression/expressions.hpp"
#include "hyrise.hpp"
#include "operators/join_hash.hpp"
#include "operators/join_nested_loop.hpp"
#include "operators/join_sort_merge.hpp"
#include "operators/pos_list_utils.hpp"
#include "operators/table_wrapper.hpp"
#include "storage/chunk_encoder.hpp"
#include "test_utils.hpp"

namespace hyrise {

namespace {

/// Column i of every oracle table has type kColumnTypes[i].
constexpr auto kColumnTypes =
    std::array{DataType::kInt, DataType::kLong, DataType::kFloat, DataType::kDouble, DataType::kString};

constexpr auto kConditions = std::array{PredicateCondition::kEquals,         PredicateCondition::kNotEquals,
                                        PredicateCondition::kLessThan,       PredicateCondition::kLessThanEquals,
                                        PredicateCondition::kGreaterThan,    PredicateCondition::kGreaterThanEquals};

enum class InputKind { kStored, kDictionary, kMixedEncodings, kReference };

enum class JoinImpl { kHash, kSortMerge, kNestedLoop };

/// Small value domains, so that every condition matches some pairs: integers
/// 0..5 and floating-point values 0.0..2.5 in steps of 0.5 (so int = float
/// holds for 0, 1 and 2), four strings, and about one NULL in eight.
std::shared_ptr<Table> RandomTable(std::mt19937& rng, size_t row_count, ChunkOffset chunk_size) {
  auto rows = std::vector<std::vector<AllTypeVariant>>{};
  for (auto row = size_t{0}; row < row_count; ++row) {
    auto values = std::vector<AllTypeVariant>{};
    for (const auto type : kColumnTypes) {
      const auto draw = static_cast<int32_t>(rng() % 6);
      if (rng() % 8 == 0) {
        values.push_back(kNullVariant);
      } else if (type == DataType::kInt) {
        values.emplace_back(draw);
      } else if (type == DataType::kLong) {
        values.emplace_back(int64_t{draw});
      } else if (type == DataType::kFloat) {
        values.emplace_back(static_cast<float>(draw) * 0.5f);
      } else if (type == DataType::kDouble) {
        values.emplace_back(static_cast<double>(draw) * 0.5);
      } else {
        values.emplace_back(std::string(1, static_cast<char>('a' + draw % 4)));
      }
    }
    rows.push_back(std::move(values));
  }
  return MakeTable({{"i", DataType::kInt, true},
                    {"l", DataType::kLong, true},
                    {"f", DataType::kFloat, true},
                    {"d", DataType::kDouble, true},
                    {"s", DataType::kString, true}},
                   rows, chunk_size);
}

/// Frame-of-reference (bit-packed) for the integer columns, run-length for
/// the others.
void EncodeMixed(const std::shared_ptr<Table>& table) {
  const auto frame_of_reference =
      SegmentEncodingSpec{EncodingType::kFrameOfReference, VectorCompressionType::kBitPacking128};
  const auto run_length = SegmentEncodingSpec{EncodingType::kRunLength};
  ChunkEncoder::EncodeAllChunks(
      table, std::vector<SegmentEncodingSpec>{frame_of_reference, frame_of_reference, run_length, run_length,
                                              run_length});
}

std::shared_ptr<const Table> PrepareInput(std::shared_ptr<Table> table, InputKind kind) {
  switch (kind) {
    case InputKind::kStored:
      return table;
    case InputKind::kDictionary:
      ChunkEncoder::EncodeAllChunks(table, SegmentEncodingSpec{EncodingType::kDictionary});
      return table;
    case InputKind::kMixedEncodings:
      EncodeMixed(table);
      return table;
    case InputKind::kReference: {
      // Two reference chunks over a mixed-encoded table: every row but each
      // third one, the second chunk in reverse order.
      EncodeMixed(table);
      auto first = std::vector<size_t>{};
      auto second = std::vector<size_t>{};
      for (auto row = size_t{0}; row < table->row_count(); ++row) {
        if (row % 3 != 2) {
          (row < table->row_count() / 2 ? first : second).push_back(row);
        }
      }
      std::reverse(second.begin(), second.end());
      auto reference = MakeReferenceTable(table);
      reference->AppendChunk(ComposeOutputSegments(table, first));
      reference->AppendChunk(ComposeOutputSegments(table, second));
      return reference;
    }
  }
  Fail("unreachable");
}

std::shared_ptr<AbstractOperator> Wrap(const std::shared_ptr<const Table>& table) {
  auto wrapper = std::make_shared<TableWrapper>(table);
  wrapper->Execute();
  return wrapper;
}

std::shared_ptr<AbstractJoinOperator> MakeJoin(JoinImpl impl, const std::shared_ptr<const Table>& left,
                                               const std::shared_ptr<const Table>& right, JoinMode mode,
                                               JoinOperatorPredicate primary, JoinOperatorPredicate secondary) {
  const auto secondaries = std::vector<JoinOperatorPredicate>{secondary};
  switch (impl) {
    case JoinImpl::kHash:
      return std::make_shared<JoinHash>(Wrap(left), Wrap(right), mode, primary, secondaries);
    case JoinImpl::kSortMerge:
      return std::make_shared<JoinSortMerge>(Wrap(left), Wrap(right), mode, primary, secondaries);
    case JoinImpl::kNestedLoop:
      return std::make_shared<JoinNestedLoop>(Wrap(left), Wrap(right), mode, primary, secondaries);
  }
  Fail("unreachable");
}

bool IsStringNumberPair(const JoinOperatorPredicate& predicate) {
  return (kColumnTypes[predicate.left_column] == DataType::kString) !=
         (kColumnTypes[predicate.right_column] == DataType::kString);
}

/// The oracle's comparison, independent of the operators' materialization:
/// both values cast to the PromoteDataTypes type through VariantCast, NULL
/// never matching.
bool OraclePasses(const JoinOperatorPredicate& predicate, const AllTypeVariant& lhs, const AllTypeVariant& rhs) {
  if (VariantIsNull(lhs) || VariantIsNull(rhs)) {
    return false;
  }
  auto passes = false;
  const auto type = PromoteDataTypes(kColumnTypes[predicate.left_column], kColumnTypes[predicate.right_column]);
  ResolveDataType(type, [&](auto type_tag) {
    using K = decltype(type_tag);
    const auto left = VariantCast<K>(lhs);
    const auto right = VariantCast<K>(rhs);
    switch (predicate.condition) {
      case PredicateCondition::kEquals:
        passes = left == right;
        return;
      case PredicateCondition::kNotEquals:
        passes = left != right;
        return;
      case PredicateCondition::kLessThan:
        passes = left < right;
        return;
      case PredicateCondition::kLessThanEquals:
        passes = left <= right;
        return;
      case PredicateCondition::kGreaterThan:
        passes = left > right;
        return;
      case PredicateCondition::kGreaterThanEquals:
        passes = left >= right;
        return;
      default:
        Fail("Not a join condition");
    }
  });
  return passes;
}

using RowIdPair = std::pair<RowID, RowID>;

/// The join as a plain nested loop over the inputs' rows, in the nested-loop
/// join's emission order, as pairs of RowIDs into the stored tables
/// (kNullRowId: NULL padding, or no right side for semi/anti joins).
std::vector<RowIdPair> OracleJoin(const std::shared_ptr<const Table>& left, const std::shared_ptr<const Table>& right,
                                  JoinMode mode, const std::vector<JoinOperatorPredicate>& predicates) {
  const auto left_rows = left->GetRows();
  const auto right_rows = right->GetRows();
  const auto left_ids = FlattenRowIds(left, ColumnID{0});
  const auto right_ids = FlattenRowIds(right, ColumnID{0});
  const auto emit_pairs =
      mode == JoinMode::kInner || mode == JoinMode::kLeft || mode == JoinMode::kRight || mode == JoinMode::kFullOuter;

  auto result = std::vector<RowIdPair>{};
  auto right_matched = std::vector<bool>(right_rows.size(), false);
  for (auto left_row = size_t{0}; left_row < left_rows.size(); ++left_row) {
    auto matched = false;
    for (auto right_row = size_t{0}; right_row < right_rows.size(); ++right_row) {
      const auto passes = std::all_of(predicates.begin(), predicates.end(), [&](const auto& predicate) {
        return OraclePasses(predicate, left_rows[left_row][predicate.left_column],
                            right_rows[right_row][predicate.right_column]);
      });
      if (!passes) {
        continue;
      }
      matched = true;
      right_matched[right_row] = true;
      if (emit_pairs) {
        result.emplace_back((*left_ids)[left_row], (*right_ids)[right_row]);
      }
    }
    if ((mode == JoinMode::kSemi && matched) || (mode == JoinMode::kAnti && !matched) ||
        ((mode == JoinMode::kLeft || mode == JoinMode::kFullOuter) && !matched)) {
      result.emplace_back((*left_ids)[left_row], kNullRowId);
    }
  }
  if (mode == JoinMode::kRight || mode == JoinMode::kFullOuter) {
    for (auto right_row = size_t{0}; right_row < right_rows.size(); ++right_row) {
      if (!right_matched[right_row]) {
        result.emplace_back(kNullRowId, (*right_ids)[right_row]);
      }
    }
  }
  return result;
}

/// The output rows of an executed join as RowID pairs into the stored tables.
std::vector<RowIdPair> OutputRowIds(const AbstractJoinOperator& join, ColumnID left_column_count) {
  const auto output = join.get_output();
  auto result = std::vector<RowIdPair>{};
  if (output->row_count() == 0) {
    return result;
  }
  const auto left_ids = FlattenRowIds(output, ColumnID{0});
  const auto semi_or_anti = join.mode() == JoinMode::kSemi || join.mode() == JoinMode::kAnti;
  const auto right_ids = semi_or_anti ? nullptr : FlattenRowIds(output, left_column_count);
  for (auto row = size_t{0}; row < left_ids->size(); ++row) {
    result.emplace_back((*left_ids)[row], right_ids ? (*right_ids)[row] : kNullRowId);
  }
  return result;
}

std::string Describe(JoinImpl impl, JoinMode mode, const std::vector<JoinOperatorPredicate>& predicates) {
  auto description = std::string{impl == JoinImpl::kHash        ? "JoinHash"
                                 : impl == JoinImpl::kSortMerge ? "JoinSortMerge"
                                                                : "JoinNestedLoop"} +
                     " (" + JoinModeToString(mode) + ")";
  for (const auto& predicate : predicates) {
    description += std::string{" "} + DataTypeToString(kColumnTypes[predicate.left_column]) + " " +
                   PredicateConditionToString(predicate.condition) + " " +
                   DataTypeToString(kColumnTypes[predicate.right_column]);
  }
  return description;
}

}  // namespace

/// Cross-checks every join implementation against a test-side nested loop
/// that shares no code with the operators' predicate checker: every mode,
/// every comparison condition, every pair of INT/BIGINT/FLOAT/DOUBLE/string
/// columns with NULLs, over stored, encoded and reference inputs, with two
/// predicates per join. A string compared with a number must throw.
class JoinPredicateOracleTest : public ::testing::TestWithParam<std::tuple<JoinImpl, InputKind>> {
 protected:
  void SetUp() override {
    Hyrise::Reset();
  }

  void RunJoin(JoinImpl impl, JoinMode mode, JoinOperatorPredicate primary, JoinOperatorPredicate secondary) {
    const auto predicates = std::vector<JoinOperatorPredicate>{primary, secondary};
    const auto description = Describe(impl, mode, predicates);
    const auto join = MakeJoin(impl, left_, right_, mode, primary, secondary);
    if (IsStringNumberPair(primary) || IsStringNumberPair(secondary)) {
      EXPECT_THROW(join->Execute(), std::invalid_argument) << description;
      ++mismatched_joins_;
      return;
    }
    join->Execute();
    auto expected = OracleJoin(left_, right_, mode, predicates);
    compared_rows_ += expected.size();
    auto actual = OutputRowIds(*join, ColumnID{static_cast<uint16_t>(kColumnTypes.size())});
    if (impl == JoinImpl::kSortMerge) {
      // The sort-merge join emits in key order; only the multiset is defined.
      std::sort(expected.begin(), expected.end());
      std::sort(actual.begin(), actual.end());
    }
    ASSERT_EQ(actual.size(), expected.size()) << description;
    EXPECT_TRUE(actual == expected) << description;
  }

  std::shared_ptr<const Table> left_;
  std::shared_ptr<const Table> right_;
  size_t mismatched_joins_{0};
  size_t compared_rows_{0};
};

TEST_P(JoinPredicateOracleTest, EveryModeConditionAndTypePairMatchesTheOracle) {
  const auto [impl, input_kind] = GetParam();
  auto rng = std::mt19937{29 + static_cast<uint32_t>(input_kind)};
  left_ = PrepareInput(RandomTable(rng, 37, 8), input_kind);
  right_ = PrepareInput(RandomTable(rng, 31, 6), input_kind);

  const auto modes = impl == JoinImpl::kNestedLoop
                         ? std::vector<JoinMode>{JoinMode::kInner, JoinMode::kLeft, JoinMode::kRight,
                                                 JoinMode::kFullOuter, JoinMode::kSemi, JoinMode::kAnti}
                         : std::vector<JoinMode>{JoinMode::kInner, JoinMode::kLeft, JoinMode::kSemi, JoinMode::kAnti};
  const auto column_count = static_cast<uint16_t>(kColumnTypes.size());
  for (auto left_column = uint16_t{0}; left_column < column_count; ++left_column) {
    for (auto right_column = uint16_t{0}; right_column < column_count; ++right_column) {
      for (const auto mode : modes) {
        for (const auto condition : kConditions) {
          // The hash and sort-merge joins need an equality primary, so the
          // condition sweep runs on their secondary predicate; the nested-
          // loop join sweeps its primary and draws the secondary condition.
          const auto nested_loop = impl == JoinImpl::kNestedLoop;
          const auto primary = JoinOperatorPredicate{ColumnID{left_column}, ColumnID{right_column},
                                                     nested_loop ? condition : PredicateCondition::kEquals};
          // The secondary predicate's columns are drawn at random, mostly
          // from compatible pairs, so that most joins reach the comparison.
          const auto secondary_left = static_cast<uint16_t>(rng() % column_count);
          auto secondary_right = static_cast<uint16_t>(rng() % column_count);
          if (rng() % 8 != 0 && (kColumnTypes[secondary_left] == DataType::kString) !=
                                    (kColumnTypes[secondary_right] == DataType::kString)) {
            secondary_right = secondary_left;
          }
          const auto secondary_condition = nested_loop ? kConditions[rng() % kConditions.size()] : condition;
          const auto secondary =
              JoinOperatorPredicate{ColumnID{secondary_left}, ColumnID{secondary_right}, secondary_condition};
          RunJoin(impl, mode, primary, secondary);
          if (HasFatalFailure()) {
            return;
          }
        }
      }
    }
  }
  // Guards against a sweep that degenerates into empty results or no
  // string-vs-number case.
  EXPECT_GT(mismatched_joins_, 0u);
  EXPECT_GT(compared_rows_, 5'000u);
}

INSTANTIATE_TEST_SUITE_P(
    AllImplsAndInputs, JoinPredicateOracleTest,
    ::testing::Combine(::testing::Values(JoinImpl::kHash, JoinImpl::kSortMerge, JoinImpl::kNestedLoop),
                       ::testing::Values(InputKind::kStored, InputKind::kDictionary, InputKind::kMixedEncodings,
                                         InputKind::kReference)),
    [](const auto& info) {
      const auto impl = std::get<0>(info.param);
      const auto kind = std::get<1>(info.param);
      return std::string{impl == JoinImpl::kHash        ? "Hash"
                         : impl == JoinImpl::kSortMerge ? "SortMerge"
                                                        : "NestedLoop"} +
             (kind == InputKind::kStored       ? "Stored"
              : kind == InputKind::kDictionary ? "Dictionary"
              : kind == InputKind::kMixedEncodings ? "MixedEncodings"
                                                   : "Reference");
    });

}  // namespace hyrise
