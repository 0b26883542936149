#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "expression/expressions.hpp"
#include "hyrise.hpp"
#include "operators/join_hash.hpp"
#include "operators/table_scan.hpp"
#include "operators/table_wrapper.hpp"
#include "operators/union_all.hpp"
#include "storage/chunk_encoder.hpp"
#include "storage/reference_segment.hpp"
#include "test_utils.hpp"

namespace hyrise {

namespace {

ExpressionPtr Column(ColumnID id, DataType type) {
  return std::make_shared<PqpColumnExpression>(id, type, /*nullable=*/true, "c" + std::to_string(id));
}

ExpressionPtr Value(AllTypeVariant value) {
  return std::make_shared<ValueExpression>(std::move(value));
}

ExpressionPtr Predicate(PredicateCondition condition, Expressions arguments) {
  return std::make_shared<PredicateExpression>(condition, std::move(arguments));
}

ExpressionPtr In(PredicateCondition condition, const ExpressionPtr& column, const std::vector<AllTypeVariant>& list) {
  auto elements = Expressions{};
  for (const auto& element : list) {
    elements.push_back(Value(element));
  }
  return Predicate(condition, {column, std::make_shared<ListExpression>(std::move(elements))});
}

/// `column IN (e1, e2, ...)` as `column = e1 OR column = e2 ...` and NOT IN
/// as `column <> e1 AND ...`: the three-valued reference the expression
/// evaluator computes without the IN kernel.
ExpressionPtr InAsLogical(PredicateCondition condition, const ExpressionPtr& column,
                          const std::vector<AllTypeVariant>& list) {
  const auto invert = condition == PredicateCondition::kNotIn;
  auto result = ExpressionPtr{};
  for (const auto& element : list) {
    auto term = Predicate(invert ? PredicateCondition::kNotEquals : PredicateCondition::kEquals,
                          {column, Value(element)});
    result = result ? std::make_shared<LogicalExpression>(invert ? LogicalOperator::kAnd : LogicalOperator::kOr,
                                                          result, term)
                    : term;
  }
  return result;
}

struct EncodingConfig {
  const char* name;
  SegmentEncodingSpec spec;
};

// Frame of reference falls back to dictionary for the string columns.
const EncodingConfig kEncodings[] = {
    {"dictionary/fixed", {EncodingType::kDictionary, VectorCompressionType::kFixedWidthInteger}},
    {"dictionary/bp128", {EncodingType::kDictionary, VectorCompressionType::kBitPacking128}},
    {"for/fixed", {EncodingType::kFrameOfReference, VectorCompressionType::kFixedWidthInteger}},
    {"for/bp128", {EncodingType::kFrameOfReference, VectorCompressionType::kBitPacking128}},
    {"runlength/fixed", {EncodingType::kRunLength, VectorCompressionType::kFixedWidthInteger}},
    {"runlength/bp128", {EncodingType::kRunLength, VectorCompressionType::kBitPacking128}},
};

// Columns: keep (filter key of the input shapes), then an int column a with
// three partners whose dictionaries are disjoint from, overlapping with and
// identical to a's in every chunk, then the same for a string column s.
constexpr auto kKeep = ColumnID{0};
constexpr auto kA = ColumnID{1};
constexpr auto kS = ColumnID{5};
const auto kIntPartners = std::vector<ColumnID>{ColumnID{2}, ColumnID{3}, ColumnID{4}};
const auto kStringPartners = std::vector<ColumnID>{ColumnID{6}, ColumnID{7}, ColumnID{8}};

const PredicateCondition kComparisons[] = {
    PredicateCondition::kEquals,         PredicateCondition::kNotEquals,   PredicateCondition::kLessThan,
    PredicateCondition::kLessThanEquals, PredicateCondition::kGreaterThan, PredicateCondition::kGreaterThanEquals,
};

constexpr auto kChunkSize = ChunkOffset{211};
constexpr auto kRowCount = size_t{1500};  // Seven full chunks and a partial one.

AllTypeVariant MaybeNull(std::mt19937& rng, AllTypeVariant value) {
  return rng() % 10 == 0 ? kNullVariant : value;
}

std::string Key(const char* prefix, uint32_t number) {
  return prefix + std::string(number < 10 ? "0" : "") + std::to_string(number);
}

std::vector<std::vector<AllTypeVariant>> MakeRows() {
  auto rng = std::mt19937{19};
  auto rows = std::vector<std::vector<AllTypeVariant>>{};
  for (auto chunk_begin = size_t{0}; chunk_begin < kRowCount; chunk_begin += kChunkSize) {
    const auto chunk_rows = std::min(static_cast<size_t>(kChunkSize), kRowCount - chunk_begin);
    auto a_values = std::vector<AllTypeVariant>{};
    auto s_values = std::vector<AllTypeVariant>{};
    for (auto index = size_t{0}; index < chunk_rows; ++index) {
      a_values.push_back(MaybeNull(rng, static_cast<int32_t>(rng() % 40)));
      s_values.push_back(MaybeNull(rng, Key("k", rng() % 40)));
    }
    // A permutation of a column has the same dictionary.
    auto a_shuffled = a_values;
    auto s_shuffled = s_values;
    std::shuffle(a_shuffled.begin(), a_shuffled.end(), rng);
    std::shuffle(s_shuffled.begin(), s_shuffled.end(), rng);
    for (auto index = size_t{0}; index < chunk_rows; ++index) {
      rows.push_back({static_cast<int32_t>(rng() % 4), a_values[index],
                      MaybeNull(rng, static_cast<int32_t>(100 + rng() % 40)),
                      MaybeNull(rng, static_cast<int32_t>(20 + rng() % 40)), a_shuffled[index], s_values[index],
                      MaybeNull(rng, Key("x", rng() % 40)), MaybeNull(rng, Key("k", 20 + rng() % 40)),
                      s_shuffled[index]});
    }
  }
  return rows;
}

std::shared_ptr<TableWrapper> Wrap(const std::shared_ptr<const Table>& table) {
  auto wrapper = std::make_shared<TableWrapper>(table);
  wrapper->Execute();
  return wrapper;
}

std::shared_ptr<AbstractOperator> Executed(std::shared_ptr<AbstractOperator> op) {
  op->Execute();
  return op;
}

std::shared_ptr<AbstractOperator> Scan(const std::shared_ptr<AbstractOperator>& input, const ExpressionPtr& predicate) {
  return Executed(std::make_shared<TableScan>(input, predicate->DeepCopy()));
}

ExpressionPtr KeepIs(PredicateCondition condition, int32_t value) {
  return Predicate(condition, {Column(kKeep, DataType::kInt), Value(value)});
}

/// The inputs a scan meets: the stored table, the output of a scan chain
/// (single-chunk pos lists), the UNION ALL of two scans, and a join output
/// (pos lists spanning chunks).
struct InputShape {
  const char* name;
  std::function<std::shared_ptr<AbstractOperator>(const std::shared_ptr<TableWrapper>&)> make;
};

const InputShape kShapes[] = {
    {"stored",
     [](const auto& table) {
       return std::shared_ptr<AbstractOperator>{table};
     }},
    {"scan chain",
     [](const auto& table) {
       return Scan(Scan(table, KeepIs(PredicateCondition::kGreaterThan, 0)),
                   KeepIs(PredicateCondition::kLessThan, 3));
     }},
    {"union all",
     [](const auto& table) {
       return Executed(std::make_shared<UnionAll>(Scan(table, KeepIs(PredicateCondition::kEquals, 0)),
                                                  Scan(table, KeepIs(PredicateCondition::kGreaterThan, 1))));
     }},
    {"join",
     [](const auto& table) {
       const auto keys = Wrap(MakeTable({{"k", DataType::kInt}}, {{1}, {2}, {3}}));
       return Executed(std::make_shared<JoinHash>(table, keys, JoinMode::kInner,
                                                  JoinOperatorPredicate{kKeep, ColumnID{0}}));
     }},
};

/// The scan output's RowIDs (column 0), flattened across output chunks.
RowIDPosList ScanPositions(const std::shared_ptr<AbstractOperator>& input, const ExpressionPtr& predicate) {
  const auto output = Scan(input, predicate)->get_output();
  auto positions = RowIDPosList{};
  for (auto chunk_id = ChunkID{0}; chunk_id < output->chunk_count(); ++chunk_id) {
    const auto segment = output->GetChunk(chunk_id)->GetSegment(ColumnID{0});
    const auto& pos_list = *dynamic_cast<const ReferenceSegment&>(*segment).pos_list();
    positions.insert(positions.end(), pos_list.begin(), pos_list.end());
  }
  return positions;
}

}  // namespace

/// Differential test of the value-ID scan paths (DESIGN.md §5d): every
/// predicate runs over stored segments, scan-chain outputs, UNION ALL outputs
/// and join outputs, under every encoding x vector compression, and must
/// return exactly the RowIDs, in order, of the same plan over the
/// never-encoded table.
class DictionaryCodeScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Hyrise::Reset();
    const auto rows = MakeRows();
    const auto definitions = TableColumnDefinitions{
        {"keep", DataType::kInt},         {"a", DataType::kInt, true},      {"b_disjoint", DataType::kInt, true},
        {"b_overlap", DataType::kInt, true}, {"b_identical", DataType::kInt, true}, {"s", DataType::kString, true},
        {"t_disjoint", DataType::kString, true}, {"t_overlap", DataType::kString, true},
        {"t_identical", DataType::kString, true}};
    unencoded_ = Wrap(MakeTable(definitions, rows, kChunkSize));
    for (const auto& encoding : kEncodings) {
      auto table = MakeTable(definitions, rows, kChunkSize);
      ChunkEncoder::EncodeAllChunks(table, encoding.spec);
      encoded_.push_back(Wrap(table));
    }
  }

  /// `predicate` over each encoded input must match `reference` (default:
  /// `predicate` itself) over the never-encoded one.
  void ExpectSameRows(const ExpressionPtr& predicate, const ExpressionPtr& reference = nullptr) {
    for (const auto& shape : kShapes) {
      const auto expected = ScanPositions(shape.make(unencoded_), reference ? reference : predicate);
      for (auto index = size_t{0}; index < encoded_.size(); ++index) {
        EXPECT_EQ(ScanPositions(shape.make(encoded_[index]), predicate), expected)
            << "input=" << shape.name << " encoding=" << kEncodings[index].name
            << " predicate=" << predicate->Description();
      }
    }
  }

  std::shared_ptr<TableWrapper> unencoded_;
  std::vector<std::shared_ptr<TableWrapper>> encoded_;
};

TEST_F(DictionaryCodeScanTest, ScanChainKeepsSingleChunkPosLists) {
  auto input = std::shared_ptr<AbstractOperator>{encoded_.front()};
  for (const auto& predicate : {KeepIs(PredicateCondition::kGreaterThan, 0), KeepIs(PredicateCondition::kLessThan, 3),
                                Predicate(PredicateCondition::kLessThan, {Column(kA, DataType::kInt), Value(30)})}) {
    input = Scan(input, predicate);
    const auto output = input->get_output();
    ASSERT_GT(output->chunk_count(), 1u);
    for (auto chunk_id = ChunkID{0}; chunk_id < output->chunk_count(); ++chunk_id) {
      for (auto column_id = ColumnID{0}; column_id < output->column_count(); ++column_id) {
        const auto segment = output->GetChunk(chunk_id)->GetSegment(column_id);
        EXPECT_TRUE(dynamic_cast<const ReferenceSegment&>(*segment).pos_list()->ReferencesSingleChunk())
            << "scan " << predicate->Description() << " chunk " << chunk_id << " column " << column_id;
      }
    }
  }
  // The join shape is the one whose pos lists span chunks.
  const auto join_output = kShapes[3].make(encoded_.front())->get_output();
  ASSERT_GT(join_output->chunk_count(), 0u);
  const auto segment = join_output->GetChunk(ChunkID{0})->GetSegment(kA);
  EXPECT_FALSE(dynamic_cast<const ReferenceSegment&>(*segment).pos_list()->ReferencesSingleChunk());
}

TEST_F(DictionaryCodeScanTest, LiteralScansOnReferenceInputs) {
  const auto s = Column(kS, DataType::kString);
  const auto a = Column(kA, DataType::kInt);
  for (const auto condition : kComparisons) {
    for (const auto& literal : {std::string{"k17"}, std::string{"k175"}, std::string{"a"}, std::string{"z"}}) {
      ExpectSameRows(Predicate(condition, {s, Value(literal)}));
    }
    ExpectSameRows(Predicate(condition, {a, Value(17)}));
  }
  const auto between = PredicateCondition::kBetweenInclusive;
  ExpectSameRows(Predicate(between, {s, Value(std::string{"k05"}), Value(std::string{"k22"})}));
  ExpectSameRows(Predicate(between, {s, Value(std::string{"k30"}), Value(std::string{"k10"})}));
  ExpectSameRows(Predicate(between, {a, Value(5), Value(22)}));
  for (const auto condition : {PredicateCondition::kIsNull, PredicateCondition::kIsNotNull}) {
    ExpectSameRows(Predicate(condition, {s}));
    ExpectSameRows(Predicate(condition, {a}));
  }
}

TEST_F(DictionaryCodeScanTest, ColumnAgainstColumnAllConditions) {
  for (const auto condition : kComparisons) {
    for (const auto partner : kIntPartners) {
      ExpectSameRows(Predicate(condition, {Column(kA, DataType::kInt), Column(partner, DataType::kInt)}));
      ExpectSameRows(Predicate(condition, {Column(partner, DataType::kInt), Column(kA, DataType::kInt)}));
    }
    for (const auto partner : kStringPartners) {
      ExpectSameRows(Predicate(condition, {Column(kS, DataType::kString), Column(partner, DataType::kString)}));
      ExpectSameRows(Predicate(condition, {Column(partner, DataType::kString), Column(kS, DataType::kString)}));
    }
    ExpectSameRows(Predicate(condition, {Column(kS, DataType::kString), Column(kS, DataType::kString)}));
  }
}

TEST_F(DictionaryCodeScanTest, InListsKeepThreeValuedLogic) {
  const auto a = Column(kA, DataType::kInt);
  const auto s = Column(kS, DataType::kString);
  const auto int_lists = std::vector<std::vector<AllTypeVariant>>{
      {3, 17},          {17, 17, 3, 17}, {3, 1000},      {1000},    {3, kNullVariant}, {kNullVariant},
      {2.0, 2.5, 39.0}, {int64_t{7}, int64_t{1} << 40}, {-1, 40}};
  const auto string_lists = std::vector<std::vector<AllTypeVariant>>{
      {std::string{"k03"}, std::string{"k17"}},
      {std::string{"k17"}, std::string{"k17"}, std::string{"k03"}},
      {std::string{"k03"}, std::string{"zzz"}},
      {std::string{"zzz"}},
      {std::string{"k03"}, kNullVariant},
      {kNullVariant, kNullVariant}};
  for (const auto condition : {PredicateCondition::kIn, PredicateCondition::kNotIn}) {
    for (const auto& list : int_lists) {
      ExpectSameRows(In(condition, a, list), InAsLogical(condition, a, list));
    }
    for (const auto& list : string_lists) {
      ExpectSameRows(In(condition, s, list), InAsLogical(condition, s, list));
    }
  }
}

TEST_F(DictionaryCodeScanTest, MixedTypeInListFailsTheStatement) {
  const auto mixed = std::vector<ExpressionPtr>{
      In(PredicateCondition::kIn, Column(kA, DataType::kInt), {3, std::string{"k03"}}),
      In(PredicateCondition::kNotIn, Column(kA, DataType::kInt), {kNullVariant, std::string{"k03"}}),
      In(PredicateCondition::kIn, Column(kS, DataType::kString), {std::string{"k03"}, 3}),
  };
  for (const auto& predicate : mixed) {
    for (const auto& shape : kShapes) {
      for (const auto& table : encoded_) {
        const auto input = shape.make(table);
        EXPECT_THROW(Scan(input, predicate), std::invalid_argument) << predicate->Description();
      }
      EXPECT_THROW(Scan(shape.make(unencoded_), predicate), std::invalid_argument) << predicate->Description();
    }
  }
}

TEST_F(DictionaryCodeScanTest, LikeOnReferenceInputs) {
  const auto s = Column(kS, DataType::kString);
  for (const auto condition : {PredicateCondition::kLike, PredicateCondition::kNotLike}) {
    for (const auto& pattern : {"k0%", "%1", "%0%", "k_5", "%", "x%", "k%1%", "k17"}) {
      ExpectSameRows(Predicate(condition, {s, Value(std::string{pattern})}));
    }
  }
}

}  // namespace hyrise
