#include <gtest/gtest.h>

#include "expression/expressions.hpp"
#include "hyrise.hpp"
#include "operators/aggregate.hpp"
#include "operators/alias_operator.hpp"
#include "operators/get_table.hpp"
#include "operators/index_scan.hpp"
#include "operators/limit.hpp"
#include "operators/product.hpp"
#include "operators/projection.hpp"
#include "operators/sort.hpp"
#include "operators/table_scan.hpp"
#include "operators/table_wrapper.hpp"
#include "operators/union_all.hpp"
#include "storage/chunk_encoder.hpp"
#include "storage/segment_decoder.hpp"
#include "test_utils.hpp"

namespace hyrise {

namespace {

std::shared_ptr<AbstractOperator> Wrap(const std::shared_ptr<Table>& table) {
  auto wrapper = std::make_shared<TableWrapper>(table);
  wrapper->Execute();
  return wrapper;
}

ExpressionPtr Column(ColumnID id, DataType type, const std::string& name) {
  return std::make_shared<PqpColumnExpression>(id, type, true, name);
}

ExpressionPtr Value(AllTypeVariant value) {
  return std::make_shared<ValueExpression>(std::move(value));
}

std::shared_ptr<Table> SalesTable() {
  return MakeTable({{"region", DataType::kString}, {"amount", DataType::kInt, true}, {"price", DataType::kDouble}},
                   {{std::string{"east"}, 10, 1.5},
                    {std::string{"west"}, 20, 2.5},
                    {std::string{"east"}, 30, 3.5},
                    {std::string{"west"}, kNullVariant, 4.5},
                    {std::string{"east"}, 10, 5.5}},
                   3);
}

class OperatorTestEnvironment : public ::testing::Test {
 protected:
  void SetUp() override {
    Hyrise::Reset();
  }
};

using GetTableTest = OperatorTestEnvironment;
using IndexScanTest = OperatorTestEnvironment;

}  // namespace

TEST(ProjectionTest, ForwardsPlainColumns) {
  const auto input = Wrap(SalesTable());
  auto projection = std::make_shared<Projection>(
      input, Expressions{Column(ColumnID{1}, DataType::kInt, "amount"), Column(ColumnID{0}, DataType::kString,
                                                                               "region")});
  projection->Execute();
  const auto output = projection->get_output();
  EXPECT_EQ(output->column_names(), (std::vector<std::string>{"amount", "region"}));
  EXPECT_EQ(output->GetValue(ColumnID{1}, 0), AllTypeVariant{std::string{"east"}});
  // Forwarded segments are shared, not copied.
  EXPECT_EQ(output->GetChunk(ChunkID{0})->GetSegment(ColumnID{0}),
            input->get_output()->GetChunk(ChunkID{0})->GetSegment(ColumnID{1}));
}

TEST(ProjectionTest, ComputesArithmetic) {
  const auto input = Wrap(SalesTable());
  auto expression = std::make_shared<ArithmeticExpression>(
      ArithmeticOperator::kMultiplication, Column(ColumnID{1}, DataType::kInt, "amount"),
      Column(ColumnID{2}, DataType::kDouble, "price"));
  auto projection = std::make_shared<Projection>(input, Expressions{expression});
  projection->Execute();
  const auto output = projection->get_output();
  EXPECT_DOUBLE_EQ(std::get<double>(output->GetValue(ColumnID{0}, 0)), 15.0);
  EXPECT_TRUE(VariantIsNull(output->GetValue(ColumnID{0}, 3)));  // NULL amount.
}

TEST(ProjectionTest, CaseExpression) {
  const auto input = Wrap(SalesTable());
  // CASE WHEN amount > 15 THEN 'big' ELSE 'small' END
  auto condition = std::make_shared<PredicateExpression>(
      PredicateCondition::kGreaterThan, Expressions{Column(ColumnID{1}, DataType::kInt, "amount"), Value(15)});
  auto case_expression = std::make_shared<CaseExpression>(
      Expressions{condition, Value(std::string{"big"}), Value(std::string{"small"})});
  auto projection = std::make_shared<Projection>(input, Expressions{case_expression});
  projection->Execute();
  const auto output = projection->get_output();
  EXPECT_EQ(output->GetValue(ColumnID{0}, 0), AllTypeVariant{std::string{"small"}});
  EXPECT_EQ(output->GetValue(ColumnID{0}, 1), AllTypeVariant{std::string{"big"}});
  EXPECT_EQ(output->GetValue(ColumnID{0}, 3), AllTypeVariant{std::string{"small"}});  // NULL > 15 is NULL → ELSE.
}

TEST(ProjectionTest, ReferenceInputForwardsSegmentsAndReferencesComputedColumns) {
  const auto table = SalesTable();
  ChunkEncoder::EncodeAllChunks(table, SegmentEncodingSpec{EncodingType::kDictionary});
  auto scan = std::make_shared<TableScan>(
      Wrap(table), std::make_shared<PredicateExpression>(PredicateCondition::kGreaterThanEquals,
                                                         Expressions{Column(ColumnID{1}, DataType::kInt, "amount"),
                                                                     Value(10)}));
  scan->Execute();
  const auto doubled = std::make_shared<ArithmeticExpression>(ArithmeticOperator::kMultiplication,
                                                              Column(ColumnID{1}, DataType::kInt, "amount"), Value(2));
  const auto total = std::make_shared<ArithmeticExpression>(
      ArithmeticOperator::kAddition, Column(ColumnID{2}, DataType::kDouble, "price"), doubled);
  auto projection = std::make_shared<Projection>(
      scan, Expressions{Column(ColumnID{0}, DataType::kString, "region"), doubled,
                        Column(ColumnID{2}, DataType::kDouble, "price"), total});
  projection->Execute();
  const auto output = projection->get_output();

  ASSERT_EQ(output->type(), TableType::kReferences);
  ExpectTableContents(output, {{std::string{"east"}, 20, 1.5, 21.5},
                               {std::string{"west"}, 40, 2.5, 42.5},
                               {std::string{"east"}, 60, 3.5, 63.5},
                               {std::string{"east"}, 20, 5.5, 25.5}},
                      true);
  const auto input = scan->get_output();
  ASSERT_EQ(output->chunk_count(), input->chunk_count());
  for (auto chunk_id = ChunkID{0}; chunk_id < output->chunk_count(); ++chunk_id) {
    const auto chunk = output->GetChunk(chunk_id);
    // Forwarded: the scan's own segments.
    EXPECT_EQ(chunk->GetSegment(ColumnID{0}), input->GetChunk(chunk_id)->GetSegment(ColumnID{0}));
    EXPECT_EQ(chunk->GetSegment(ColumnID{2}), input->GetChunk(chunk_id)->GetSegment(ColumnID{2}));
    // Computed: one data table, referenced through one single-chunk pos list.
    const auto* doubled_segment = dynamic_cast<const ReferenceSegment*>(chunk->GetSegment(ColumnID{1}).get());
    const auto* total_segment = dynamic_cast<const ReferenceSegment*>(chunk->GetSegment(ColumnID{3}).get());
    ASSERT_NE(doubled_segment, nullptr);
    ASSERT_NE(total_segment, nullptr);
    EXPECT_EQ(doubled_segment->pos_list(), total_segment->pos_list());
    EXPECT_TRUE(doubled_segment->pos_list()->ReferencesSingleChunk());
    EXPECT_EQ(doubled_segment->referenced_table()->type(), TableType::kData);
  }

  // A scan after the projection still reads the forwarded string column as
  // dictionary codes.
  EXPECT_TRUE(ViewDictionary<std::string>(*output->GetChunk(ChunkID{0})->GetSegment(ColumnID{0})).has_value());
  const auto projection_wrapper = std::make_shared<TableWrapper>(output);
  projection_wrapper->Execute();
  auto region_scan = std::make_shared<TableScan>(
      projection_wrapper,
      std::make_shared<PredicateExpression>(
          PredicateCondition::kEquals,
          Expressions{Column(ColumnID{0}, DataType::kString, "region"), Value(std::string{"east"})}));
  region_scan->Execute();
  ExpectTableContents(region_scan->get_output(), {{std::string{"east"}, 20, 1.5, 21.5},
                                                  {std::string{"east"}, 60, 3.5, 63.5},
                                                  {std::string{"east"}, 20, 5.5, 25.5}},
                      true);
}

TEST(ProjectionTest, MutableChunkColumnsKeepEqualLengths) {
  const auto table = MakeTable({{"a", DataType::kInt}}, {{1}, {2}, {3}, {4}, {5}, {6}}, 4);
  ASSERT_TRUE(table->GetChunk(ChunkID{1})->IsMutable());
  auto projection = std::make_shared<Projection>(
      Wrap(table), Expressions{Column(ColumnID{0}, DataType::kInt, "a"),
                               std::make_shared<ArithmeticExpression>(
                                   ArithmeticOperator::kAddition, Column(ColumnID{0}, DataType::kInt, "a"), Value(1))});
  projection->Execute();
  const auto output = projection->get_output();
  table->AppendRow({7});  // Grows the mutable chunk after the projection ran.

  EXPECT_EQ(output->type(), TableType::kData);
  // An immutable chunk's column is forwarded; the mutable chunk's is copied
  // at the size the computed column has.
  EXPECT_EQ(output->GetChunk(ChunkID{0})->GetSegment(ColumnID{0}),
            table->GetChunk(ChunkID{0})->GetSegment(ColumnID{0}));
  for (auto chunk_id = ChunkID{0}; chunk_id < output->chunk_count(); ++chunk_id) {
    const auto chunk = output->GetChunk(chunk_id);
    EXPECT_EQ(chunk->GetSegment(ColumnID{0})->size(), chunk->GetSegment(ColumnID{1})->size());
  }
  ExpectTableContents(output, {{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}}, true);
}

TEST(AggregateTest, GroupedAggregates) {
  auto aggregate = std::make_shared<Aggregate>(
      Wrap(SalesTable()), std::vector<ColumnID>{ColumnID{0}},
      std::vector<AggregateColumnDefinition>{{AggregateFunction::kSum, ColumnID{1}},
                                             {AggregateFunction::kAvg, ColumnID{1}},
                                             {AggregateFunction::kMin, ColumnID{2}},
                                             {AggregateFunction::kMax, ColumnID{2}},
                                             {AggregateFunction::kCount, ColumnID{1}},
                                             {AggregateFunction::kCountDistinct, ColumnID{1}},
                                             {AggregateFunction::kCount, std::nullopt}});
  aggregate->Execute();
  ExpectTableContents(aggregate->get_output(),
                      {{std::string{"east"}, int64_t{50}, 50.0 / 3.0, 1.5, 5.5, int64_t{3}, int64_t{2}, int64_t{3}},
                       {std::string{"west"}, int64_t{20}, 20.0, 2.5, 4.5, int64_t{1}, int64_t{1}, int64_t{2}}});
}

TEST(AggregateTest, NoGroupByOverEmptyInput) {
  const auto empty = MakeTable({{"x", DataType::kInt}}, {});
  auto aggregate = std::make_shared<Aggregate>(
      Wrap(empty), std::vector<ColumnID>{},
      std::vector<AggregateColumnDefinition>{{AggregateFunction::kCount, std::nullopt},
                                             {AggregateFunction::kSum, ColumnID{0}},
                                             {AggregateFunction::kMin, ColumnID{0}}});
  aggregate->Execute();
  ExpectTableContents(aggregate->get_output(), {{int64_t{0}, kNullVariant, kNullVariant}});
}

TEST(AggregateTest, GroupByOverEmptyInputYieldsNoRows) {
  const auto empty = MakeTable({{"g", DataType::kInt}, {"x", DataType::kInt}}, {});
  auto aggregate = std::make_shared<Aggregate>(
      Wrap(empty), std::vector<ColumnID>{ColumnID{0}},
      std::vector<AggregateColumnDefinition>{{AggregateFunction::kSum, ColumnID{1}}});
  aggregate->Execute();
  EXPECT_EQ(aggregate->get_output()->row_count(), 0u);
}

TEST(AggregateTest, NullGroupFormsOwnGroup) {
  const auto table = MakeTable({{"g", DataType::kInt, true}, {"x", DataType::kInt}},
                               {{1, 10}, {kNullVariant, 20}, {1, 30}, {kNullVariant, 40}});
  auto aggregate = std::make_shared<Aggregate>(
      Wrap(table), std::vector<ColumnID>{ColumnID{0}},
      std::vector<AggregateColumnDefinition>{{AggregateFunction::kSum, ColumnID{1}}});
  aggregate->Execute();
  ExpectTableContents(aggregate->get_output(), {{1, int64_t{40}}, {kNullVariant, int64_t{60}}});
}

TEST(SortTest, MultiColumnWithDirections) {
  auto sort = std::make_shared<Sort>(
      Wrap(SalesTable()), std::vector<SortColumnDefinition>{{ColumnID{0}, SortMode::kAscending},
                                                            {ColumnID{1}, SortMode::kDescending}});
  sort->Execute();
  ExpectTableContents(sort->get_output(),
                      {{std::string{"east"}, 30, 3.5},
                       {std::string{"east"}, 10, 1.5},
                       {std::string{"east"}, 10, 5.5},
                       {std::string{"west"}, 20, 2.5},
                       {std::string{"west"}, kNullVariant, 4.5}},
                      /*ordered=*/true);
}

TEST(SortTest, NullsFirstAscending) {
  auto sort = std::make_shared<Sort>(Wrap(SalesTable()),
                                     std::vector<SortColumnDefinition>{{ColumnID{1}, SortMode::kAscending}});
  sort->Execute();
  EXPECT_TRUE(VariantIsNull(sort->get_output()->GetValue(ColumnID{1}, 0)));
}

TEST(SortTest, StableForEqualKeys) {
  auto sort = std::make_shared<Sort>(Wrap(SalesTable()),
                                     std::vector<SortColumnDefinition>{{ColumnID{1}, SortMode::kAscending}});
  sort->Execute();
  // amount 10 appears twice: input order (1.5 before 5.5) must be preserved.
  const auto output = sort->get_output();
  EXPECT_DOUBLE_EQ(std::get<double>(output->GetValue(ColumnID{2}, 1)), 1.5);
  EXPECT_DOUBLE_EQ(std::get<double>(output->GetValue(ColumnID{2}, 2)), 5.5);
}

TEST(LimitTest, TakesFirstRowsAcrossChunks) {
  auto limit = std::make_shared<Limit>(Wrap(SalesTable()), 4);
  limit->Execute();
  EXPECT_EQ(limit->get_output()->row_count(), 4u);
  EXPECT_EQ(limit->get_output()->GetValue(ColumnID{0}, 0), AllTypeVariant{std::string{"east"}});
}

TEST(LimitTest, LimitLargerThanInput) {
  auto limit = std::make_shared<Limit>(Wrap(SalesTable()), 100);
  limit->Execute();
  EXPECT_EQ(limit->get_output()->row_count(), 5u);
}

TEST(UnionAllTest, ConcatenatesInputs) {
  const auto table = SalesTable();
  auto union_all = std::make_shared<UnionAll>(Wrap(table), Wrap(table));
  union_all->Execute();
  EXPECT_EQ(union_all->get_output()->row_count(), 10u);
}

TEST(AliasOperatorTest, RenamesAndReorders) {
  auto alias = std::make_shared<AliasOperator>(Wrap(SalesTable()), std::vector<ColumnID>{ColumnID{1}, ColumnID{0}},
                                               std::vector<std::string>{"qty", "area"});
  alias->Execute();
  EXPECT_EQ(alias->get_output()->column_names(), (std::vector<std::string>{"qty", "area"}));
  EXPECT_EQ(alias->get_output()->GetValue(ColumnID{1}, 0), AllTypeVariant{std::string{"east"}});
}

TEST_F(GetTableTest, SkipsPrunedChunks) {
  Hyrise::Get().storage_manager.AddTable("sales", SalesTable());
  auto get_table = std::make_shared<GetTable>("sales", std::vector<ChunkID>{ChunkID{0}});
  get_table->Execute();
  // Chunk 0 held rows 0..2; only chunk 1 (2 rows) remains.
  EXPECT_EQ(get_table->get_output()->row_count(), 2u);
  EXPECT_EQ(get_table->get_output()->GetValue(ColumnID{1}, 0), AllTypeVariant{kNullVariant});
}

TEST_F(GetTableTest, NoPruningSharesTable) {
  const auto table = SalesTable();
  Hyrise::Get().storage_manager.AddTable("sales", table);
  auto get_table = std::make_shared<GetTable>("sales");
  get_table->Execute();
  EXPECT_EQ(get_table->get_output(), table);
}

TEST_F(IndexScanTest, UsesChunkIndexesWithFallback) {
  const auto table = MakeTable({{"v", DataType::kInt}}, {{5}, {7}, {5}, {9}, {5}, {11}}, 3);
  ChunkEncoder::EncodeAllChunks(table, SegmentEncodingSpec{EncodingType::kDictionary});
  // Index only on chunk 0; chunk 1 uses the fallback scan.
  const auto chunk = table->GetChunk(ChunkID{0});
  chunk->AddIndex({ColumnID{0}},
                  CreateChunkIndex(ChunkIndexType::kGroupKey, chunk->GetSegment(ColumnID{0})));
  Hyrise::Get().storage_manager.AddTable("indexed", table);

  auto scan = std::make_shared<IndexScan>("indexed", std::vector<ChunkID>{}, ColumnID{0},
                                          PredicateCondition::kEquals, AllTypeVariant{5});
  scan->Execute();
  EXPECT_EQ(scan->get_output()->row_count(), 3u);

  auto range_scan = std::make_shared<IndexScan>("indexed", std::vector<ChunkID>{}, ColumnID{0},
                                                PredicateCondition::kGreaterThanEquals, AllTypeVariant{7});
  range_scan->Execute();
  EXPECT_EQ(range_scan->get_output()->row_count(), 3u);
}

TEST(OperatorBaseTest, DeepCopyPreservesDiamonds) {
  const auto shared_input = Wrap(SalesTable());
  auto scan_a = std::make_shared<TableScan>(
      shared_input,
      std::make_shared<PredicateExpression>(PredicateCondition::kGreaterThan,
                                            Expressions{Column(ColumnID{1}, DataType::kInt, "amount"), Value(5)}));
  auto scan_b = std::make_shared<TableScan>(
      shared_input,
      std::make_shared<PredicateExpression>(PredicateCondition::kLessThan,
                                            Expressions{Column(ColumnID{1}, DataType::kInt, "amount"), Value(50)}));
  auto union_all = std::make_shared<UnionAll>(scan_a, scan_b);

  const auto copy = union_all->DeepCopy();
  EXPECT_EQ(copy->left_input()->left_input(), copy->right_input()->left_input())
      << "diamond inputs must stay shared";
  EXPECT_NE(copy->left_input(), union_all->left_input());

  copy->Execute();
  EXPECT_EQ(copy->get_output()->row_count(), 8u);  // 4 + 4 (NULL fails both scans).
}

}  // namespace hyrise
