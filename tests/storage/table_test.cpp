#include <gtest/gtest.h>

#include "storage/chunk_encoder.hpp"
#include "storage/reference_segment.hpp"
#include "storage/segment_decoder.hpp"
#include "storage/storage_manager.hpp"
#include "storage/table.hpp"

namespace hyrise {

namespace {

std::shared_ptr<Table> MakeIntTable(ChunkOffset chunk_size, int row_count) {
  auto table = std::make_shared<Table>(
      TableColumnDefinitions{{"a", DataType::kInt}, {"b", DataType::kString, true}}, TableType::kData, chunk_size);
  for (auto index = 0; index < row_count; ++index) {
    table->AppendRow({AllTypeVariant{index}, index % 5 == 0 ? kNullVariant
                                                            : AllTypeVariant{"s" + std::to_string(index % 3)}});
  }
  return table;
}

}  // namespace

TEST(TableTest, SchemaAccessors) {
  const auto table = MakeIntTable(10, 0);
  EXPECT_EQ(table->column_count(), ColumnID{2});
  EXPECT_EQ(table->column_name(ColumnID{0}), "a");
  EXPECT_EQ(table->column_data_type(ColumnID{1}), DataType::kString);
  EXPECT_TRUE(table->column_is_nullable(ColumnID{1}));
  EXPECT_EQ(table->ColumnIdByName("b"), ColumnID{1});
  EXPECT_FALSE(table->FindColumnIdByName("c").has_value());
  EXPECT_EQ(table->column_names(), (std::vector<std::string>{"a", "b"}));
}

TEST(TableTest, AppendCreatesChunksAtTargetSize) {
  const auto table = MakeIntTable(10, 35);
  EXPECT_EQ(table->row_count(), 35u);
  EXPECT_EQ(table->chunk_count(), ChunkID{4});
  EXPECT_EQ(table->GetChunk(ChunkID{0})->size(), 10u);
  EXPECT_EQ(table->GetChunk(ChunkID{3})->size(), 5u);
  // Earlier chunks were finalized when the next one was created.
  EXPECT_FALSE(table->GetChunk(ChunkID{0})->IsMutable());
  EXPECT_TRUE(table->GetChunk(ChunkID{3})->IsMutable());
}

TEST(TableTest, GetValueAcrossChunks) {
  const auto table = MakeIntTable(10, 25);
  EXPECT_EQ(table->GetValue(ColumnID{0}, 0), AllTypeVariant{0});
  EXPECT_EQ(table->GetValue(ColumnID{0}, 24), AllTypeVariant{24});
  EXPECT_TRUE(VariantIsNull(table->GetValue(ColumnID{1}, 20)));
  EXPECT_EQ(table->GetValue("b", 1), AllTypeVariant{std::string{"s1"}});
}

TEST(TableTest, GetRowsMaterializesEverything) {
  const auto table = MakeIntTable(10, 12);
  const auto rows = table->GetRows();
  ASSERT_EQ(rows.size(), 12u);
  EXPECT_EQ(rows[11][0], AllTypeVariant{11});
}

TEST(TableTest, EncodeAllChunksFinalizesAndEncodes) {
  const auto table = MakeIntTable(10, 25);
  ChunkEncoder::EncodeAllChunks(table, SegmentEncodingSpec{EncodingType::kDictionary});
  for (auto chunk_id = ChunkID{0}; chunk_id < table->chunk_count(); ++chunk_id) {
    EXPECT_FALSE(table->GetChunk(chunk_id)->IsMutable());
    const auto segment = table->GetChunk(chunk_id)->GetSegment(ColumnID{0});
    EXPECT_NE(dynamic_cast<const AbstractEncodedSegment*>(segment.get()), nullptr);
  }
  // Data still intact.
  EXPECT_EQ(table->GetValue(ColumnID{0}, 24), AllTypeVariant{24});
  EXPECT_TRUE(VariantIsNull(table->GetValue(ColumnID{1}, 20)));
}

TEST(TableTest, MvccDataAllocatedWhenRequested) {
  auto table = std::make_shared<Table>(TableColumnDefinitions{{"a", DataType::kInt}}, TableType::kData, 100,
                                       UseMvcc::kYes);
  table->AppendRow({AllTypeVariant{1}});
  const auto chunk = table->GetChunk(ChunkID{0});
  ASSERT_NE(chunk->mvcc_data(), nullptr);
  EXPECT_EQ(chunk->mvcc_data()->GetBeginCid(0), CommitID{0});
  EXPECT_EQ(chunk->mvcc_data()->GetEndCid(0), kMaxCommitId);
}

TEST(ReferenceSegmentTest, ResolvesThroughPosList) {
  const auto table = MakeIntTable(10, 25);
  auto pos_list = std::make_shared<RowIDPosList>();
  pos_list->emplace_back(RowID{ChunkID{2}, 4});
  pos_list->emplace_back(RowID{ChunkID{0}, 0});
  pos_list->emplace_back(kNullRowId);

  const auto segment = ReferenceSegment{table, ColumnID{0}, pos_list};
  EXPECT_EQ(segment.size(), 3u);
  EXPECT_EQ(segment[0], AllTypeVariant{24});
  EXPECT_EQ(segment[1], AllTypeVariant{0});
  EXPECT_TRUE(VariantIsNull(segment[2]));
}

TEST(ReferenceSegmentTest, IterableVisitsPosListOrder) {
  const auto table = MakeIntTable(10, 25);
  ChunkEncoder::EncodeAllChunks(table, SegmentEncodingSpec{EncodingType::kDictionary});
  auto pos_list = std::make_shared<RowIDPosList>();
  for (auto row = 24; row >= 0; row -= 5) {
    pos_list->emplace_back(RowID{ChunkID{static_cast<uint32_t>(row / 10)}, static_cast<ChunkOffset>(row % 10)});
  }
  const auto segment = ReferenceSegment{table, ColumnID{0}, pos_list};

  // The pos list walks three chunks backwards; the decoder groups the rows
  // by chunk and must still return them in pos-list order.
  const auto decoded = DecodeSegmentAs<int32_t>(segment);
  EXPECT_TRUE(decoded.nulls.empty());
  EXPECT_EQ(decoded.values, (std::vector<int32_t>{24, 19, 14, 9, 4}));
}

TEST(StorageManagerTest, AddGetDropTable) {
  auto manager = StorageManager{};
  const auto table = MakeIntTable(10, 5);
  manager.AddTable("t", table);
  EXPECT_TRUE(manager.HasTable("t"));
  EXPECT_EQ(manager.GetTable("t"), table);
  EXPECT_EQ(manager.TableNames(), (std::vector<std::string>{"t"}));
  manager.DropTable("t");
  EXPECT_FALSE(manager.HasTable("t"));
}

TEST(ChunkTest, AppendRejectsWrongArity) {
  const auto table = MakeIntTable(10, 1);
  const auto chunk = table->GetChunk(ChunkID{0});
  EXPECT_DEATH(chunk->Append({AllTypeVariant{1}}), "wrong number of values");
}

TEST(ChunkTest, InvalidRowCounter) {
  const auto table = MakeIntTable(10, 1);
  const auto chunk = table->GetChunk(ChunkID{0});
  EXPECT_EQ(chunk->invalid_row_count(), 0u);
  chunk->IncreaseInvalidRowCount(3);
  EXPECT_EQ(chunk->invalid_row_count(), 3u);
}

TEST(MvccDataTest, TryLockRowConflicts) {
  auto mvcc = MvccData{4};
  EXPECT_TRUE(mvcc.TryLockRow(0, TransactionID{7}));
  EXPECT_FALSE(mvcc.TryLockRow(0, TransactionID{8}));
  EXPECT_EQ(mvcc.GetTid(0), TransactionID{7});
  mvcc.SetTid(0, kInvalidTransactionId);
  EXPECT_TRUE(mvcc.TryLockRow(0, TransactionID{8}));
}

}  // namespace hyrise
