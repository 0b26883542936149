#include "storage/table.hpp"

#include "storage/value_segment.hpp"
#include "utils/assert.hpp"

namespace hyrise {

Table::Table(TableColumnDefinitions column_definitions, TableType type, ChunkOffset target_chunk_size,
             UseMvcc use_mvcc)
    : column_definitions_(std::move(column_definitions)),
      type_(type),
      target_chunk_size_(target_chunk_size),
      use_mvcc_(use_mvcc) {
  Assert(!column_definitions_.empty(), "Table without columns");
  Assert(type_ == TableType::kData || use_mvcc_ == UseMvcc::kNo, "Reference tables do not carry MVCC data");
}

std::vector<std::string> Table::column_names() const {
  auto names = std::vector<std::string>{};
  names.reserve(column_definitions_.size());
  for (const auto& definition : column_definitions_) {
    names.push_back(definition.name);
  }
  return names;
}

ColumnID Table::ColumnIdByName(const std::string& name) const {
  const auto column_id = FindColumnIdByName(name);
  Assert(column_id.has_value(), "Unknown column: " + name);
  return *column_id;
}

std::optional<ColumnID> Table::FindColumnIdByName(const std::string& name) const {
  for (auto column_id = size_t{0}; column_id < column_definitions_.size(); ++column_id) {
    if (column_definitions_[column_id].name == name) {
      return ColumnID{static_cast<uint16_t>(column_id)};
    }
  }
  return std::nullopt;
}

ChunkID Table::chunk_count() const {
  const auto lock = std::lock_guard{chunks_mutex_};
  return ChunkID{static_cast<uint32_t>(chunks_.size())};
}

std::shared_ptr<Chunk> Table::GetChunk(ChunkID chunk_id) const {
  const auto lock = std::lock_guard{chunks_mutex_};
  DebugAssert(chunk_id < chunks_.size(), "Chunk ID out of range");
  return chunks_[chunk_id];
}

void Table::AppendChunk(Segments segments, std::shared_ptr<MvccData> mvcc_data) {
  Assert(segments.size() == column_definitions_.size(), "AppendChunk: wrong segment count");
  auto chunk = std::make_shared<Chunk>(std::move(segments), std::move(mvcc_data));
  if (type_ == TableType::kData) {
    chunk->Finalize();
  }
  const auto lock = std::lock_guard{chunks_mutex_};
  chunks_.push_back(std::move(chunk));
}

void Table::AppendSharedChunk(std::shared_ptr<Chunk> chunk) {
  Assert(chunk->column_count() == column_count(), "AppendSharedChunk: wrong column count");
  const auto lock = std::lock_guard{chunks_mutex_};
  chunks_.push_back(std::move(chunk));
}

void Table::AppendMutableChunk() {
  Assert(type_ == TableType::kData, "Can only create mutable chunks on data tables");
  auto segments = Segments{};
  segments.reserve(column_definitions_.size());
  for (const auto& definition : column_definitions_) {
    ResolveDataType(definition.data_type, [&](auto type_tag) {
      using ColumnDataType = decltype(type_tag);
      auto segment = std::make_shared<ValueSegment<ColumnDataType>>(definition.nullable);
      segment->Reserve(target_chunk_size_);
      segments.push_back(std::move(segment));
    });
  }
  auto mvcc_data = std::shared_ptr<MvccData>{};
  if (use_mvcc_ == UseMvcc::kYes) {
    mvcc_data = std::make_shared<MvccData>(target_chunk_size_);
  }
  const auto lock = std::lock_guard{chunks_mutex_};
  if (!chunks_.empty() && chunks_.back()->IsMutable() && chunks_.back()->size() < target_chunk_size_) {
    return;  // Someone else already created space.
  }
  if (!chunks_.empty()) {
    chunks_.back()->Finalize();
  }
  chunks_.push_back(std::make_shared<Chunk>(std::move(segments), std::move(mvcc_data)));
}

std::pair<ChunkID, std::shared_ptr<Chunk>> Table::TailChunkForAppend() {
  {
    const auto lock = std::lock_guard{chunks_mutex_};
    if (!chunks_.empty() && chunks_.back()->IsMutable() && chunks_.back()->size() < target_chunk_size_) {
      return {ChunkID{static_cast<uint32_t>(chunks_.size() - 1)}, chunks_.back()};
    }
  }
  AppendMutableChunk();
  const auto lock = std::lock_guard{chunks_mutex_};
  return {ChunkID{static_cast<uint32_t>(chunks_.size() - 1)}, chunks_.back()};
}

void Table::AppendRow(const std::vector<AllTypeVariant>& values) {
  Assert(type_ == TableType::kData, "Cannot append rows to reference tables");
  const auto lock = std::lock_guard{append_mutex_};
  const auto chunk = TailChunkForAppend().second;
  const auto offset = chunk->size();
  chunk->Append(values);
  if (use_mvcc_ == UseMvcc::kYes) {
    // Rows loaded outside a transaction are visible from the beginning.
    chunk->mvcc_data()->SetBeginCid(offset, CommitID{0});
  }
}

uint64_t Table::row_count() const {
  const auto lock = std::lock_guard{chunks_mutex_};
  auto count = uint64_t{0};
  for (const auto& chunk : chunks_) {
    count += chunk->size();
  }
  return count;
}

AllTypeVariant Table::GetValue(ColumnID column_id, uint64_t row_index) const {
  const auto chunk_count_value = chunk_count();
  for (auto chunk_id = ChunkID{0}; chunk_id < chunk_count_value; ++chunk_id) {
    const auto chunk = GetChunk(chunk_id);
    if (row_index < chunk->size()) {
      return (*chunk->GetSegment(column_id))[static_cast<ChunkOffset>(row_index)];
    }
    row_index -= chunk->size();
  }
  Fail("Row index out of range");
}

std::vector<std::vector<AllTypeVariant>> Table::GetRows() const {
  auto rows = std::vector<std::vector<AllTypeVariant>>{};
  rows.reserve(row_count());
  const auto chunk_count_value = chunk_count();
  const auto columns = column_count();
  for (auto chunk_id = ChunkID{0}; chunk_id < chunk_count_value; ++chunk_id) {
    const auto chunk = GetChunk(chunk_id);
    const auto chunk_size = chunk->size();
    for (auto offset = ChunkOffset{0}; offset < chunk_size; ++offset) {
      auto& row = rows.emplace_back();
      row.reserve(columns);
      for (auto column_id = ColumnID{0}; column_id < columns; ++column_id) {
        row.push_back((*chunk->GetSegment(column_id))[offset]);
      }
    }
  }
  return rows;
}

size_t Table::MemoryUsage() const {
  const auto lock = std::lock_guard{chunks_mutex_};
  auto bytes = size_t{0};
  for (const auto& chunk : chunks_) {
    bytes += chunk->MemoryUsage();
  }
  return bytes;
}

std::shared_ptr<TableStatistics> Table::table_statistics() const {
  const auto lock = std::lock_guard{statistics_mutex_};
  return table_statistics_;
}

void Table::SetTableStatistics(std::shared_ptr<TableStatistics> statistics) {
  const auto lock = std::lock_guard{statistics_mutex_};
  table_statistics_ = std::move(statistics);
}

std::shared_ptr<TableStatistics> Table::GetOrBuildTableStatistics(
    const std::function<std::shared_ptr<TableStatistics>()>& build) {
  const auto lock = std::lock_guard{statistics_mutex_};
  if (!table_statistics_) {
    table_statistics_ = build();
  }
  return table_statistics_;
}

}  // namespace hyrise
