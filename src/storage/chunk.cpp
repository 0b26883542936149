#include "storage/chunk.hpp"

#include "storage/value_segment.hpp"
#include "utils/assert.hpp"

namespace hyrise {

Chunk::Chunk(Segments segments, std::shared_ptr<MvccData> mvcc_data)
    : segments_(std::move(segments)), mvcc_data_(std::move(mvcc_data)) {
  Assert(!segments_.empty(), "Chunk without segments");
}

ChunkOffset Chunk::size() const {
  return segments_.front()->size();
}

void Chunk::Append(const std::vector<AllTypeVariant>& values) {
  DebugAssert(is_mutable_, "Cannot append to immutable chunk");
  Assert(values.size() == segments_.size(), "Append: wrong number of values");
  for (auto column_id = size_t{0}; column_id < segments_.size(); ++column_id) {
    // Mutable chunks consist of ValueSegments only; resolve via the virtual
    // slow path — appends are not the hot loop the segment decoder optimizes.
    ResolveDataType(segments_[column_id]->data_type(), [&](auto type_tag) {
      using ColumnDataType = decltype(type_tag);
      auto& segment = static_cast<ValueSegment<ColumnDataType>&>(*segments_[column_id]);
      segment.Append(values[column_id]);
    });
  }
}

void Chunk::ReplaceSegment(ColumnID column_id, std::shared_ptr<AbstractSegment> segment) {
  Assert(!is_mutable_, "Only immutable chunks can be re-encoded");
  Assert(segment->size() == size(), "Replacement segment has different row count");
  segments_[column_id] = std::move(segment);
}

void Chunk::AddIndex(std::vector<ColumnID> column_ids, std::shared_ptr<AbstractChunkIndex> index) {
  indexes_.emplace_back(std::move(column_ids), std::move(index));
}

std::vector<std::shared_ptr<AbstractChunkIndex>> Chunk::GetIndexes(const std::vector<ColumnID>& column_ids) const {
  auto result = std::vector<std::shared_ptr<AbstractChunkIndex>>{};
  for (const auto& [indexed_columns, index] : indexes_) {
    if (indexed_columns == column_ids) {
      result.push_back(index);
    }
  }
  return result;
}

size_t Chunk::MemoryUsage() const {
  auto bytes = size_t{0};
  for (const auto& segment : segments_) {
    bytes += segment->MemoryUsage();
  }
  if (mvcc_data_) {
    bytes += mvcc_data_->capacity() * (2 * sizeof(CommitID) + sizeof(TransactionID));
  }
  return bytes;
}

}  // namespace hyrise
