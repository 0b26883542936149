#ifndef HYRISE_SRC_STORAGE_TABLE_HPP_
#define HYRISE_SRC_STORAGE_TABLE_HPP_

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "storage/chunk.hpp"
#include "storage/table_column_definition.hpp"
#include "types/types.hpp"

namespace hyrise {

class TableStatistics;

/// Default chunk capacity; Figure 7 identifies 100k as Hyrise's default and
/// the approximate throughput optimum.
inline constexpr ChunkOffset kDefaultChunkSize = 100'000;

/// A relational table: a list of chunks sharing one schema (paper §2.2).
/// TableType::kData tables own their values; TableType::kReferences tables
/// (operator outputs) hold ReferenceSegments into data tables.
class Table {
 public:
  Table(TableColumnDefinitions column_definitions, TableType type,
        ChunkOffset target_chunk_size = kDefaultChunkSize, UseMvcc use_mvcc = UseMvcc::kNo);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  // --- Schema ---------------------------------------------------------------

  const TableColumnDefinitions& column_definitions() const {
    return column_definitions_;
  }

  ColumnID column_count() const {
    return ColumnID{static_cast<uint16_t>(column_definitions_.size())};
  }

  const std::string& column_name(ColumnID column_id) const {
    return column_definitions_[column_id].name;
  }

  std::vector<std::string> column_names() const;

  DataType column_data_type(ColumnID column_id) const {
    return column_definitions_[column_id].data_type;
  }

  bool column_is_nullable(ColumnID column_id) const {
    return column_definitions_[column_id].nullable;
  }

  /// Fails if the column does not exist.
  ColumnID ColumnIdByName(const std::string& name) const;

  std::optional<ColumnID> FindColumnIdByName(const std::string& name) const;

  TableType type() const {
    return type_;
  }

  UseMvcc uses_mvcc() const {
    return use_mvcc_;
  }

  ChunkOffset target_chunk_size() const {
    return target_chunk_size_;
  }

  // --- Chunks and rows ------------------------------------------------------

  ChunkID chunk_count() const;

  std::shared_ptr<Chunk> GetChunk(ChunkID chunk_id) const;

  /// Appends a finished chunk (bulk loading, operator outputs).
  void AppendChunk(Segments segments, std::shared_ptr<MvccData> mvcc_data = nullptr);

  /// Shares an existing chunk with this table (GetTable emits the stored
  /// table's chunks minus the pruned ones without copying them).
  void AppendSharedChunk(std::shared_ptr<Chunk> chunk);

  /// Appends one row to the last mutable chunk, creating chunks as needed.
  /// Rows appended this way are visible to all transactions (begin CID 0);
  /// the transactional path is the Insert operator.
  void AppendRow(const std::vector<AllTypeVariant>& values);

  /// Creates a new mutable chunk of empty ValueSegments (with MVCC columns if
  /// the table uses MVCC). Thread-safe; used by AppendRow and Insert.
  void AppendMutableChunk();

  uint64_t row_count() const;

  /// Untyped cell access for tests and utilities (slow).
  AllTypeVariant GetValue(ColumnID column_id, uint64_t row_index) const;

  AllTypeVariant GetValue(const std::string& column_name, uint64_t row_index) const {
    return GetValue(ColumnIdByName(column_name), row_index);
  }

  /// Materializes all rows (slow; tests, printing, result comparison).
  std::vector<std::vector<AllTypeVariant>> GetRows() const;

  size_t MemoryUsage() const;

  // --- Statistics -----------------------------------------------------------

  // Thread-safe: concurrent sessions plan against the same tables.

  std::shared_ptr<TableStatistics> table_statistics() const;

  void SetTableStatistics(std::shared_ptr<TableStatistics> statistics);

  /// The statistics, built with `build` first if the table has none yet.
  /// Concurrent callers wait for that one build.
  std::shared_ptr<TableStatistics> GetOrBuildTableStatistics(
      const std::function<std::shared_ptr<TableStatistics>()>& build);

  std::mutex& append_mutex() {
    return append_mutex_;
  }

 private:
  TableColumnDefinitions column_definitions_;
  TableType type_;
  ChunkOffset target_chunk_size_;
  UseMvcc use_mvcc_;
  std::vector<std::shared_ptr<Chunk>> chunks_;
  std::shared_ptr<TableStatistics> table_statistics_;
  mutable std::mutex statistics_mutex_;
  mutable std::mutex chunks_mutex_;
  std::mutex append_mutex_;
};

}  // namespace hyrise

#endif  // HYRISE_SRC_STORAGE_TABLE_HPP_
