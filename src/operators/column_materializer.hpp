#ifndef HYRISE_SRC_OPERATORS_COLUMN_MATERIALIZER_HPP_
#define HYRISE_SRC_OPERATORS_COLUMN_MATERIALIZER_HPP_

#include <memory>
#include <utility>
#include <vector>

#include "scheduler/job_helpers.hpp"
#include "storage/segment_decoder.hpp"
#include "storage/table.hpp"
#include "utils/assert.hpp"

namespace hyrise {

/// Global [begin, end) row-index ranges of each chunk — the fan-out
/// granularity for row-major operators (paper §2.9: one task per chunk).
inline std::vector<std::pair<size_t, size_t>> ChunkRowRanges(const Table& table) {
  const auto chunk_count = table.chunk_count();
  auto ranges = std::vector<std::pair<size_t, size_t>>{};
  ranges.reserve(chunk_count);
  auto base = size_t{0};
  for (auto chunk_id = ChunkID{0}; chunk_id < chunk_count; ++chunk_id) {
    const auto size = static_cast<size_t>(table.GetChunk(chunk_id)->size());
    ranges.emplace_back(base, base + size);
    base += size;
  }
  return ranges;
}

namespace detail {

/// Shared body of MaterializeColumn/MaterializeColumnAs: reads the segments
/// as their stored type T and writes values of type K, casting inside the
/// per-chunk job so promoted values are written exactly once.
template <typename K, typename T>
MaterializedColumn<K> MaterializeColumnCasting(const Table& table, ColumnID column_id) {
  auto materialized = MaterializedColumn<K>{};
  const auto row_count = table.row_count();
  materialized.values.resize(row_count);
  const auto chunk_count = table.chunk_count();

  // One job per chunk; each writes the disjoint [base, base + chunk size)
  // slice of `values`. Null positions are collected per chunk — the bits of a
  // std::vector<bool> are not independently writable — and merged afterwards.
  auto null_rows_per_chunk = std::vector<std::vector<size_t>>(chunk_count);
  auto jobs = std::vector<std::shared_ptr<AbstractTask>>{};
  jobs.reserve(chunk_count);
  auto base = size_t{0};
  for (auto chunk_id = ChunkID{0}; chunk_id < chunk_count; ++chunk_id) {
    const auto chunk = table.GetChunk(chunk_id);
    const auto segment = chunk->GetSegment(column_id);
    jobs.push_back(
        std::make_shared<JobTask>([segment, base, &values = materialized.values,
                                   &null_rows = null_rows_per_chunk[chunk_id]] {
          DecodeSegment<K, T>(*segment, base, values, null_rows);
        }));
    base += chunk->size();
  }
  SpawnAndWaitForTasks(jobs);

  for (const auto& null_rows : null_rows_per_chunk) {
    materialized.MarkNulls(null_rows);
  }
  return materialized;
}

}  // namespace detail

template <typename T>
MaterializedColumn<T> MaterializeColumn(const Table& table, ColumnID column_id) {
  return detail::MaterializeColumnCasting<T, T>(table, column_id);
}

/// Materializes a column of any arithmetic type as the (promoted) type K —
/// the joins' keys and predicate columns. Fails for unsupported combinations
/// (string as arithmetic or vice versa).
template <typename K>
MaterializedColumn<K> MaterializeColumnAs(const Table& table, ColumnID column_id) {
  auto materialized = MaterializedColumn<K>{};
  ResolveDataType(table.column_data_type(column_id), [&](auto column_tag) {
    using T = decltype(column_tag);
    if constexpr (std::is_same_v<T, K>) {
      materialized = detail::MaterializeColumnCasting<K, K>(table, column_id);
    } else if constexpr (std::is_arithmetic_v<T> && std::is_arithmetic_v<K>) {
      materialized = detail::MaterializeColumnCasting<K, T>(table, column_id);
    } else {
      Fail("Column type cannot be materialized as the requested key type");
    }
  });
  return materialized;
}

}  // namespace hyrise

#endif  // HYRISE_SRC_OPERATORS_COLUMN_MATERIALIZER_HPP_
