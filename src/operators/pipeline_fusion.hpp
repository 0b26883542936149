#ifndef HYRISE_SRC_OPERATORS_PIPELINE_FUSION_HPP_
#define HYRISE_SRC_OPERATORS_PIPELINE_FUSION_HPP_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "storage/segment_decoder.hpp"
#include "storage/table.hpp"
#include "storage/value_segment.hpp"
#include "utils/assert.hpp"

namespace hyrise {

/// Template-fused pipeline: this repository's reproduction of the paper's
/// code specialization (§2.7; DESIGN.md §5h).
///
/// The original system keeps generalized operator code in LLVM IR and, at
/// runtime, inlines virtual calls, removes type switches, and fuses all
/// operators between two pipeline breakers into one loop. This header
/// provides that *effect* through compile-time specialization: filter and
/// consume functors and the column arity are template parameters, so the
/// whole scan→filter→project→aggregate pipeline compiles into one loop with
/// no virtual calls, no type switches, and no per-expression-node
/// intermediate materializations. It requires the pipeline shape at build
/// time, so it serves as the upper bound of what fusion gains, not as a
/// query execution path: SQL queries run on the regular operators, which
/// evaluate complex expressions on the interpreting ExpressionEvaluator (see
/// bench/jit_specialization.cpp for the comparison of the two).

/// How one column of one chunk is accessed by the fused loop.
enum class FusedSegmentAccess : uint8_t {
  /// Non-nullable ValueSegment<T>: the loop points directly at its values.
  kZeroCopy,
  /// Anything else (encoded, nullable, or differently typed): one decode
  /// pass per chunk into a scratch buffer.
  kDecode,
};

/// One-time per-table probe result: which access path each (chunk, column)
/// pair takes and which columns can hold NULLs. Hoisting the probe out of
/// the scan means the fused loop never pays the per-chunk `dynamic_cast`
/// that used to sit on the hot path — relevant when the same table is
/// scanned repeatedly (benchmark iterations, hot cached plans).
///
/// The layout describes the table as probed; re-probe after appending
/// chunks or swapping the table.
template <size_t N>
struct FusedPipelineLayout {
  /// access[chunk_id][column_index], indexed like the probe's inputs.
  std::vector<std::array<FusedSegmentAccess, N>> access;
  /// Schema nullability per accessed column; only nullable columns pay for
  /// a null mask during the scan.
  std::array<bool, N> nullable{};
  bool any_nullable{false};
};

template <typename T, size_t N>
FusedPipelineLayout<N> ProbeFusedLayout(const Table& table, const std::array<ColumnID, N>& columns) {
  auto layout = FusedPipelineLayout<N>{};
  for (auto index = size_t{0}; index < N; ++index) {
    layout.nullable[index] = table.column_is_nullable(columns[index]);
    layout.any_nullable = layout.any_nullable || layout.nullable[index];
  }
  const auto chunk_count = table.chunk_count();
  layout.access.resize(chunk_count);
  for (auto chunk_id = ChunkID{0}; chunk_id < chunk_count; ++chunk_id) {
    const auto chunk = table.GetChunk(chunk_id);
    for (auto index = size_t{0}; index < N; ++index) {
      const auto segment = chunk->GetSegment(columns[index]);
      const auto* value_segment = dynamic_cast<const ValueSegment<T>*>(segment.get());
      layout.access[chunk_id][index] = value_segment && !value_segment->is_nullable()
                                           ? FusedSegmentAccess::kZeroCopy
                                           : FusedSegmentAccess::kDecode;
    }
  }
  return layout;
}

/// Fused scan→filter→project→aggregate loop over `columns` of `table`.
///
/// `filter` and `consume` receive a std::array<T, N> with the row's column
/// values. NULL handling follows SQL three-valued logic the way the fused
/// shape allows: a row with a NULL in any accessed column can neither
/// satisfy the filter (the predicate is unknown) nor reach `consume` (SUM/
/// MIN/MAX/AVG ignore NULL inputs), so such rows are skipped outright. For
/// columns the schema marks non-nullable the mask is elided entirely —
/// the same null-check elision the runtime-compiled pipelines apply.
template <typename T, size_t N, typename FilterFn, typename ConsumeFn>
void FusedScanAggregate(const Table& table, const std::array<ColumnID, N>& columns,
                        const FusedPipelineLayout<N>& layout, const FilterFn& filter, const ConsumeFn& consume) {
  const auto chunk_count = table.chunk_count();
  Assert(layout.access.size() == chunk_count, "FusedPipelineLayout is stale: re-probe after table changes");
  auto null_mask = std::vector<uint8_t>{};
  auto null_rows = std::vector<size_t>{};
  for (auto chunk_id = ChunkID{0}; chunk_id < chunk_count; ++chunk_id) {
    const auto chunk = table.GetChunk(chunk_id);
    const auto chunk_size = chunk->size();

    if (layout.any_nullable) {
      null_mask.assign(chunk_size, 0);
    }

    // Column access: zero-copy for non-nullable unencoded segments, one
    // decode per chunk otherwise (the fused loop reads the storage layer
    // directly). The access kind comes from the pre-probed layout.
    std::array<const T*, N> column_data{};
    std::array<std::vector<T>, N> decoded;
    for (auto index = size_t{0}; index < N; ++index) {
      const auto segment = chunk->GetSegment(columns[index]);
      if (layout.access[chunk_id][index] == FusedSegmentAccess::kZeroCopy) {
        column_data[index] = static_cast<const ValueSegment<T>&>(*segment).values().data();
        continue;
      }
      // NULL rows keep the T{} that resize wrote.
      decoded[index].resize(chunk_size);
      null_rows.clear();
      DecodeSegment<T, T>(*segment, 0, decoded[index], null_rows);
      if (layout.nullable[index]) {
        for (const auto row : null_rows) {
          null_mask[row] = 1;
        }
      }
      column_data[index] = decoded[index].data();
    }

    for (auto offset = ChunkOffset{0}; offset < chunk_size; ++offset) {
      if (layout.any_nullable && null_mask[offset] != 0) {
        continue;
      }
      auto row = std::array<T, N>{};
      for (auto index = size_t{0}; index < N; ++index) {
        row[index] = column_data[index][offset];
      }
      if (filter(row)) {
        consume(row);
      }
    }
  }
}

/// Convenience overload probing the layout on every call — fine for
/// one-shot scans; repeated scans should probe once and reuse the layout.
template <typename T, size_t N, typename FilterFn, typename ConsumeFn>
void FusedScanAggregate(const Table& table, const std::array<ColumnID, N>& columns, const FilterFn& filter,
                        const ConsumeFn& consume) {
  FusedScanAggregate<T, N>(table, columns, ProbeFusedLayout<T, N>(table, columns), filter, consume);
}

}  // namespace hyrise

#endif  // HYRISE_SRC_OPERATORS_PIPELINE_FUSION_HPP_
