#include "statistics/table_statistics.hpp"

#include <memory>

#include "statistics/counting_quotient_filter.hpp"
#include "statistics/min_max_filter.hpp"
#include "statistics/sorted_value_counts.hpp"
#include "storage/table.hpp"
#include "utils/assert.hpp"

namespace hyrise {

std::shared_ptr<TableStatistics> GenerateTableStatistics(const Table& table, HistogramLayout layout,
                                                         size_t max_sample_size) {
  const auto row_count = table.row_count();
  const auto chunk_count = table.chunk_count();
  // Sample every n-th row for large tables.
  const auto stride = std::max<size_t>(1, row_count / max_sample_size);

  auto column_statistics = std::vector<std::shared_ptr<const BaseAttributeStatistics>>{};
  column_statistics.reserve(table.column_count());

  for (auto column_id = ColumnID{0}; column_id < table.column_count(); ++column_id) {
    ResolveDataType(table.column_data_type(column_id), [&](auto type_tag) {
      using T = decltype(type_tag);
      // One sorted run per chunk, merged into the column's run.
      auto runs = std::vector<ValueCountRun<T>>{};
      runs.reserve(chunk_count);
      auto sampled = size_t{0};
      auto null_count = size_t{0};
      // Global row `row_index + offset` is sampled when it is a multiple of
      // `stride`, counting across chunks.
      auto row_index = size_t{0};
      for (auto chunk_id = ChunkID{0}; chunk_id < chunk_count; ++chunk_id) {
        const auto& segment = *table.GetChunk(chunk_id)->GetSegment(column_id);
        auto counts = CountSortedValues<T>(segment, (stride - row_index % stride) % stride, stride);
        for (const auto& [value, count] : counts.values) {
          sampled += count;
        }
        sampled += counts.null_count;
        null_count += counts.null_count;
        runs.push_back(std::move(counts.values));
        row_index += segment.size();
      }
      auto statistics = std::make_shared<AttributeStatistics<T>>();
      statistics->null_ratio = sampled > 0 ? static_cast<double>(null_count) / static_cast<double>(sampled) : 0.0;
      statistics->histogram = Histogram<T>::FromValueCounts(MergeValueCountRuns(std::move(runs)), layout);
      column_statistics.push_back(std::move(statistics));
    });
  }

  return std::make_shared<TableStatistics>(static_cast<double>(row_count), std::move(column_statistics));
}

void GenerateChunkPruningStatistics(const std::shared_ptr<Table>& table) {
  const auto chunk_count = table->chunk_count();
  for (auto chunk_id = ChunkID{0}; chunk_id < chunk_count; ++chunk_id) {
    const auto chunk = table->GetChunk(chunk_id);
    if (chunk->IsMutable() || chunk->pruning_statistics()) {
      continue;
    }

    auto statistics = std::make_shared<ChunkPruningStatistics>();
    statistics->reserve(chunk->column_count());

    for (auto column_id = ColumnID{0}; column_id < chunk->column_count(); ++column_id) {
      ResolveDataType(table->column_data_type(column_id), [&](auto type_tag) {
        using T = decltype(type_tag);
        const auto& segment = *chunk->GetSegment(column_id);
        const auto counts = CountSortedValues<T>(segment);
        if (counts.values.empty()) {
          statistics->push_back(nullptr);
          return;
        }

        auto filters = std::vector<std::shared_ptr<const AbstractSegmentFilter>>{
            std::make_shared<MinMaxFilter<T>>(counts.values.front().first, counts.values.back().first)};

        // A membership filter pays off when equality probes can miss; size it
        // on the distinct count, skip chunks of over a million non-NULL values.
        if (segment.size() - counts.null_count <= 1'000'000) {
          auto cqf = std::make_shared<CountingQuotientFilter<T>>(counts.values.size());
          for (const auto& [value, count] : counts.values) {
            cqf->Insert(value, static_cast<uint32_t>(count));
          }
          filters.push_back(std::move(cqf));
        }

        statistics->push_back(std::make_shared<CompositeSegmentFilter>(std::move(filters)));
      });
    }

    chunk->SetPruningStatistics(std::move(statistics));
  }
}

}  // namespace hyrise
