#include "statistics/table_statistics.hpp"

#include <memory>

#include "statistics/counting_quotient_filter.hpp"
#include "statistics/min_max_filter.hpp"
#include "storage/segment_iterables/segment_iterate.hpp"
#include "storage/table.hpp"
#include "utils/assert.hpp"

namespace hyrise {

namespace {

/// Prunes if any member filter prunes.
class CompositeSegmentFilter final : public AbstractSegmentFilter {
 public:
  explicit CompositeSegmentFilter(std::vector<std::shared_ptr<const AbstractSegmentFilter>> filters)
      : filters_(std::move(filters)) {}

  bool CanPrune(PredicateCondition condition, const AllTypeVariant& value,
                const std::optional<AllTypeVariant>& value2 = std::nullopt) const final {
    for (const auto& filter : filters_) {
      if (filter->CanPrune(condition, value, value2)) {
        return true;
      }
    }
    return false;
  }

 private:
  std::vector<std::shared_ptr<const AbstractSegmentFilter>> filters_;
};

}  // namespace

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
      auto values = std::vector<T>{};
      values.reserve(row_count / stride + 1);
      auto null_count = size_t{0};
      auto row_index = size_t{0};
      for (auto chunk_id = ChunkID{0}; chunk_id < chunk_count; ++chunk_id) {
        const auto segment = table.GetChunk(chunk_id)->GetSegment(column_id);
        SegmentIterate<T>(*segment, [&](const auto& position) {
          if (row_index++ % stride != 0) {
            return;
          }
          if (position.is_null()) {
            ++null_count;
          } else {
            values.push_back(position.value());
          }
        });
      }
      auto statistics = std::make_shared<AttributeStatistics<T>>();
      const auto sampled = values.size() + null_count;
      statistics->null_ratio = sampled > 0 ? static_cast<double>(null_count) / static_cast<double>(sampled) : 0.0;
      statistics->histogram = Histogram<T>::FromValues(std::move(values), layout);
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
        auto values = std::vector<T>{};
        const auto segment = chunk->GetSegment(column_id);
        values.reserve(segment->size());
        SegmentIterate<T>(*segment, [&](const auto& position) {
          if (!position.is_null()) {
            values.push_back(position.value());
          }
        });
        if (values.empty()) {
          statistics->push_back(nullptr);
          return;
        }

        const auto [min_iter, max_iter] = std::minmax_element(values.begin(), values.end());
        auto filters = std::vector<std::shared_ptr<const AbstractSegmentFilter>>{
            std::make_shared<MinMaxFilter<T>>(*min_iter, *max_iter)};

        // A membership filter pays off when equality probes can miss; size it
        // on the value count, skip very wide chunks to bound memory.
        if (values.size() <= 1'000'000) {
          auto cqf = std::make_shared<CountingQuotientFilter<T>>(values.size());
          for (const auto& value : values) {
            cqf->Insert(value);
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
