#include "operators/index_scan.hpp"

#include <algorithm>

#include "hyrise.hpp"
#include "operators/pos_list_utils.hpp"
#include "operators/table_scan.hpp"
#include "storage/table.hpp"
#include "utils/assert.hpp"

namespace hyrise {

IndexScan::IndexScan(std::string table_name, std::vector<ChunkID> pruned_chunk_ids, ColumnID column_id,
                     PredicateCondition condition, AllTypeVariant value, std::optional<AllTypeVariant> value2)
    : AbstractOperator(OperatorType::kIndexScan),
      table_name_(std::move(table_name)),
      pruned_chunk_ids_(std::move(pruned_chunk_ids)),
      column_id_(column_id),
      condition_(condition),
      value_(std::move(value)),
      value2_(std::move(value2)) {
  std::sort(pruned_chunk_ids_.begin(), pruned_chunk_ids_.end());
}

std::string IndexScan::Description() const {
  return "IndexScan #" + std::to_string(column_id_) + " " + PredicateConditionToString(condition_) + " " +
         VariantToString(value_);
}

namespace {

/// Asks a chunk index for the rows of a typed predicate; the index receives
/// values of exactly its column type.
template <typename T>
void QueryIndex(const AbstractChunkIndex& index, const TypedPredicate<T>& predicate,
                std::vector<ChunkOffset>& matches) {
  const auto value = std::optional<AllTypeVariant>{predicate.value};
  switch (predicate.condition) {
    case PredicateCondition::kEquals:
      index.Equals(*value, matches);
      return;
    case PredicateCondition::kLessThan:
    case PredicateCondition::kLessThanEquals:
      index.Range(std::nullopt, true, value, predicate.condition == PredicateCondition::kLessThanEquals, matches);
      return;
    case PredicateCondition::kGreaterThan:
    case PredicateCondition::kGreaterThanEquals:
      index.Range(value, predicate.condition == PredicateCondition::kGreaterThanEquals, std::nullopt, true, matches);
      return;
    case PredicateCondition::kBetweenInclusive:
      index.Range(value, true, AllTypeVariant{*predicate.value2}, true, matches);
      return;
    default:
      Fail("IndexScan does not support this condition");
  }
}

}  // namespace

std::shared_ptr<const Table> IndexScan::OnExecute(const std::shared_ptr<TransactionContext>& /*context*/) {
  const auto table = Hyrise::Get().storage_manager.GetTable(table_name_);
  const auto output = MakeReferenceTable(table);

  ResolveDataType(table->column_data_type(column_id_), [&](auto type_tag) {
    using T = decltype(type_tag);
    const auto predicate = TypePredicateLiteral<T>(condition_, value_, value2_);
    // Indexes answer equality and ranges; TableScan's kernel answers the rest
    // (`<>`, constant outcomes, type mismatches).
    const auto use_indexes =
        predicate.outcome == LiteralOutcome::kTyped && predicate.condition != PredicateCondition::kNotEquals;

    const auto chunk_count = table->chunk_count();
    for (auto chunk_id = ChunkID{0}; chunk_id < chunk_count; ++chunk_id) {
      if (std::binary_search(pruned_chunk_ids_.begin(), pruned_chunk_ids_.end(), chunk_id)) {
        continue;
      }
      const auto chunk = table->GetChunk(chunk_id);
      auto matches = std::vector<ChunkOffset>{};
      const auto indexes = chunk->GetIndexes({column_id_});
      if (use_indexes && !indexes.empty()) {
        QueryIndex<T>(*indexes.front(), predicate, matches);
        std::sort(matches.begin(), matches.end());
      } else {
        ScanSegmentForLiteral<T>(*chunk->GetSegment(column_id_), predicate, matches);
      }
      if (!matches.empty()) {
        output->AppendChunk(ComposeFilteredSegments(table, chunk_id, matches));
      }
    }
  });
  return output;
}

}  // namespace hyrise
