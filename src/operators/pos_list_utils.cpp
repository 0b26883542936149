#include "operators/pos_list_utils.hpp"

#include <unordered_map>

#include "storage/reference_segment.hpp"
#include "utils/assert.hpp"

namespace hyrise {

namespace {

const ReferenceSegment& FirstReferenceSegment(const Table& table, ColumnID column_id) {
  Assert(table.chunk_count() > 0, "Reference table without chunks");
  const auto segment = table.GetChunk(ChunkID{0})->GetSegment(column_id);
  const auto* reference_segment = dynamic_cast<const ReferenceSegment*>(segment.get());
  Assert(reference_segment != nullptr, "Reference table contains non-reference segment");
  return *reference_segment;
}

/// Identity of a column's position-list chain: the pos-list pointer of its
/// first chunk. Columns sharing lists in chunk 0 share them everywhere in
/// plans produced by this system's operators.
const void* PosListIdentity(const Table& table, ColumnID column_id) {
  if (table.type() == TableType::kData) {
    return nullptr;
  }
  return FirstReferenceSegment(table, column_id).pos_list().get();
}

}  // namespace

std::shared_ptr<const Table> ReferencedTable(const std::shared_ptr<const Table>& table, ColumnID column_id) {
  if (table->type() == TableType::kData) {
    return table;
  }
  return FirstReferenceSegment(*table, column_id).referenced_table();
}

std::shared_ptr<const std::vector<RowID>> FlattenRowIds(const std::shared_ptr<const Table>& table,
                                                        ColumnID column_id) {
  auto row_ids = std::make_shared<std::vector<RowID>>();
  row_ids->reserve(table->row_count());
  const auto chunk_count = table->chunk_count();
  if (table->type() == TableType::kData) {
    for (auto chunk_id = ChunkID{0}; chunk_id < chunk_count; ++chunk_id) {
      const auto chunk_size = table->GetChunk(chunk_id)->size();
      for (auto offset = ChunkOffset{0}; offset < chunk_size; ++offset) {
        row_ids->push_back(RowID{chunk_id, offset});
      }
    }
    return row_ids;
  }
  for (auto chunk_id = ChunkID{0}; chunk_id < chunk_count; ++chunk_id) {
    const auto segment = table->GetChunk(chunk_id)->GetSegment(column_id);
    const auto* reference_segment = dynamic_cast<const ReferenceSegment*>(segment.get());
    Assert(reference_segment != nullptr, "Reference table contains non-reference segment");
    const auto& pos_list = *reference_segment->pos_list();
    row_ids->insert(row_ids->end(), pos_list.begin(), pos_list.end());
  }
  return row_ids;
}

ColumnID ResolveReferencedColumn(const std::shared_ptr<const Table>& input, ColumnID column_id) {
  if (input->type() == TableType::kData) {
    return column_id;
  }
  return FirstReferenceSegment(*input, column_id).referenced_column_id();
}

Segments ComposeOutputSegments(const std::shared_ptr<const Table>& input, const std::vector<size_t>& row_indices) {
  const auto column_count = input->column_count();
  auto segments = Segments{};
  segments.reserve(column_count);

  // Compose one output pos list per distinct input pos-list chain.
  auto composed_cache = std::unordered_map<const void*, std::shared_ptr<RowIDPosList>>{};
  auto flattened_cache = std::unordered_map<const void*, std::shared_ptr<const std::vector<RowID>>>{};

  for (auto column_id = ColumnID{0}; column_id < column_count; ++column_id) {
    const auto identity = PosListIdentity(*input, column_id);
    auto& composed = composed_cache[identity];
    if (!composed) {
      auto& flattened = flattened_cache[identity];
      if (!flattened) {
        flattened = FlattenRowIds(input, column_id);
      }
      composed = std::make_shared<RowIDPosList>();
      composed->reserve(row_indices.size());
      for (const auto row_index : row_indices) {
        composed->push_back(row_index == kPaddingRow ? kNullRowId : (*flattened)[row_index]);
      }
    }
    segments.push_back(
        std::make_shared<ReferenceSegment>(ReferencedTable(input, column_id), ResolveReferencedColumn(input, column_id),
                                           composed));
  }
  return segments;
}

Segments ComposeFilteredSegments(const std::shared_ptr<const Table>& input, ChunkID chunk_id,
                                 const std::vector<ChunkOffset>& matches) {
  const auto column_count = input->column_count();
  auto segments = Segments{};
  segments.reserve(column_count);

  if (input->type() == TableType::kData) {
    auto pos_list = std::make_shared<RowIDPosList>();
    pos_list->reserve(matches.size());
    for (const auto offset : matches) {
      pos_list->push_back(RowID{chunk_id, offset});
    }
    pos_list->GuaranteeSingleChunk();
    for (auto column_id = ColumnID{0}; column_id < column_count; ++column_id) {
      segments.push_back(std::make_shared<ReferenceSegment>(input, column_id, pos_list));
    }
    return segments;
  }

  const auto chunk = input->GetChunk(chunk_id);
  auto composed_cache = std::unordered_map<const void*, std::shared_ptr<RowIDPosList>>{};
  for (auto column_id = ColumnID{0}; column_id < column_count; ++column_id) {
    const auto segment = chunk->GetSegment(column_id);
    const auto* reference_segment = dynamic_cast<const ReferenceSegment*>(segment.get());
    Assert(reference_segment != nullptr, "Reference table contains non-reference segment");
    const auto& input_pos_list = *reference_segment->pos_list();
    auto& composed = composed_cache[input_pos_list.empty() ? nullptr : static_cast<const void*>(&input_pos_list)];
    if (!composed) {
      composed = std::make_shared<RowIDPosList>();
      composed->reserve(matches.size());
      for (const auto offset : matches) {
        composed->push_back(input_pos_list[offset]);
      }
      if (input_pos_list.ReferencesSingleChunk()) {
        composed->GuaranteeSingleChunk();  // A subset of one chunk's rows.
      }
    }
    segments.push_back(std::make_shared<ReferenceSegment>(reference_segment->referenced_table(),
                                                          reference_segment->referenced_column_id(), composed));
  }
  return segments;
}

std::shared_ptr<Table> MakeReferenceTable(const std::shared_ptr<const Table>& input) {
  return std::make_shared<Table>(input->column_definitions(), TableType::kReferences);
}

}  // namespace hyrise
