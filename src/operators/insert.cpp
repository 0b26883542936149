#include "operators/insert.hpp"

#include "concurrency/transaction_context.hpp"
#include "hyrise.hpp"
#include "storage/table.hpp"
#include "utils/assert.hpp"
#include "utils/failure_injection.hpp"

namespace hyrise {

Insert::Insert(std::string table_name, std::shared_ptr<AbstractOperator> input)
    : AbstractReadWriteOperator(OperatorType::kInsert, std::move(input)), table_name_(std::move(table_name)) {}

std::shared_ptr<const Table> Insert::OnExecute(const std::shared_ptr<TransactionContext>& context) {
  target_table_ = Hyrise::Get().storage_manager.GetTable(table_name_);
  const auto input = left_input_->get_output();
  Assert(input->column_count() == target_table_->column_count(), "INSERT: column count mismatch");

  // A value of another type is cast to its column's type before the first
  // append, so a value that is no number (22P02) fails the statement with
  // nothing written, not halfway through a row.
  auto rows = input->GetRows();
  for (auto& row : rows) {
    for (auto index = size_t{0}; index < row.size(); ++index) {
      const auto data_type = target_table_->column_data_type(ColumnID{static_cast<uint16_t>(index)});
      if (!VariantIsNull(row[index]) && DataTypeOfVariant(row[index]) != data_type) {
        ResolveDataType(data_type, [&](auto type_tag) {
          using T = decltype(type_tag);
          row[index] = AllTypeVariant{VariantCast<T>(row[index])};
        });
      }
    }
  }
  const auto use_mvcc = target_table_->uses_mvcc() == UseMvcc::kYes;
  Assert(!use_mvcc || context, "Insert into MVCC table requires a transaction context");

  // Register *before* the first row is appended: if the append loop fails
  // mid-chunk (allocation failure, injected fault), the transaction's
  // rollback must already know about this operator to undo the partial write.
  if (use_mvcc) {
    context->RegisterReadWriteOperator(std::static_pointer_cast<AbstractReadWriteOperator>(shared_from_this()));
    context->RegisterWrittenTable(table_name_);
  }

  {
    const auto lock = std::lock_guard{target_table_->append_mutex()};
    for (const auto& row : rows) {
      // Placed before the row slot is claimed, so a thrown fault leaves no
      // half-claimed slot behind — everything up to here is undone via
      // inserted_row_ids_.
      FAILPOINT("insert/row");
      const auto [chunk_id, chunk] = target_table_->TailChunkForAppend();
      const auto offset = chunk->size();

      if (use_mvcc) {
        // Claim the row slot before the values become readable.
        chunk->mvcc_data()->SetTid(offset, context->transaction_id());
      }
      chunk->Append(row);
      inserted_row_ids_.push_back(RowID{chunk_id, offset});
    }
  }
  return nullptr;
}

void Insert::CommitRecords(CommitID commit_id) {
  for (const auto row_id : inserted_row_ids_) {
    const auto chunk = target_table_->GetChunk(row_id.chunk_id);
    chunk->mvcc_data()->SetBeginCid(row_id.chunk_offset, commit_id);
    chunk->mvcc_data()->SetTid(row_id.chunk_offset, kInvalidTransactionId);
  }
}

void Insert::RollbackRecords() {
  // Idempotent: invalid-row counters must not double-count when a rollback is
  // retried (e.g. pipeline rollback racing a context destructor).
  if (rolled_back_) {
    return;
  }
  rolled_back_ = true;
  for (const auto row_id : inserted_row_ids_) {
    const auto chunk = target_table_->GetChunk(row_id.chunk_id);
    // Begin CID stays unset: the row is invisible to every snapshot forever.
    chunk->mvcc_data()->SetEndCid(row_id.chunk_offset, CommitID{0});
    chunk->mvcc_data()->SetTid(row_id.chunk_offset, kInvalidTransactionId);
    chunk->IncreaseInvalidRowCount(1);
  }
}

}  // namespace hyrise
