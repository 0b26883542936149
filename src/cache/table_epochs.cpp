#include "cache/table_epochs.hpp"

#include <algorithm>

namespace hyrise {

void TableEpochRegistry::OnCommittedWrite(const std::string& table_name, CommitID commit_id) {
  const auto lock = std::lock_guard{mutex_};
  auto& state = states_[table_name];
  ++state.data_epoch;
  state.last_write_cid = std::max(state.last_write_cid, commit_id);
}

void TableEpochRegistry::OnSchemaChange(const std::string& table_name, CommitID commit_id) {
  const auto lock = std::lock_guard{mutex_};
  auto& state = states_[table_name];
  ++state.data_epoch;
  ++state.schema_epoch;
  state.last_write_cid = std::max(state.last_write_cid, commit_id);
}

TableEpochState TableEpochRegistry::StateOf(const std::string& table_name) const {
  const auto lock = std::lock_guard{mutex_};
  const auto iter = states_.find(table_name);
  return iter == states_.end() ? TableEpochState{} : iter->second;
}

bool TableEpochRegistry::SchemaEpochsCurrent(
    const std::vector<std::pair<std::string, uint64_t>>& epochs) const {
  const auto lock = std::lock_guard{mutex_};
  for (const auto& [table_name, schema_epoch] : epochs) {
    const auto iter = states_.find(table_name);
    const auto current = iter == states_.end() ? uint64_t{0} : iter->second.schema_epoch;
    if (current != schema_epoch) {
      return false;
    }
  }
  return true;
}

}  // namespace hyrise
