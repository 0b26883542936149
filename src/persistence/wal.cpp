#include "persistence/wal.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "concurrency/transaction_context.hpp"
#include "hyrise.hpp"
#include "operators/delete.hpp"
#include "operators/insert.hpp"
#include "persistence/binary_format.hpp"
#include "storage/table.hpp"
#include "utils/assert.hpp"
#include "utils/failure_injection.hpp"

namespace hyrise::persistence {

namespace {

/// Segment header magic ("HYRSWAL1" in little-endian byte order).
constexpr uint64_t kWalMagic = 0x314C4157'53525948ULL;
constexpr uint32_t kWalVersion = 1;
constexpr size_t kWalHeaderSize = sizeof(uint64_t) + sizeof(uint32_t);
/// Per-record framing: u32 payload size + u64 payload digest.
constexpr size_t kRecordHeaderSize = sizeof(uint32_t) + sizeof(uint64_t);
/// Smallest possible payload: u64 LSN + u32 commit ID + u8 kind.
constexpr size_t kMinPayloadSize = sizeof(uint64_t) + sizeof(CommitID) + 1;
/// Payloads above this are rejected as corrupt length fields at replay; a
/// legitimate record is bounded by segment_max_bytes plus one transaction.
constexpr uint32_t kMaxPayloadSize = 1u << 30;

constexpr uint8_t kRecordCommit = 0;
constexpr uint8_t kRecordCreateTable = 1;
constexpr uint8_t kRecordDropTable = 2;

std::string SegmentPath(const std::string& directory, uint64_t index) {
  return directory + "/wal_" + std::to_string(index) + ".log";
}

/// fsyncs the directory itself so a freshly created segment file name is
/// durable (same protocol as AtomicRename for snapshot files).
void FsyncDirectory(const std::string& directory) {
  const auto fd = ::open(directory.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

// --- Payload construction ----------------------------------------------------

/// Little append-only buffer for record payloads. The first 8 bytes are a
/// placeholder for the LSN, which AppendRecord assigns under the log mutex.
class PayloadBuilder {
 public:
  PayloadBuilder() {
    bytes_.resize(sizeof(uint64_t), uint8_t{0});
  }

  template <typename T>
  void Append(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto offset = bytes_.size();
    bytes_.resize(offset + sizeof(T));
    std::memcpy(bytes_.data() + offset, &value, sizeof(T));
  }

  void AppendString(const std::string& value) {
    Append(static_cast<uint32_t>(value.size()));
    const auto offset = bytes_.size();
    bytes_.resize(offset + value.size());
    std::memcpy(bytes_.data() + offset, value.data(), value.size());
  }

  void AppendValue(DataType data_type, const AllTypeVariant& value) {
    const auto is_null = VariantIsNull(value);
    Append(static_cast<uint8_t>(is_null ? 1 : 0));
    if (is_null) {
      return;
    }
    switch (data_type) {
      case DataType::kInt:
        Append(VariantCast<int32_t>(value));
        return;
      case DataType::kLong:
        Append(VariantCast<int64_t>(value));
        return;
      case DataType::kFloat:
        Append(VariantCast<float>(value));
        return;
      case DataType::kDouble:
        Append(VariantCast<double>(value));
        return;
      case DataType::kString:
        AppendString(VariantCast<std::string>(value));
        return;
      case DataType::kNull:
        break;
    }
    Fail("WAL: cannot serialize a value of DataType::kNull");
  }

  std::vector<uint8_t>& bytes() {
    return bytes_;
  }

 private:
  std::vector<uint8_t> bytes_;
};

/// Bounds-checked cursor over a record payload. Any overrun latches failed().
class PayloadReader {
 public:
  PayloadReader(const uint8_t* data, size_t size) : cursor_(data), end_(data + size) {}

  template <typename T>
  bool Read(T& out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (static_cast<size_t>(end_ - cursor_) < sizeof(T)) {
      failed_ = true;
      return false;
    }
    std::memcpy(&out, cursor_, sizeof(T));
    cursor_ += sizeof(T);
    return true;
  }

  bool ReadString(std::string& out) {
    auto size = uint32_t{0};
    if (!Read(size) || static_cast<size_t>(end_ - cursor_) < size) {
      failed_ = true;
      return false;
    }
    out.assign(reinterpret_cast<const char*>(cursor_), size);
    cursor_ += size;
    return true;
  }

  bool ReadValue(DataType data_type, AllTypeVariant& out) {
    auto is_null = uint8_t{0};
    if (!Read(is_null)) {
      return false;
    }
    if (is_null != 0) {
      out = kNullVariant;
      return true;
    }
    switch (data_type) {
      case DataType::kInt: {
        auto value = int32_t{0};
        if (!Read(value)) {
          return false;
        }
        out = value;
        return true;
      }
      case DataType::kLong: {
        auto value = int64_t{0};
        if (!Read(value)) {
          return false;
        }
        out = value;
        return true;
      }
      case DataType::kFloat: {
        auto value = float{0};
        if (!Read(value)) {
          return false;
        }
        out = value;
        return true;
      }
      case DataType::kDouble: {
        auto value = double{0};
        if (!Read(value)) {
          return false;
        }
        out = value;
        return true;
      }
      case DataType::kString: {
        auto value = std::string{};
        if (!ReadString(value)) {
          return false;
        }
        out = std::move(value);
        return true;
      }
      case DataType::kNull:
        break;
    }
    failed_ = true;
    return false;
  }

  bool AtEnd() const {
    return cursor_ == end_;
  }

  bool failed() const {
    return failed_;
  }

 private:
  const uint8_t* cursor_;
  const uint8_t* end_;
  bool failed_{false};
};

std::vector<AllTypeVariant> ReadRowValues(const Table& table, RowID row_id) {
  const auto chunk = table.GetChunk(row_id.chunk_id);
  const auto column_count = table.column_count();
  auto values = std::vector<AllTypeVariant>{};
  values.reserve(column_count);
  for (auto column_id = ColumnID{0}; column_id < column_count; ++column_id) {
    values.push_back((*chunk->GetSegment(column_id))[row_id.chunk_offset]);
  }
  return values;
}

/// One table's portion of a commit record: the column types it was logged
/// with and the affected row values.
struct ReplayGroup {
  std::string table_name;
  std::vector<DataType> column_types;
  std::vector<std::vector<AllTypeVariant>> rows;
};

bool ReadGroups(PayloadReader& reader, std::vector<ReplayGroup>& groups) {
  auto group_count = uint32_t{0};
  if (!reader.Read(group_count)) {
    return false;
  }
  groups.reserve(group_count);
  for (auto group_index = uint32_t{0}; group_index < group_count; ++group_index) {
    auto group = ReplayGroup{};
    auto column_count = uint16_t{0};
    if (!reader.ReadString(group.table_name) || !reader.Read(column_count)) {
      return false;
    }
    group.column_types.resize(column_count);
    for (auto& data_type : group.column_types) {
      auto raw = uint8_t{0};
      if (!reader.Read(raw)) {
        return false;
      }
      data_type = static_cast<DataType>(raw);
    }
    auto row_count = uint64_t{0};
    if (!reader.Read(row_count)) {
      return false;
    }
    group.rows.reserve(row_count);
    for (auto row_index = uint64_t{0}; row_index < row_count; ++row_index) {
      auto row = std::vector<AllTypeVariant>{};
      row.reserve(column_count);
      for (auto column_index = uint16_t{0}; column_index < column_count; ++column_index) {
        auto value = AllTypeVariant{};
        if (!reader.ReadValue(group.column_types[column_index], value)) {
          return false;
        }
        row.push_back(std::move(value));
      }
      group.rows.push_back(std::move(row));
    }
    groups.push_back(std::move(group));
  }
  return true;
}

void AppendGroups(PayloadBuilder& builder, const std::vector<ReplayGroup>& groups) {
  builder.Append(static_cast<uint32_t>(groups.size()));
  for (const auto& group : groups) {
    builder.AppendString(group.table_name);
    builder.Append(static_cast<uint16_t>(group.column_types.size()));
    for (const auto data_type : group.column_types) {
      builder.Append(static_cast<uint8_t>(data_type));
    }
    builder.Append(static_cast<uint64_t>(group.rows.size()));
    for (const auto& row : group.rows) {
      for (auto column_index = size_t{0}; column_index < group.column_types.size(); ++column_index) {
        builder.AppendValue(group.column_types[column_index], row[column_index]);
      }
    }
  }
}

/// Canonical byte key of a row's values — the delete-replay matching key.
/// Serialization is deterministic per column type, so a row read back from a
/// snapshot hashes identically to the same row read live before the crash.
std::string RowKey(const std::vector<DataType>& column_types, const std::vector<AllTypeVariant>& row) {
  auto builder = PayloadBuilder{};
  for (auto column_index = size_t{0}; column_index < column_types.size(); ++column_index) {
    builder.AppendValue(column_types[column_index], row[column_index]);
  }
  return std::string{reinterpret_cast<const char*>(builder.bytes().data()), builder.bytes().size()};
}

// --- Segment scanning --------------------------------------------------------

struct RecordView {
  uint64_t lsn{0};
  CommitID commit_id{0};
  uint8_t kind{0};
  const uint8_t* payload{nullptr};  // Past the LSN/CID/kind prefix.
  size_t payload_size{0};
};

struct SegmentScan {
  bool header_ok{false};
  uint64_t total_bytes{0};
  /// Header plus every fully valid record — the torn-tail truncation point.
  uint64_t valid_bytes{0};
  uint64_t record_count{0};
  CommitID max_commit_id{0};
  bool torn_tail{false};
};

/// Walks one segment record by record, verifying framing and checksums, and
/// hands each valid record to `apply` (nullable for a pure scan). The first
/// invalid byte sequence ends the walk with torn_tail set — whether that is
/// an acceptable crash signature or corruption is the caller's policy
/// decision based on the segment's position in the sequence.
Result<SegmentScan> ScanSegmentFile(const std::string& path,
                                    const std::function<Result<bool>(const RecordView&)>& apply) {
  using ScanResult = Result<SegmentScan>;
  auto scan = SegmentScan{};

  auto* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return ScanResult::Error("Cannot open WAL segment '" + path + "': " + std::strerror(errno));
  }
  auto bytes = std::vector<uint8_t>{};
  std::fseek(file, 0, SEEK_END);
  const auto file_size = std::ftell(file);
  if (file_size < 0) {
    std::fclose(file);
    return ScanResult::Error("Cannot read WAL segment '" + path + "': " + std::strerror(errno));
  }
  bytes.resize(static_cast<size_t>(file_size));
  std::fseek(file, 0, SEEK_SET);
  if (!bytes.empty() && std::fread(bytes.data(), 1, bytes.size(), file) != bytes.size()) {
    std::fclose(file);
    return ScanResult::Error("Cannot read WAL segment '" + path + "': " + std::strerror(errno));
  }
  std::fclose(file);

  scan.total_bytes = bytes.size();
  if (bytes.size() < kWalHeaderSize) {
    scan.torn_tail = true;
    return scan;
  }
  auto magic = uint64_t{0};
  auto version = uint32_t{0};
  std::memcpy(&magic, bytes.data(), sizeof(magic));
  std::memcpy(&version, bytes.data() + sizeof(magic), sizeof(version));
  if (magic != kWalMagic || version != kWalVersion) {
    scan.torn_tail = true;
    return scan;
  }
  scan.header_ok = true;
  scan.valid_bytes = kWalHeaderSize;

  auto offset = kWalHeaderSize;
  while (offset < bytes.size()) {
    if (bytes.size() - offset < kRecordHeaderSize) {
      scan.torn_tail = true;
      break;
    }
    auto payload_size = uint32_t{0};
    auto stored_digest = uint64_t{0};
    std::memcpy(&payload_size, bytes.data() + offset, sizeof(payload_size));
    std::memcpy(&stored_digest, bytes.data() + offset + sizeof(payload_size), sizeof(stored_digest));
    if (payload_size < kMinPayloadSize || payload_size > kMaxPayloadSize ||
        payload_size > bytes.size() - offset - kRecordHeaderSize) {
      scan.torn_tail = true;
      break;
    }
    const auto* payload = bytes.data() + offset + kRecordHeaderSize;
    auto checksum = Checksum{};
    checksum.Update(payload, payload_size);
    if (checksum.Digest() != stored_digest) {
      scan.torn_tail = true;
      break;
    }
    auto record = RecordView{};
    auto reader = PayloadReader{payload, payload_size};
    if (!reader.Read(record.lsn) || !reader.Read(record.commit_id) || !reader.Read(record.kind)) {
      scan.torn_tail = true;
      break;
    }
    record.payload = payload + kMinPayloadSize;
    record.payload_size = payload_size - kMinPayloadSize;
    if (apply) {
      const auto applied = apply(record);
      if (!applied.ok()) {
        return ScanResult::Error(applied.error());
      }
    }
    offset += kRecordHeaderSize + payload_size;
    scan.valid_bytes = offset;
    ++scan.record_count;
    scan.max_commit_id = std::max(scan.max_commit_id, record.commit_id);
  }
  return scan;
}

/// All wal_<index>.log files in `directory`, sorted by index.
Result<std::vector<std::pair<uint64_t, std::string>>> ListSegments(const std::string& directory) {
  using ListResult = Result<std::vector<std::pair<uint64_t, std::string>>>;
  auto segments = std::vector<std::pair<uint64_t, std::string>>{};
  auto error_code = std::error_code{};
  auto iterator = std::filesystem::directory_iterator{directory, error_code};
  if (error_code) {
    return ListResult::Error("Cannot list WAL directory '" + directory + "': " + error_code.message());
  }
  for (const auto& entry : iterator) {
    const auto filename = entry.path().filename().string();
    if (filename.size() <= 8 || filename.substr(0, 4) != "wal_" || filename.substr(filename.size() - 4) != ".log") {
      continue;
    }
    const auto index_text = filename.substr(4, filename.size() - 8);
    if (index_text.empty() ||
        index_text.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    segments.emplace_back(std::stoull(index_text), entry.path().string());
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

// --- Replay application ------------------------------------------------------

Result<bool> ApplyInsertGroup(const ReplayGroup& group, CommitID commit_id, WalRecoveryStats& stats) {
  using ApplyResult = Result<bool>;
  auto& storage_manager = Hyrise::Get().storage_manager;
  if (!storage_manager.HasTable(group.table_name)) {
    return ApplyResult::Error("WAL recovery: commit " + std::to_string(commit_id) + " references unknown table '" +
                              group.table_name + "'");
  }
  const auto table = storage_manager.GetTable(group.table_name);
  if (table->column_count() != group.column_types.size()) {
    return ApplyResult::Error("WAL recovery: column count mismatch for table '" + group.table_name + "'");
  }
  for (auto column_id = ColumnID{0}; column_id < table->column_count(); ++column_id) {
    if (table->column_data_type(column_id) != group.column_types[column_id]) {
      return ApplyResult::Error("WAL recovery: column type mismatch for table '" + group.table_name + "'");
    }
  }

  // Mirrors Insert::OnExecute's append loop, but with the record's commit ID
  // stamped directly as the begin CID — the row is committed by definition.
  const auto lock = std::lock_guard{table->append_mutex()};
  for (const auto& row : group.rows) {
    auto chunk = std::shared_ptr<Chunk>{};
    if (table->chunk_count() > 0) {
      chunk = table->GetChunk(ChunkID{table->chunk_count() - 1});
    }
    if (!chunk || !chunk->IsMutable() || chunk->size() >= table->target_chunk_size()) {
      table->AppendMutableChunk();
      chunk = table->GetChunk(ChunkID{table->chunk_count() - 1});
    }
    const auto offset = chunk->size();
    chunk->Append(row);
    if (chunk->mvcc_data()) {
      chunk->mvcc_data()->SetBeginCid(offset, commit_id);
    }
    ++stats.rows_inserted;
  }
  return true;
}

Result<bool> ApplyDeleteGroup(const ReplayGroup& group, CommitID commit_id, WalRecoveryStats& stats) {
  using ApplyResult = Result<bool>;
  auto& storage_manager = Hyrise::Get().storage_manager;
  if (!storage_manager.HasTable(group.table_name)) {
    return ApplyResult::Error("WAL recovery: commit " + std::to_string(commit_id) + " deletes from unknown table '" +
                              group.table_name + "'");
  }
  const auto table = storage_manager.GetTable(group.table_name);
  if (table->column_count() != group.column_types.size()) {
    return ApplyResult::Error("WAL recovery: column count mismatch for table '" + group.table_name + "'");
  }

  // Deletes are matched by value, not RowID (see wal.hpp): build a multiset
  // of the logged rows, then invalidate the first visible match of each in
  // one deterministic chunk-order pass.
  auto pending = std::unordered_map<std::string, uint64_t>{};
  for (const auto& row : group.rows) {
    ++pending[RowKey(group.column_types, row)];
  }
  auto remaining = group.rows.size();

  const auto chunk_count = table->chunk_count();
  for (auto chunk_id = ChunkID{0}; chunk_id < chunk_count && remaining > 0; ++chunk_id) {
    const auto chunk = table->GetChunk(chunk_id);
    const auto& mvcc = chunk->mvcc_data();
    if (!mvcc) {
      continue;
    }
    const auto chunk_size = chunk->size();
    for (auto offset = ChunkOffset{0}; offset < chunk_size && remaining > 0; ++offset) {
      const auto begin_cid = mvcc->GetBeginCid(offset);
      // Visible to this commit: created earlier (snapshot rows have begin 0,
      // replayed rows their record's CID) and not yet invalidated.
      if (begin_cid >= commit_id || mvcc->GetEndCid(offset) != kMaxCommitId) {
        continue;
      }
      const auto key = RowKey(group.column_types, ReadRowValues(*table, RowID{chunk_id, offset}));
      const auto match = pending.find(key);
      if (match == pending.end() || match->second == 0) {
        continue;
      }
      --match->second;
      --remaining;
      mvcc->SetEndCid(offset, commit_id);
      chunk->IncreaseInvalidRowCount(1);
      ++stats.rows_deleted;
    }
  }
  if (remaining > 0) {
    return ApplyResult::Error("WAL recovery: commit " + std::to_string(commit_id) + " deletes " +
                              std::to_string(remaining) + " row(s) not present in table '" + group.table_name +
                              "' — log and snapshot are inconsistent");
  }
  return true;
}

Result<bool> ApplyRecord(const RecordView& record, WalRecoveryStats& stats) {
  using ApplyResult = Result<bool>;
  auto& hyrise = Hyrise::Get();
  auto reader = PayloadReader{record.payload, record.payload_size};

  switch (record.kind) {
    case kRecordCommit: {
      auto insert_groups = std::vector<ReplayGroup>{};
      auto delete_groups = std::vector<ReplayGroup>{};
      if (!ReadGroups(reader, insert_groups) || !ReadGroups(reader, delete_groups) || !reader.AtEnd()) {
        return ApplyResult::Error("WAL recovery: malformed commit record (commit " +
                                  std::to_string(record.commit_id) + ")");
      }
      for (const auto& group : delete_groups) {
        const auto applied = ApplyDeleteGroup(group, record.commit_id, stats);
        if (!applied.ok()) {
          return applied;
        }
        Hyrise::Get().table_epochs.OnCommittedWrite(group.table_name, record.commit_id);
      }
      for (const auto& group : insert_groups) {
        const auto applied = ApplyInsertGroup(group, record.commit_id, stats);
        if (!applied.ok()) {
          return applied;
        }
        Hyrise::Get().table_epochs.OnCommittedWrite(group.table_name, record.commit_id);
      }
      return true;
    }
    case kRecordCreateTable: {
      auto table_name = std::string{};
      auto column_count = uint16_t{0};
      if (!reader.ReadString(table_name) || !reader.Read(column_count)) {
        return ApplyResult::Error("WAL recovery: malformed CREATE TABLE record");
      }
      auto definitions = TableColumnDefinitions{};
      definitions.reserve(column_count);
      for (auto column_index = uint16_t{0}; column_index < column_count; ++column_index) {
        auto definition = TableColumnDefinition{};
        auto raw_type = uint8_t{0};
        auto nullable = uint8_t{0};
        if (!reader.ReadString(definition.name) || !reader.Read(raw_type) || !reader.Read(nullable)) {
          return ApplyResult::Error("WAL recovery: malformed CREATE TABLE record");
        }
        definition.data_type = static_cast<DataType>(raw_type);
        definition.nullable = nullable != 0;
        definitions.push_back(std::move(definition));
      }
      auto target_chunk_size = uint32_t{0};
      if (!reader.Read(target_chunk_size) || !reader.AtEnd()) {
        return ApplyResult::Error("WAL recovery: malformed CREATE TABLE record");
      }
      // Idempotent: the table may already exist from the snapshot (created
      // before the checkpoint) or from a previous replay of this log.
      if (!hyrise.storage_manager.HasTable(table_name)) {
        hyrise.storage_manager.AddTable(
            table_name, std::make_shared<Table>(definitions, TableType::kData, target_chunk_size, UseMvcc::kYes));
        ++stats.tables_created;
      }
      return true;
    }
    case kRecordDropTable: {
      auto table_name = std::string{};
      if (!reader.ReadString(table_name) || !reader.AtEnd()) {
        return ApplyResult::Error("WAL recovery: malformed DROP TABLE record");
      }
      if (hyrise.storage_manager.HasTable(table_name)) {
        hyrise.storage_manager.DropTable(table_name);
        ++stats.tables_dropped;
      }
      return true;
    }
    default:
      return ApplyResult::Error("WAL recovery: unknown record kind " + std::to_string(record.kind) +
                                " (commit " + std::to_string(record.commit_id) + ")");
  }
}

}  // namespace

// --- WalManager --------------------------------------------------------------

WalManager::~WalManager() {
  Shutdown();
}

Result<bool> WalManager::Enable(WalConfig config) {
  using EnableResult = Result<bool>;
  if (enabled_.load(std::memory_order_acquire)) {
    return EnableResult::Error("Write-ahead log is already enabled");
  }
  if (config.directory.empty()) {
    return EnableResult::Error("Write-ahead log directory must not be empty");
  }
  auto error_code = std::error_code{};
  std::filesystem::create_directories(config.directory, error_code);
  if (error_code) {
    return EnableResult::Error("Cannot create WAL directory '" + config.directory + "': " + error_code.message());
  }

  // Register the segments recovery left behind so the next checkpoint can
  // truncate them. Their max commit ID comes from a pure scan; a torn tail
  // here is fine — Replay already decided what of it counts.
  const auto existing = ListSegments(config.directory);
  if (!existing.ok()) {
    return EnableResult::Error(existing.error());
  }
  auto closed = std::vector<SegmentInfo>{};
  auto max_index = uint64_t{0};
  for (const auto& [index, path] : existing.value()) {
    const auto scan = ScanSegmentFile(path, nullptr);
    if (!scan.ok()) {
      return EnableResult::Error(scan.error());
    }
    closed.push_back(SegmentInfo{index, path, scan.value().max_commit_id});
    max_index = std::max(max_index, index);
  }

  {
    const auto lock = std::lock_guard{fsync_mutex_};
    const auto wal_lock = std::lock_guard{wal_mutex_};
    config_ = std::move(config);
    closed_segments_ = std::move(closed);
    next_lsn_ = 1;
    appended_lsn_.store(0, std::memory_order_release);
    durable_lsn_ = 0;
    io_failed_.store(false, std::memory_order_release);
    io_error_.clear();
    stop_ = false;
    crashed_ = false;
    auto error = std::string{};
    // A new segment, never the old tail: recovery semantics stay simple and
    // a torn tail can never be appended over.
    if (!OpenSegmentLocked(max_index + 1, error)) {
      return EnableResult::Error(error);
    }
    durable_bytes_ = active_bytes_;
    enabled_.store(true, std::memory_order_release);
  }
  flusher_ = std::thread{[this] { FlusherLoop(); }};
  return true;
}

bool WalManager::OpenSegmentLocked(uint64_t index, std::string& error) {
  const auto path = SegmentPath(config_.directory, index);
  auto* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    error = "Cannot create WAL segment '" + path + "': " + std::strerror(errno);
    return false;
  }
  if (std::fwrite(&kWalMagic, sizeof(kWalMagic), 1, file) != 1 ||
      std::fwrite(&kWalVersion, sizeof(kWalVersion), 1, file) != 1 || std::fflush(file) != 0 ||
      ::fsync(::fileno(file)) != 0) {
    error = "Cannot write WAL segment header '" + path + "': " + std::strerror(errno);
    std::fclose(file);
    return false;
  }
  FsyncDirectory(config_.directory);
  file_ = file;
  active_path_ = path;
  active_index_ = index;
  active_bytes_ = kWalHeaderSize;
  active_max_commit_id_ = 0;
  return true;
}

bool WalManager::RotateLocked(std::string& error) {
  if (std::fflush(file_) != 0 || ::fsync(::fileno(file_)) != 0) {
    error = "Cannot flush WAL segment '" + active_path_ + "': " + std::strerror(errno);
    return false;
  }
  std::fclose(file_);
  file_ = nullptr;
  closed_segments_.push_back(SegmentInfo{active_index_, active_path_, active_max_commit_id_});
  // Everything appended so far now sits fsynced in a closed segment.
  durable_lsn_ = std::max(durable_lsn_, appended_lsn_.load(std::memory_order_acquire));
  segments_rotated_.fetch_add(1, std::memory_order_relaxed);
  if (!OpenSegmentLocked(active_index_ + 1, error)) {
    return false;
  }
  durable_bytes_ = active_bytes_;
  durable_cv_.notify_all();
  return true;
}

void WalManager::LatchIoErrorLocked(std::string message) {
  if (!io_failed_.load(std::memory_order_acquire)) {
    io_error_ = std::move(message);
    io_failed_.store(true, std::memory_order_release);
  }
  durable_cv_.notify_all();
  flusher_cv_.notify_all();
}

Result<uint64_t> WalManager::AppendRecord(CommitID commit_id, std::vector<uint8_t>& payload) {
  using AppendResult = Result<uint64_t>;
  const auto lock = std::lock_guard{wal_mutex_};
  if (crashed_ || file_ == nullptr) {
    return AppendResult::Error("Write-ahead log is not available (crashed or shut down)");
  }
  if (io_failed_.load(std::memory_order_acquire)) {
    return AppendResult::Error(io_error_);
  }
  // Armed in chaos tests: throws InjectedFault before any byte is written, so
  // the commit in flight can roll back and retry cleanly.
  FAILPOINT("wal/append");

  const auto lsn = next_lsn_;
  std::memcpy(payload.data(), &lsn, sizeof(lsn));
  auto checksum = Checksum{};
  checksum.Update(payload.data(), payload.size());
  const auto digest = checksum.Digest();
  const auto payload_size = static_cast<uint32_t>(payload.size());
  if (std::fwrite(&payload_size, sizeof(payload_size), 1, file_) != 1 ||
      std::fwrite(&digest, sizeof(digest), 1, file_) != 1 ||
      std::fwrite(payload.data(), payload.size(), 1, file_) != 1) {
    LatchIoErrorLocked("WAL append failed on '" + active_path_ + "': " + std::strerror(errno));
    return AppendResult::Error(io_error_);
  }
  ++next_lsn_;
  active_bytes_ += kRecordHeaderSize + payload.size();
  active_max_commit_id_ = std::max(active_max_commit_id_, commit_id);
  appended_lsn_.store(lsn, std::memory_order_release);
  records_appended_.fetch_add(1, std::memory_order_relaxed);
  bytes_appended_.fetch_add(kRecordHeaderSize + payload.size(), std::memory_order_relaxed);
  flusher_cv_.notify_one();
  return lsn;
}

Result<uint64_t> WalManager::AppendCommit(CommitID commit_id,
                                          const std::vector<std::shared_ptr<AbstractReadWriteOperator>>& operators) {
  if (!enabled()) {
    return uint64_t{0};
  }

  struct WriteSet {
    std::shared_ptr<const Table> table;
    std::vector<RowID> rows;
  };
  // std::map: deterministic group order in the record regardless of the
  // transaction's operator order.
  auto inserts = std::map<std::string, WriteSet>{};
  auto deletes = std::map<std::string, WriteSet>{};
  for (const auto& read_write_operator : operators) {
    if (const auto* insert = dynamic_cast<const Insert*>(read_write_operator.get())) {
      auto& set = inserts[insert->table_name()];
      set.table = insert->target_table();
      set.rows.insert(set.rows.end(), insert->inserted_row_ids().begin(), insert->inserted_row_ids().end());
    } else if (const auto* delete_op = dynamic_cast<const Delete*>(read_write_operator.get())) {
      // An empty name means the table was already dropped from the catalog —
      // it will not exist after recovery either, so there is nothing to redo.
      if (delete_op->table_name().empty()) {
        continue;
      }
      auto& set = deletes[delete_op->table_name()];
      set.table = delete_op->referenced_table();
      set.rows.insert(set.rows.end(), delete_op->locked_rows().begin(), delete_op->locked_rows().end());
    }
  }

  // Cancel rows this transaction both inserted and deleted: net effect zero,
  // and their values would ambiguously match the insert during replay.
  for (auto& [table_name, delete_set] : deletes) {
    const auto insert_it = inserts.find(table_name);
    if (insert_it == inserts.end()) {
      continue;
    }
    auto cancelled = std::unordered_set<RowID>{};
    const auto inserted = std::unordered_set<RowID>{insert_it->second.rows.begin(), insert_it->second.rows.end()};
    std::erase_if(delete_set.rows, [&](const RowID row_id) {
      if (inserted.count(row_id) == 0) {
        return false;
      }
      cancelled.insert(row_id);
      return true;
    });
    std::erase_if(insert_it->second.rows, [&](const RowID row_id) { return cancelled.count(row_id) > 0; });
  }

  auto BuildGroups = [](const std::map<std::string, WriteSet>& sets) {
    auto groups = std::vector<ReplayGroup>{};
    for (const auto& [table_name, set] : sets) {
      if (set.rows.empty()) {
        continue;
      }
      auto group = ReplayGroup{};
      group.table_name = table_name;
      const auto column_count = set.table->column_count();
      group.column_types.reserve(column_count);
      for (auto column_id = ColumnID{0}; column_id < column_count; ++column_id) {
        group.column_types.push_back(set.table->column_data_type(column_id));
      }
      group.rows.reserve(set.rows.size());
      for (const auto row_id : set.rows) {
        group.rows.push_back(ReadRowValues(*set.table, row_id));
      }
      groups.push_back(std::move(group));
    }
    return groups;
  };
  const auto insert_groups = BuildGroups(inserts);
  const auto delete_groups = BuildGroups(deletes);
  if (insert_groups.empty() && delete_groups.empty()) {
    return uint64_t{0};
  }

  auto builder = PayloadBuilder{};
  builder.Append(commit_id);
  builder.Append(kRecordCommit);
  AppendGroups(builder, insert_groups);
  AppendGroups(builder, delete_groups);
  return AppendRecord(commit_id, builder.bytes());
}

Result<uint64_t> WalManager::AppendCreateTable(CommitID commit_id, const std::string& table_name,
                                               const TableColumnDefinitions& definitions,
                                               ChunkOffset target_chunk_size) {
  auto builder = PayloadBuilder{};
  builder.Append(commit_id);
  builder.Append(kRecordCreateTable);
  builder.AppendString(table_name);
  builder.Append(static_cast<uint16_t>(definitions.size()));
  for (const auto& definition : definitions) {
    builder.AppendString(definition.name);
    builder.Append(static_cast<uint8_t>(definition.data_type));
    builder.Append(static_cast<uint8_t>(definition.nullable ? 1 : 0));
  }
  builder.Append(static_cast<uint32_t>(target_chunk_size));
  return AppendRecord(commit_id, builder.bytes());
}

Result<uint64_t> WalManager::AppendDropTable(CommitID commit_id, const std::string& table_name) {
  auto builder = PayloadBuilder{};
  builder.Append(commit_id);
  builder.Append(kRecordDropTable);
  builder.AppendString(table_name);
  return AppendRecord(commit_id, builder.bytes());
}

Result<int64_t> WalManager::WaitDurable(uint64_t lsn) {
  using WaitResult = Result<int64_t>;
  const auto start = std::chrono::steady_clock::now();
  sync_waits_.fetch_add(1, std::memory_order_relaxed);
  auto lock = std::unique_lock{fsync_mutex_};
  durable_cv_.wait(lock, [&] {
    return durable_lsn_ >= lsn || crashed_ || stop_ || io_failed_.load(std::memory_order_acquire) ||
           !enabled_.load(std::memory_order_acquire);
  });
  if (durable_lsn_ >= lsn) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() - start).count();
  }
  if (crashed_) {
    return WaitResult::Error("Write-ahead log crashed before the commit became durable");
  }
  if (io_failed_.load(std::memory_order_acquire)) {
    return WaitResult::Error("Write-ahead log failed before the commit became durable");
  }
  return WaitResult::Error("Write-ahead log shut down before the commit became durable");
}

void WalManager::FlusherLoop() {
  auto lock = std::unique_lock{fsync_mutex_};
  while (true) {
    flusher_cv_.wait(lock, [&] {
      return stop_ || crashed_ || io_failed_.load(std::memory_order_acquire) ||
             appended_lsn_.load(std::memory_order_acquire) > durable_lsn_;
    });
    if (crashed_) {
      return;
    }
    if (io_failed_.load(std::memory_order_acquire)) {
      durable_cv_.notify_all();
      return;
    }
    if (appended_lsn_.load(std::memory_order_acquire) <= durable_lsn_) {
      if (stop_) {
        return;
      }
      continue;
    }
    // Group-commit window: let more committers append before paying one
    // fsync for the whole batch (skipped when draining for shutdown).
    if (config_.group_commit_window_us > 0 && !stop_) {
      lock.unlock();
      std::this_thread::sleep_for(std::chrono::microseconds{config_.group_commit_window_us});
      lock.lock();
      if (crashed_) {
        return;
      }
    }

    auto target_lsn = uint64_t{0};
    auto target_bytes = uint64_t{0};
    auto fd = -1;
    {
      const auto wal_lock = std::lock_guard{wal_mutex_};
      if (file_ == nullptr) {
        continue;
      }
      if (std::fflush(file_) != 0) {
        LatchIoErrorLocked("WAL flush failed on '" + active_path_ + "': " + std::strerror(errno));
        return;
      }
      target_lsn = appended_lsn_.load(std::memory_order_acquire);
      target_bytes = active_bytes_;
      fd = ::fileno(file_);
    }

    // Armed in chaos tests: models a hung disk. Nothing becomes durable this
    // round; waiters keep blocking until a later round succeeds.
    auto fsync_fault = false;
    try {
      FAILPOINT("wal/fsync");
    } catch (const InjectedFault&) {
      fsync_fault = true;
    }
    if (fsync_fault) {
      lock.unlock();
      std::this_thread::sleep_for(std::chrono::milliseconds{1});
      lock.lock();
      continue;
    }
    if (::fsync(fd) != 0) {
      const auto wal_lock = std::lock_guard{wal_mutex_};
      LatchIoErrorLocked("WAL fsync failed on '" + active_path_ + "': " + std::strerror(errno));
      return;
    }
    fsync_count_.fetch_add(1, std::memory_order_relaxed);
    durable_lsn_ = std::max(durable_lsn_, target_lsn);
    durable_bytes_ = std::max(durable_bytes_, target_bytes);
    durable_cv_.notify_all();

    if (target_bytes >= config_.segment_max_bytes) {
      const auto wal_lock = std::lock_guard{wal_mutex_};
      if (file_ != nullptr && active_bytes_ >= config_.segment_max_bytes) {
        auto error = std::string{};
        if (!RotateLocked(error)) {
          LatchIoErrorLocked(std::move(error));
          return;
        }
      }
    }
  }
}

void WalManager::Shutdown() {
  {
    const auto lock = std::lock_guard{fsync_mutex_};
    if (!flusher_.joinable() && !enabled_.load(std::memory_order_acquire)) {
      return;
    }
    stop_ = true;
  }
  flusher_cv_.notify_all();
  if (flusher_.joinable()) {
    flusher_.join();
  }
  {
    const auto lock = std::lock_guard{fsync_mutex_};
    const auto wal_lock = std::lock_guard{wal_mutex_};
    if (file_ != nullptr) {
      if (!crashed_ && !io_failed_.load(std::memory_order_acquire)) {
        // Final drain so a clean shutdown loses nothing even in async mode.
        if (std::fflush(file_) == 0 && ::fsync(::fileno(file_)) == 0) {
          durable_lsn_ = std::max(durable_lsn_, appended_lsn_.load(std::memory_order_acquire));
          durable_bytes_ = std::max(durable_bytes_, active_bytes_);
        }
      }
      std::fclose(file_);
      file_ = nullptr;
    }
    enabled_.store(false, std::memory_order_release);
  }
  durable_cv_.notify_all();
}

void WalManager::SimulateCrash() {
  auto durable = uint64_t{0};
  auto path = std::string{};
  {
    const auto lock = std::lock_guard{fsync_mutex_};
    const auto wal_lock = std::lock_guard{wal_mutex_};
    if (!enabled_.load(std::memory_order_acquire) || crashed_) {
      return;
    }
    crashed_ = true;
    durable = durable_bytes_;
    path = active_path_;
  }
  flusher_cv_.notify_all();
  durable_cv_.notify_all();
  if (flusher_.joinable()) {
    flusher_.join();
  }
  {
    const auto lock = std::lock_guard{fsync_mutex_};
    const auto wal_lock = std::lock_guard{wal_mutex_};
    if (file_ != nullptr) {
      // fclose() pushes the stdio buffer to the kernel; truncating back to
      // the fsync-covered prefix then nets out to exactly what a power loss
      // is guaranteed to preserve. Record boundaries align with
      // durable_bytes_ because appends are atomic under wal_mutex_.
      std::fclose(file_);
      file_ = nullptr;
      ::truncate(path.c_str(), static_cast<off_t>(durable));
    }
    // enabled_ stays true: post-crash appends and waits must fail loudly via
    // crashed_, not silently succeed as "logging disabled".
  }
  durable_cv_.notify_all();
}

void WalManager::TruncateThrough(CommitID commit_id) {
  if (!enabled()) {
    return;
  }
  const auto lock = std::lock_guard{fsync_mutex_};
  const auto wal_lock = std::lock_guard{wal_mutex_};
  if (crashed_ || file_ == nullptr || io_failed_.load(std::memory_order_acquire)) {
    return;
  }
  // Rotate so records newer than the snapshot move out of reach of the
  // deletion below; an empty active segment is left in place.
  if (active_max_commit_id_ > 0) {
    auto error = std::string{};
    if (!RotateLocked(error)) {
      LatchIoErrorLocked(std::move(error));
      return;
    }
  }
  auto kept = std::vector<SegmentInfo>{};
  kept.reserve(closed_segments_.size());
  for (const auto& segment : closed_segments_) {
    if (segment.max_commit_id <= commit_id) {
      auto error_code = std::error_code{};
      std::filesystem::remove(segment.path, error_code);
      segments_truncated_.fetch_add(1, std::memory_order_relaxed);
    } else {
      kept.push_back(segment);
    }
  }
  closed_segments_ = std::move(kept);
}

Result<WalRecoveryStats> WalManager::Replay(const std::string& directory, CommitID after_cid) {
  using ReplayResult = Result<WalRecoveryStats>;
  auto stats = WalRecoveryStats{};

  auto error_code = std::error_code{};
  if (!std::filesystem::exists(directory, error_code)) {
    return stats;  // Cold start: no log yet.
  }
  const auto listed = ListSegments(directory);
  if (!listed.ok()) {
    return ReplayResult::Error(listed.error());
  }
  const auto& segments = listed.value();
  // Leading gaps are checkpoint truncation; a gap in the middle means a
  // segment with unreplayed commits is missing — refusing beats silently
  // losing acknowledged transactions.
  for (auto segment_index = size_t{1}; segment_index < segments.size(); ++segment_index) {
    if (segments[segment_index].first != segments[segment_index - 1].first + 1) {
      return ReplayResult::Error("WAL recovery: segment wal_" +
                                 std::to_string(segments[segment_index - 1].first + 1) +
                                 ".log is missing from '" + directory + "'");
    }
  }

  auto last_cid = after_cid;
  for (auto segment_index = size_t{0}; segment_index < segments.size(); ++segment_index) {
    const auto& [index, path] = segments[segment_index];
    const auto is_last = segment_index + 1 == segments.size();
    const auto scan = ScanSegmentFile(path, [&](const RecordView& record) -> Result<bool> {
      // Armed in chaos tests: a crash mid-recovery. The process restarts
      // recovery from the snapshot — replay is not resumable in place.
      FAILPOINT("wal/replay");
      if (record.commit_id <= after_cid) {
        ++stats.records_skipped;
        return true;
      }
      if (record.commit_id <= last_cid) {
        return Result<bool>::Error("WAL recovery: commit IDs out of order in '" + path + "' (commit " +
                                   std::to_string(record.commit_id) + " after " + std::to_string(last_cid) + ")");
      }
      const auto applied = ApplyRecord(record, stats);
      if (!applied.ok()) {
        return applied;
      }
      last_cid = record.commit_id;
      stats.max_commit_id = record.commit_id;
      ++stats.records_applied;
      return true;
    });
    if (!scan.ok()) {
      return ReplayResult::Error(scan.error());
    }
    ++stats.segments_scanned;
    const auto& scanned = scan.value();
    if (!scanned.header_ok || scanned.torn_tail) {
      if (!is_last) {
        return ReplayResult::Error("WAL recovery: segment '" + path +
                                   "' is corrupt before the end of the log — only the final segment may end in a "
                                   "torn record");
      }
      stats.stopped_at_torn_record = true;
      stats.discarded_bytes = scanned.total_bytes - scanned.valid_bytes;
    }
  }

  // Fast-forward the commit-ID clock so new transactions see the replayed
  // state and new commits continue the log's total order.
  Hyrise::Get().transaction_manager.SetLastCommitIdForRecovery(std::max(after_cid, stats.max_commit_id));
  return stats;
}

WalMetrics WalManager::metrics() const {
  auto metrics = WalMetrics{};
  metrics.records_appended = records_appended_.load(std::memory_order_relaxed);
  metrics.bytes_appended = bytes_appended_.load(std::memory_order_relaxed);
  metrics.fsync_count = fsync_count_.load(std::memory_order_relaxed);
  metrics.sync_waits = sync_waits_.load(std::memory_order_relaxed);
  metrics.segments_rotated = segments_rotated_.load(std::memory_order_relaxed);
  metrics.segments_truncated = segments_truncated_.load(std::memory_order_relaxed);
  return metrics;
}

}  // namespace hyrise::persistence
