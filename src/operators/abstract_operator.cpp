#include "operators/abstract_operator.hpp"

#include "cache/plan_fingerprint.hpp"
#include "cache/result_cache.hpp"
#include "concurrency/transaction_context.hpp"
#include "storage/table.hpp"
#include "utils/assert.hpp"
#include "utils/timer.hpp"

namespace hyrise {

namespace {

/// Operators whose output the cache stores. GetTable is excluded (its output
/// aliases the whole stored table: zero rebuild benefit, huge accounted
/// size), Validate because its output is snapshot-specific by construction —
/// subtrees *above* a Validate are the profitable unit.
bool IsAdmissionCandidate(OperatorType type) {
  return type != OperatorType::kGetTable && type != OperatorType::kValidate;
}

}  // namespace

void AbstractOperator::Execute() {
  Assert(!performance_data.executed, "Operator executed twice: " + Description());
  cancellation_token_.ThrowIfCancelled();

  // Probe before the inputs run: a hit skips the entire subtree.
  if (result_cache_ && TryServeFromCache()) {
    return;
  }

  if (left_input_ && !left_input_->executed()) {
    left_input_->Execute();
  }
  if (right_input_ && !right_input_->executed()) {
    right_input_->Execute();
  }
  cancellation_token_.ThrowIfCancelled();

  auto timer = Timer{};
  output_ = OnExecute(transaction_context_.lock());
  performance_data.walltime_ns = timer.Elapsed();
  performance_data.output_row_count = output_ ? output_->row_count() : 0;
  performance_data.executed = true;

  if (result_cache_ && output_ && IsAdmissionCandidate(type_)) {
    const auto& fingerprint = GetPlanFingerprint(*this);
    if (fingerprint.cacheable) {
      result_cache_->Admit(fingerprint, output_, SubtreeWalltime(), transaction_context_.lock());
    }
  }
}

bool AbstractOperator::TryServeFromCache() {
  if (!IsAdmissionCandidate(type_)) {
    return false;
  }
  const auto& fingerprint = GetPlanFingerprint(*this);
  if (!fingerprint.cacheable) {
    return false;
  }
  performance_data.result_cache_probed = true;
  const auto cached = result_cache_->Probe(fingerprint, transaction_context_.lock(),
                                           &performance_data.result_cache_saved_ns,
                                           &performance_data.result_cache_saved_bytes);
  if (!cached) {
    return false;
  }
  output_ = cached;
  performance_data.output_row_count = output_->row_count();
  performance_data.from_result_cache = true;
  performance_data.executed = true;
  return true;
}

void AbstractOperator::ProbeResultCacheRecursively() {
  if (!result_cache_ || performance_data.executed) {
    return;
  }
  if (TryServeFromCache()) {
    return;  // The whole subtree is satisfied; do not probe below it.
  }
  if (left_input_) {
    left_input_->ProbeResultCacheRecursively();
  }
  if (right_input_) {
    right_input_->ProbeResultCacheRecursively();
  }
}

int64_t AbstractOperator::SubtreeWalltime() const {
  auto total = performance_data.walltime_ns + performance_data.result_cache_saved_ns;
  if (left_input_) {
    total += left_input_->SubtreeWalltime();
  }
  if (right_input_) {
    total += right_input_->SubtreeWalltime();
  }
  return total;
}

void AbstractOperator::SetResultCacheRecursively(const std::shared_ptr<ResultCache>& cache) {
  result_cache_ = cache;
  if (left_input_) {
    left_input_->SetResultCacheRecursively(cache);
  }
  if (right_input_) {
    right_input_->SetResultCacheRecursively(cache);
  }
}

std::shared_ptr<const Table> AbstractOperator::get_output() const {
  Assert(performance_data.executed, "get_output() before Execute()");
  return output_;
}

void AbstractOperator::SetTransactionContextRecursively(const std::shared_ptr<TransactionContext>& context) {
  transaction_context_ = context;
  OnSetTransactionContext(context);
  if (left_input_) {
    left_input_->SetTransactionContextRecursively(context);
  }
  if (right_input_) {
    right_input_->SetTransactionContextRecursively(context);
  }
}

void AbstractOperator::SetCancellationTokenRecursively(const CancellationToken& token) {
  cancellation_token_ = token;
  if (left_input_) {
    left_input_->SetCancellationTokenRecursively(token);
  }
  if (right_input_) {
    right_input_->SetCancellationTokenRecursively(token);
  }
}

void AbstractOperator::SetParameters(const std::unordered_map<ParameterID, AllTypeVariant>& parameters) {
  if (parameters.empty()) {
    return;
  }
  OnSetParameters(parameters);
  if (left_input_) {
    left_input_->SetParameters(parameters);
  }
  if (right_input_) {
    right_input_->SetParameters(parameters);
  }
}

std::shared_ptr<AbstractOperator> AbstractOperator::DeepCopy() const {
  auto map = DeepCopyMap{};
  return DeepCopy(map);
}

std::shared_ptr<AbstractOperator> AbstractOperator::DeepCopy(DeepCopyMap& map) const {
  const auto existing = map.find(this);
  if (existing != map.end()) {
    return existing->second;
  }
  auto left_copy = left_input_ ? left_input_->DeepCopy(map) : nullptr;
  auto right_copy = right_input_ ? right_input_->DeepCopy(map) : nullptr;
  auto copy = OnDeepCopy(std::move(left_copy), std::move(right_copy), map);
  map.emplace(this, copy);
  return copy;
}

}  // namespace hyrise
