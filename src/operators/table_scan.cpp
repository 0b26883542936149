#include "operators/table_scan.hpp"

#include <stdexcept>

#include "expression/expression_evaluator.hpp"
#include "expression/expression_utils.hpp"
#include "expression/like_matcher.hpp"
#include "operators/pos_list_utils.hpp"
#include "operators/scan_kernels.hpp"
#include "scheduler/job_helpers.hpp"
#include "utils/failure_injection.hpp"
#include "storage/segment_iterables/segment_iterate.hpp"
#include "storage/table.hpp"
#include "utils/assert.hpp"

namespace hyrise {

namespace {

/// Statically resolves a comparison condition to a comparator functor, so the
/// hot loop compiles without a switch (paper §2.3: "not only the iterators,
/// but also the functors are resolved at compile time").
template <typename Functor>
void WithComparator(PredicateCondition condition, const Functor& functor) {
  switch (condition) {
    case PredicateCondition::kEquals:
      functor([](const auto& lhs, const auto& rhs) {
        return lhs == rhs;
      });
      return;
    case PredicateCondition::kNotEquals:
      functor([](const auto& lhs, const auto& rhs) {
        return lhs != rhs;
      });
      return;
    case PredicateCondition::kLessThan:
      functor([](const auto& lhs, const auto& rhs) {
        return lhs < rhs;
      });
      return;
    case PredicateCondition::kLessThanEquals:
      functor([](const auto& lhs, const auto& rhs) {
        return lhs <= rhs;
      });
      return;
    case PredicateCondition::kGreaterThan:
      functor([](const auto& lhs, const auto& rhs) {
        return lhs > rhs;
      });
      return;
    case PredicateCondition::kGreaterThanEquals:
      functor([](const auto& lhs, const auto& rhs) {
        return lhs >= rhs;
      });
      return;
    default:
      Fail("No comparator for this condition");
  }
}

/// Iterates a segment of any numeric type, presenting values as C (the
/// promoted comparison type). Same-type iteration has no conversion cost.
template <typename C, typename Functor>
void IterateAs(const AbstractSegment& segment, const Functor& functor) {
  ResolveDataType(segment.data_type(), [&](auto type_tag) {
    using T = decltype(type_tag);
    if constexpr (std::is_same_v<T, C>) {
      SegmentIterate<T>(segment, functor);
    } else if constexpr (std::is_arithmetic_v<T> && std::is_arithmetic_v<C>) {
      SegmentIterate<T>(segment, [&](const auto& position) {
        functor(SegmentPosition<C>{static_cast<C>(position.value()), position.is_null(), position.chunk_offset()});
      });
    } else {
      Fail("Cannot compare string and numeric columns");
    }
  });
}

/// The recognized fast-path predicate shapes.
enum class ScanKind {
  kColumnVsValue,  // Includes BETWEEN two values.
  kColumnIsNull,
  kColumnLike,
  kColumnVsColumn,
  kExpression,  // Fallback: expression evaluator.
};

struct ScanSpec {
  ScanKind kind{ScanKind::kExpression};
  PredicateCondition condition{PredicateCondition::kEquals};
  ColumnID column_id{kInvalidColumnId};
  ColumnID column2_id{kInvalidColumnId};
  AllTypeVariant value;
  std::optional<AllTypeVariant> value2;
};

ScanSpec ClassifyPredicate(const AbstractExpression& predicate) {
  auto spec = ScanSpec{};
  if (predicate.type != ExpressionType::kPredicate) {
    return spec;
  }
  const auto& typed = static_cast<const PredicateExpression&>(predicate);
  const auto& arguments = typed.arguments;
  const auto is_column = [](const ExpressionPtr& expression) {
    return expression->type == ExpressionType::kPqpColumn;
  };
  const auto is_value = [](const ExpressionPtr& expression) {
    return expression->type == ExpressionType::kValue;
  };
  const auto column_id_of = [](const ExpressionPtr& expression) {
    return static_cast<const PqpColumnExpression&>(*expression).column_id;
  };
  const auto value_of = [](const ExpressionPtr& expression) {
    return static_cast<const ValueExpression&>(*expression).value;
  };

  switch (typed.condition) {
    case PredicateCondition::kEquals:
    case PredicateCondition::kNotEquals:
    case PredicateCondition::kLessThan:
    case PredicateCondition::kLessThanEquals:
    case PredicateCondition::kGreaterThan:
    case PredicateCondition::kGreaterThanEquals: {
      if (is_column(arguments[0]) && is_value(arguments[1])) {
        spec.kind = ScanKind::kColumnVsValue;
        spec.condition = typed.condition;
        spec.column_id = column_id_of(arguments[0]);
        spec.value = value_of(arguments[1]);
      } else if (is_value(arguments[0]) && is_column(arguments[1])) {
        spec.kind = ScanKind::kColumnVsValue;
        spec.condition = FlipPredicateCondition(typed.condition);
        spec.column_id = column_id_of(arguments[1]);
        spec.value = value_of(arguments[0]);
      } else if (is_column(arguments[0]) && is_column(arguments[1])) {
        spec.kind = ScanKind::kColumnVsColumn;
        spec.condition = typed.condition;
        spec.column_id = column_id_of(arguments[0]);
        spec.column2_id = column_id_of(arguments[1]);
      }
      return spec;
    }
    case PredicateCondition::kBetweenInclusive:
      if (is_column(arguments[0]) && is_value(arguments[1]) && is_value(arguments[2])) {
        spec.kind = ScanKind::kColumnVsValue;
        spec.condition = typed.condition;
        spec.column_id = column_id_of(arguments[0]);
        spec.value = value_of(arguments[1]);
        spec.value2 = value_of(arguments[2]);
      }
      return spec;
    case PredicateCondition::kIsNull:
    case PredicateCondition::kIsNotNull:
      if (is_column(arguments[0])) {
        spec.kind = ScanKind::kColumnIsNull;
        spec.condition = typed.condition;
        spec.column_id = column_id_of(arguments[0]);
      }
      return spec;
    case PredicateCondition::kLike:
    case PredicateCondition::kNotLike:
      if (is_column(arguments[0]) && is_value(arguments[1]) && !VariantIsNull(value_of(arguments[1]))) {
        spec.kind = ScanKind::kColumnLike;
        spec.condition = typed.condition;
        spec.column_id = column_id_of(arguments[0]);
        spec.value = value_of(arguments[1]);
      }
      return spec;
    default:
      return spec;
  }
}

/// Dictionary fast path: compare compressed value IDs against the bounds of
/// the search value — no decoding (paper §2.3). Codes are consumed
/// block-wise: 128 at a time through the SIMD unpack kernels into a
/// branch-free range compare (the `code - lower < upper - lower` form folds
/// both bounds into one unsigned compare; the null id is `dictionary.size()`
/// and therefore never inside [lower, upper)).
template <typename T>
bool ScanDictionarySegment(const AbstractSegment& segment, PredicateCondition condition, const T& value,
                           const std::optional<T>& value2, std::vector<ChunkOffset>& matches) {
  const auto* dictionary_segment = dynamic_cast<const DictionarySegment<T>*>(&segment);
  if (!dictionary_segment) {
    return false;
  }
  const auto null_id = dictionary_segment->null_value_id();
  const auto total = static_cast<uint32_t>(dictionary_segment->dictionary().size());

  // Express the predicate as [lower_id, upper_id) over value IDs.
  auto lower = uint32_t{0};
  auto upper = total;
  const auto resolve = [&](ValueID bound) {
    return bound == kInvalidValueId ? total : static_cast<uint32_t>(bound);
  };
  switch (condition) {
    case PredicateCondition::kEquals: {
      lower = resolve(dictionary_segment->LowerBound(value));
      upper = resolve(dictionary_segment->UpperBound(value));
      break;
    }
    case PredicateCondition::kNotEquals: {
      // The complement of [equals_lower, equals_upper), minus the null code.
      const auto equals_lower = resolve(dictionary_segment->LowerBound(value));
      const auto equals_upper = resolve(dictionary_segment->UpperBound(value));
      const auto width = equals_upper - equals_lower;
      ResolveCompressedVector(dictionary_segment->attribute_vector(), [&](const auto& vector) {
        ScanCodes(vector, [=](uint32_t code) {
          return static_cast<bool>(static_cast<uint64_t>(code - equals_lower >= width) &
                                   static_cast<uint64_t>(code != null_id));
        }, matches);
      });
      return true;
    }
    case PredicateCondition::kLessThan:
      upper = resolve(dictionary_segment->LowerBound(value));
      break;
    case PredicateCondition::kLessThanEquals:
      upper = resolve(dictionary_segment->UpperBound(value));
      break;
    case PredicateCondition::kGreaterThan:
      lower = resolve(dictionary_segment->UpperBound(value));
      break;
    case PredicateCondition::kGreaterThanEquals:
      lower = resolve(dictionary_segment->LowerBound(value));
      break;
    case PredicateCondition::kBetweenInclusive:
      // The range kernel: two dictionary binary searches, then one masked
      // range compare over the codes — a fused BETWEEN costs exactly as much
      // as a single one-sided comparison.
      lower = resolve(dictionary_segment->LowerBound(value));
      upper = resolve(dictionary_segment->UpperBound(*value2));
      break;
    default:
      return false;
  }

  if (lower >= upper) {
    return true;  // Provably empty.
  }
  const auto width = upper - lower;
  ResolveCompressedVector(dictionary_segment->attribute_vector(), [&](const auto& vector) {
    ScanCodes(vector, [=](uint32_t code) {
      return code - lower < width;
    }, matches);
  });
  return true;
}

/// LIKE fast path on dictionary segments: match every dictionary entry once,
/// then scan codes block-wise against the match bitmap.
bool ScanDictionaryLike(const AbstractSegment& segment, const LikeMatcher& matcher, bool invert,
                        std::vector<ChunkOffset>& matches) {
  const auto* dictionary_segment = dynamic_cast<const DictionarySegment<std::string>*>(&segment);
  if (!dictionary_segment) {
    return false;
  }
  const auto& dictionary = dictionary_segment->dictionary();
  auto code_matches = std::vector<uint8_t>(dictionary.size() + 1, 0);  // +1: null id never matches.
  for (auto value_id = size_t{0}; value_id < dictionary.size(); ++value_id) {
    code_matches[value_id] = matcher.Matches(dictionary[value_id]) != invert ? 1 : 0;
  }
  ResolveCompressedVector(dictionary_segment->attribute_vector(), [&](const auto& vector) {
    ScanCodes(vector, [lookup = code_matches.data()](uint32_t code) {
      return lookup[code] != 0;
    }, matches);
  });
  return true;
}

/// Resolves (condition, value, value2) to a branch-free single-value
/// predicate and passes it to `functor` — the value-domain counterpart of
/// WithComparator, shared by the unencoded, frame-of-reference, and
/// run-length kernels.
template <typename T, typename Functor>
void WithValuePredicate(PredicateCondition condition, const T& value, const std::optional<T>& value2,
                        const Functor& functor) {
  if (condition == PredicateCondition::kBetweenInclusive) {
    functor([lower = value, upper = *value2](const T& candidate) {
      return static_cast<bool>(static_cast<uint8_t>(candidate >= lower) & static_cast<uint8_t>(candidate <= upper));
    });
    return;
  }
  WithComparator(condition, [&](const auto comparator) {
    functor([comparator, value](const T& candidate) {
      return comparator(candidate, value);
    });
  });
}

/// IS [NOT] NULL: null flags are scanned directly (bytes, run flags, or the
/// null value id) without touching the values at all; reference segments
/// take the generic iterator scan.
template <typename T>
void ScanNulls(const AbstractSegment& segment, bool want_null, std::vector<ChunkOffset>& matches) {
  const auto emit_all = [&](size_t size) {
    for (auto offset = size_t{0}; offset < size; ++offset) {
      matches.push_back(static_cast<ChunkOffset>(offset));
    }
  };
  if (const auto* value_segment = dynamic_cast<const ValueSegment<T>*>(&segment)) {
    const auto size = static_cast<size_t>(value_segment->size());
    if (!value_segment->is_nullable()) {
      if (!want_null) {
        emit_all(size);
      }
      return;
    }
    ScanDenseValues(value_segment->null_values().data(), nullptr, size, [=](uint8_t is_null) {
      return (is_null != 0) == want_null;
    }, matches);
    return;
  }
  if (const auto* dictionary_segment = dynamic_cast<const DictionarySegment<T>*>(&segment)) {
    const auto null_id = dictionary_segment->null_value_id();
    ResolveCompressedVector(dictionary_segment->attribute_vector(), [&](const auto& vector) {
      ScanCodes(vector, [=](uint32_t code) {
        return (code == null_id) == want_null;
      }, matches);
    });
    return;
  }
  if (const auto* run_length_segment = dynamic_cast<const RunLengthSegment<T>*>(&segment)) {
    const auto& run_is_null = run_length_segment->run_is_null();
    const auto& end_positions = run_length_segment->end_positions();
    auto start = ChunkOffset{0};
    for (auto run = size_t{0}; run < run_is_null.size(); ++run) {
      const auto end = end_positions[run];
      if (run_is_null[run] == want_null) {
        for (auto offset = start; offset <= end; ++offset) {
          matches.push_back(offset);
        }
      }
      start = end + 1;
    }
    return;
  }
  if constexpr (std::is_same_v<T, int32_t> || std::is_same_v<T, int64_t>) {
    if (const auto* for_segment = dynamic_cast<const FrameOfReferenceSegment<T>*>(&segment)) {
      const auto size = static_cast<size_t>(for_segment->size());
      const auto& nulls = for_segment->null_values();
      if (nulls.empty()) {
        if (!want_null) {
          emit_all(size);
        }
        return;
      }
      constexpr auto kBlock = BaseCompressedVector::kDecodeBlockSize;
      for (auto base = size_t{0}; base < size; base += kBlock) {
        const auto count = std::min(kBlock, size - base);
        auto mask = BlockMask{};
        for (auto index = size_t{0}; index < count; ++index) {
          mask[index >> 6] |= static_cast<uint64_t>(nulls[base + index] == want_null) << (index & 63);
        }
        EmitBlockMask(mask, base, matches);
      }
      return;
    }
  }
  SegmentIterate<T>(segment, [&](const auto& position) {
    if (position.is_null() == want_null) {
      matches.push_back(position.chunk_offset());
    }
  });
}

[[noreturn]] void ThrowTypeMismatch(DataType column_type) {
  throw std::invalid_argument{std::string{"Cannot compare a column of type "} + DataTypeToString(column_type) +
                              " with a " + (column_type == DataType::kString ? "number" : "string")};
}

/// Uncorrelated subqueries share one PQP that the ExpressionEvaluator
/// executes lazily; running it once up front keeps the per-chunk scan tasks
/// free of shared mutable state (correlated subqueries deep-copy their PQP
/// per evaluation and need no such treatment).
void PreExecuteUncorrelatedSubqueries(const ExpressionPtr& expression,
                                      const std::shared_ptr<TransactionContext>& context) {
  if (expression->type == ExpressionType::kPqpSubquery) {
    const auto& subquery = static_cast<const PqpSubqueryExpression&>(*expression);
    if (!subquery.IsCorrelated() && !subquery.pqp->executed()) {
      if (context) {
        subquery.pqp->SetTransactionContextRecursively(context);
      }
      subquery.pqp->Execute();
    }
  }
  for (const auto& argument : expression->arguments) {
    PreExecuteUncorrelatedSubqueries(argument, context);
  }
}

}  // namespace

template <typename T>
void ScanSegmentForLiteral(const AbstractSegment& segment, const TypedPredicate<T>& predicate,
                           std::vector<ChunkOffset>& matches) {
  switch (predicate.outcome) {
    case LiteralOutcome::kTypeMismatch:
      ThrowTypeMismatch(DataTypeOf<T>());
    case LiteralOutcome::kNoRow:
      return;
    case LiteralOutcome::kEveryNonNullRow:
      ScanNulls<T>(segment, false, matches);
      return;
    case LiteralOutcome::kTyped:
      break;
  }
  // Block-wise kernels over the stored codes, runs, values, or offsets
  // (DESIGN.md §5d).
  const auto condition = predicate.condition;
  const auto& value = predicate.value;
  const auto& value2 = predicate.value2;
  if (ScanDictionarySegment<T>(segment, condition, value, value2, matches)) {
    return;
  }
  if (const auto* run_length_segment = dynamic_cast<const RunLengthSegment<T>*>(&segment)) {
    WithValuePredicate<T>(condition, value, value2, [&](const auto& matches_value) {
      ScanRunLengthSegment(*run_length_segment, matches_value, matches);
    });
    return;
  }
  if constexpr (std::is_arithmetic_v<T>) {
    if (const auto* value_segment = dynamic_cast<const ValueSegment<T>*>(&segment)) {
      const auto size = static_cast<size_t>(value_segment->size());  // Published row count of mutable chunks.
      const auto* nulls = value_segment->is_nullable() ? value_segment->null_values().data() : nullptr;
      WithValuePredicate<T>(condition, value, value2, [&](const auto& matches_value) {
        ScanDenseValues(value_segment->values().data(), nulls, size, matches_value, matches);
      });
      return;
    }
  }
  if constexpr (std::is_same_v<T, int32_t> || std::is_same_v<T, int64_t>) {
    if (const auto* for_segment = dynamic_cast<const FrameOfReferenceSegment<T>*>(&segment)) {
      ResolveCompressedVector(for_segment->offset_values(), [&](const auto& vector) {
        WithValuePredicate<T>(condition, value, value2, [&](const auto& matches_value) {
          ScanFrameOfReferenceSegment(*for_segment, vector, matches_value, matches);
        });
      });
      return;
    }
  }
  // Reference segments: the generic iterator scan.
  WithValuePredicate<T>(condition, value, value2, [&](const auto& matches_value) {
    SegmentIterate<T>(segment, [&](const auto& position) {
      if (!position.is_null() && matches_value(position.value())) {
        matches.push_back(position.chunk_offset());
      }
    });
  });
}

template void ScanSegmentForLiteral(const AbstractSegment&, const TypedPredicate<int32_t>&, std::vector<ChunkOffset>&);
template void ScanSegmentForLiteral(const AbstractSegment&, const TypedPredicate<int64_t>&, std::vector<ChunkOffset>&);
template void ScanSegmentForLiteral(const AbstractSegment&, const TypedPredicate<float>&, std::vector<ChunkOffset>&);
template void ScanSegmentForLiteral(const AbstractSegment&, const TypedPredicate<double>&, std::vector<ChunkOffset>&);
template void ScanSegmentForLiteral(const AbstractSegment&, const TypedPredicate<std::string>&,
                                    std::vector<ChunkOffset>&);

TableScan::TableScan(std::shared_ptr<AbstractOperator> input, ExpressionPtr predicate)
    : AbstractOperator(OperatorType::kTableScan, std::move(input)), predicate_(std::move(predicate)) {}

std::string TableScan::Description() const {
  return "TableScan " + predicate_->Description();
}

std::vector<ChunkOffset> TableScan::ScanChunk(const std::shared_ptr<const Table>& table, ChunkID chunk_id,
                                              const std::shared_ptr<TransactionContext>& context) const {
  // Chunk boundaries are the cooperative cancellation checkpoints: a
  // timed-out statement aborts before the next chunk, never mid-row.
  cancellation_token_.ThrowIfCancelled();
  FAILPOINT("scan/chunk");
  auto matches = std::vector<ChunkOffset>{};
  const auto chunk = table->GetChunk(chunk_id);
  const auto spec = ClassifyPredicate(*predicate_);

  switch (spec.kind) {
    case ScanKind::kColumnVsValue: {
      const auto segment = chunk->GetSegment(spec.column_id);
      ResolveDataType(segment->data_type(), [&](auto type_tag) {
        using T = decltype(type_tag);
        ScanSegmentForLiteral<T>(*segment, TypePredicateLiteral<T>(spec.condition, spec.value, spec.value2), matches);
      });
      return matches;
    }
    case ScanKind::kColumnIsNull: {
      const auto segment = chunk->GetSegment(spec.column_id);
      ResolveDataType(segment->data_type(), [&](auto type_tag) {
        ScanNulls<decltype(type_tag)>(*segment, spec.condition == PredicateCondition::kIsNull, matches);
      });
      return matches;
    }
    case ScanKind::kColumnLike: {
      const auto segment = chunk->GetSegment(spec.column_id);
      if (segment->data_type() != DataType::kString || !std::holds_alternative<std::string>(spec.value)) {
        ThrowTypeMismatch(segment->data_type());
      }
      const auto matcher = LikeMatcher{std::get<std::string>(spec.value)};
      const auto invert = spec.condition == PredicateCondition::kNotLike;
      if (ScanDictionaryLike(*segment, matcher, invert, matches)) {
        return matches;
      }
      SegmentIterate<std::string>(*segment, [&](const auto& position) {
        if (!position.is_null() && matcher.Matches(position.value()) != invert) {
          matches.push_back(position.chunk_offset());
        }
      });
      return matches;
    }
    case ScanKind::kColumnVsColumn: {
      const auto left_segment = chunk->GetSegment(spec.column_id);
      const auto right_segment = chunk->GetSegment(spec.column2_id);
      const auto compare_type = PromoteDataTypes(left_segment->data_type(), right_segment->data_type());
      ResolveDataType(compare_type, [&](auto type_tag) {
        using C = decltype(type_tag);
        // Materialize the right side once, then stream the left.
        const auto size = right_segment->size();
        auto right_values = std::vector<C>(size);
        auto right_nulls = std::vector<bool>(size, false);
        IterateAs<C>(*right_segment, [&](const auto& position) {
          if (position.is_null()) {
            right_nulls[position.chunk_offset()] = true;
          } else {
            right_values[position.chunk_offset()] = position.value();
          }
        });
        WithComparator(spec.condition, [&](const auto comparator) {
          IterateAs<C>(*left_segment, [&](const auto& position) {
            const auto offset = position.chunk_offset();
            if (!position.is_null() && !right_nulls[offset] && comparator(position.value(), right_values[offset])) {
              matches.push_back(offset);
            }
          });
        });
      });
      return matches;
    }
    case ScanKind::kExpression: {
      auto evaluator = ExpressionEvaluator{table, chunk_id, context};
      return evaluator.EvaluateToPositions(predicate_);
    }
  }
  Fail("Unhandled ScanKind");
}

std::shared_ptr<const Table> TableScan::OnExecute(const std::shared_ptr<TransactionContext>& context) {
  const auto input = left_input_->get_output();
  const auto output = MakeReferenceTable(input);
  const auto chunk_count = input->chunk_count();
  PreExecuteUncorrelatedSubqueries(predicate_, context);

  // One scan task per chunk (paper §2.9); results are gathered and appended
  // in chunk order, so the output is identical to the serial scan no matter
  // how the scheduler interleaves the tasks.
  auto matches_per_chunk = std::vector<std::vector<ChunkOffset>>(chunk_count);
  auto jobs = std::vector<std::shared_ptr<AbstractTask>>{};
  jobs.reserve(chunk_count);
  for (auto chunk_id = ChunkID{0}; chunk_id < chunk_count; ++chunk_id) {
    jobs.push_back(std::make_shared<JobTask>([this, &input, &context, &matches_per_chunk, chunk_id] {
      matches_per_chunk[chunk_id] = ScanChunk(input, chunk_id, context);
    }));
  }
  SpawnAndWaitForTasks(jobs);

  for (auto chunk_id = ChunkID{0}; chunk_id < chunk_count; ++chunk_id) {
    if (!matches_per_chunk[chunk_id].empty()) {
      output->AppendChunk(ComposeFilteredSegments(input, chunk_id, matches_per_chunk[chunk_id]));
    }
  }
  return output;
}

void TableScan::OnSetParameters(const std::unordered_map<ParameterID, AllTypeVariant>& parameters) {
  predicate_ = ReplaceParameters(predicate_, parameters);
}

std::shared_ptr<AbstractOperator> TableScan::OnDeepCopy(std::shared_ptr<AbstractOperator> left,
                                                        std::shared_ptr<AbstractOperator> /*right*/,
                                                        DeepCopyMap& /*map*/) const {
  return std::make_shared<TableScan>(std::move(left), predicate_->DeepCopy());
}

}  // namespace hyrise
