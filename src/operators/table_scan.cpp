#include "operators/table_scan.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "expression/expression_evaluator.hpp"
#include "expression/expression_utils.hpp"
#include "expression/like_matcher.hpp"
#include "operators/pos_list_utils.hpp"
#include "operators/scan_kernels.hpp"
#include "scheduler/job_helpers.hpp"
#include "utils/failure_injection.hpp"
#include "storage/reference_segment.hpp"
#include "storage/table.hpp"
#include "utils/assert.hpp"

namespace hyrise {

namespace {

/// The recognized fast-path predicate shapes.
enum class ScanKind {
  kColumnVsValue,  // Includes BETWEEN two values.
  kColumnIsNull,
  kColumnLike,
  kColumnIn,  // `column [NOT] IN (literal, ...)`.
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
  std::vector<AllTypeVariant> list;  // The elements of kColumnIn.
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
    case PredicateCondition::kIn:
    case PredicateCondition::kNotIn:
      // Lists of literals only; subqueries and computed elements stay on the
      // expression evaluator.
      if (is_column(arguments[0]) && arguments[1]->type == ExpressionType::kList &&
          std::all_of(arguments[1]->arguments.begin(), arguments[1]->arguments.end(), is_value)) {
        spec.kind = ScanKind::kColumnIn;
        spec.condition = typed.condition;
        spec.column_id = column_id_of(arguments[0]);
        for (const auto& element : arguments[1]->arguments) {
          spec.list.push_back(value_of(element));
        }
      }
      return spec;
    default:
      return spec;
  }
}

/// Appends the rows whose code satisfies `predicate` — the shared body of
/// the dictionary kernels (range, exclusion, LIKE and IN lookups, IS [NOT]
/// NULL).
template <typename T, typename Predicate>
void ScanViewCodes(const DictionaryView<T>& view, const Predicate& predicate, std::vector<ChunkOffset>& matches) {
  ForEachViewCodeBlock(view, [&](const auto* codes, size_t count, size_t base) {
    EmitBlockMask(BuildBlockMask(codes, count, predicate), base, matches);
  });
}

/// Dictionary kernel: compare compressed value IDs against the bounds of
/// the search value — no decoding (paper §2.3). Codes are consumed
/// block-wise: 128 at a time into a branch-free range compare (the
/// `code - lower < upper - lower` form folds both bounds into one unsigned
/// compare; the null id is `dictionary.size()` and therefore never inside
/// [lower, upper)).
template <typename T>
void ScanDictionary(const DictionaryView<T>& view, PredicateCondition condition, const T& value,
                    const std::optional<T>& value2, std::vector<ChunkOffset>& matches) {
  const auto& segment = *view.segment;
  const auto null_id = segment.null_value_id();
  const auto total = static_cast<uint32_t>(segment.dictionary().size());

  // Express the predicate as [lower_id, upper_id) over value IDs.
  auto lower = uint32_t{0};
  auto upper = total;
  const auto resolve = [&](ValueID bound) {
    return bound == kInvalidValueId ? total : static_cast<uint32_t>(bound);
  };
  switch (condition) {
    case PredicateCondition::kEquals: {
      lower = resolve(segment.LowerBound(value));
      upper = resolve(segment.UpperBound(value));
      break;
    }
    case PredicateCondition::kNotEquals: {
      // The complement of [equals_lower, equals_upper), minus the null code.
      const auto equals_lower = resolve(segment.LowerBound(value));
      const auto equals_upper = resolve(segment.UpperBound(value));
      const auto width = equals_upper - equals_lower;
      ScanViewCodes(view, [=](uint32_t code) {
        return static_cast<bool>(static_cast<uint64_t>(code - equals_lower >= width) &
                                 static_cast<uint64_t>(code != null_id));
      }, matches);
      return;
    }
    case PredicateCondition::kLessThan:
      upper = resolve(segment.LowerBound(value));
      break;
    case PredicateCondition::kLessThanEquals:
      upper = resolve(segment.UpperBound(value));
      break;
    case PredicateCondition::kGreaterThan:
      lower = resolve(segment.UpperBound(value));
      break;
    case PredicateCondition::kGreaterThanEquals:
      lower = resolve(segment.LowerBound(value));
      break;
    case PredicateCondition::kBetweenInclusive:
      // The range kernel: two dictionary binary searches, then one masked
      // range compare over the codes — a fused BETWEEN costs exactly as much
      // as a single one-sided comparison.
      lower = resolve(segment.LowerBound(value));
      upper = resolve(segment.UpperBound(*value2));
      break;
    default:
      Fail("No dictionary kernel for this condition");
  }

  if (lower >= upper) {
    return;  // Provably empty.
  }
  const auto width = upper - lower;
  ScanViewCodes(view, [=](uint32_t code) {
    return code - lower < width;
  }, matches);
}

/// LIKE on dictionaries: an entry is matched when a row first shows its
/// code, so each entry the view references is matched once and no other
/// (a pos list may reference few of a chunk's mostly unique comments).
void ScanDictionaryLike(const DictionaryView<std::string>& view, const LikeMatcher& matcher, bool invert,
                        std::vector<ChunkOffset>& matches) {
  constexpr auto kUnmatched = uint8_t{2};
  const auto& dictionary = view.segment->dictionary();
  auto code_matches = std::vector<uint8_t>(dictionary.size() + 1, kUnmatched);
  code_matches.back() = 0;  // The null id.
  const auto* lookup = code_matches.data();
  ForEachViewCodeBlock(view, [&](const auto* codes, size_t count, size_t base) {
    for (auto index = size_t{0}; index < count; ++index) {
      auto& code_match = code_matches[codes[index]];
      if (code_match == kUnmatched) {
        code_match = matcher.Matches(dictionary[codes[index]]) != invert ? 1 : 0;
      }
    }
    EmitBlockMask(BuildBlockMask(codes, count, [lookup](uint32_t code) {
      return lookup[code] != 0;
    }), base, matches);
  });
}

constexpr auto kNullRank = std::numeric_limits<uint32_t>::max();

/// The rank of every value ID of two sorted dictionaries in their merged
/// order: equal values get equal ranks, so `left[a] <op> right[b]` is
/// `rank_left[a] <op> rank_right[b]`. Index `size()` (the null id) gets
/// kNullRank.
template <typename T>
std::pair<std::vector<uint32_t>, std::vector<uint32_t>> MergeDictionaryRanks(const std::vector<T>& left,
                                                                             const std::vector<T>& right) {
  auto left_ranks = std::vector<uint32_t>(left.size() + 1, kNullRank);
  auto right_ranks = std::vector<uint32_t>(right.size() + 1, kNullRank);
  auto left_index = size_t{0};
  auto right_index = size_t{0};
  auto rank = uint32_t{0};
  while (left_index < left.size() || right_index < right.size()) {
    if (right_index == right.size() || (left_index < left.size() && left[left_index] < right[right_index])) {
      left_ranks[left_index++] = rank++;
    } else if (left_index == left.size() || right[right_index] < left[left_index]) {
      right_ranks[right_index++] = rank++;
    } else {
      left_ranks[left_index++] = rank;
      right_ranks[right_index++] = rank++;
    }
  }
  return {std::move(left_ranks), std::move(right_ranks)};
}

/// The code of every row of `view`.
template <typename T>
std::vector<uint32_t> RowCodes(const DictionaryView<T>& view, size_t size) {
  auto row_codes = std::vector<uint32_t>(size);
  ForEachViewCodeBlock(view, [&](const auto* codes, size_t count, size_t base) {
    std::copy_n(codes, count, row_codes.begin() + static_cast<std::ptrdiff_t>(base));
  });
  return row_codes;
}

/// Column against column on ranks: appends the rows where neither rank is
/// null and `left <condition> right` holds.
void ScanRanks(const std::vector<uint32_t>& left, const std::vector<uint32_t>& right, PredicateCondition condition,
               std::vector<ChunkOffset>& matches) {
  constexpr auto kBlock = BaseCompressedVector::kDecodeBlockSize;
  const auto size = left.size();
  WithComparator(condition, [&](const auto comparator) {
    for (auto base = size_t{0}; base < size; base += kBlock) {
      const auto* lhs = left.data() + base;
      const auto* rhs = right.data() + base;
      const auto mask = BuildBlockMaskAt(std::min(kBlock, size - base), [&](size_t index) {
        return static_cast<bool>(static_cast<uint8_t>(lhs[index] != kNullRank) &
                                 static_cast<uint8_t>(rhs[index] != kNullRank) &
                                 static_cast<uint8_t>(comparator(lhs[index], rhs[index])));
      });
      EmitBlockMask(mask, base, matches);
    }
  });
}

/// Column against column when both sides view dictionaries of T. With at
/// least as many rows as the two dictionaries have entries, the dictionaries
/// are merged once into rank arrays and rows compare ranks; with fewer (a
/// selective scan's output over mostly unique strings), each row compares
/// the two entries its codes reference, in place. Returns false (nothing
/// appended) for inputs of any other shape.
template <typename T>
bool ScanDictionaryColumns(const AbstractSegment& left, const AbstractSegment& right, PredicateCondition condition,
                           std::vector<ChunkOffset>& matches) {
  const auto left_view = ViewDictionary<T>(left);
  const auto right_view = left_view ? ViewDictionary<T>(right) : std::nullopt;
  if (!right_view) {
    return false;
  }
  const auto size = static_cast<size_t>(left.size());
  const auto& left_dictionary = left_view->segment->dictionary();
  const auto& right_dictionary = right_view->segment->dictionary();
  auto left_codes = RowCodes(*left_view, size);
  auto right_codes = RowCodes(*right_view, size);
  if (size >= left_dictionary.size() + right_dictionary.size()) {
    const auto [left_ranks, right_ranks] = MergeDictionaryRanks(left_dictionary, right_dictionary);
    for (auto row = size_t{0}; row < size; ++row) {
      left_codes[row] = left_ranks[left_codes[row]];
      right_codes[row] = right_ranks[right_codes[row]];
    }
    ScanRanks(left_codes, right_codes, condition, matches);
    return true;
  }
  const auto left_null = left_view->segment->null_value_id();
  const auto right_null = right_view->segment->null_value_id();
  WithComparator(condition, [&](const auto comparator) {
    for (auto row = size_t{0}; row < size; ++row) {
      const auto left_code = left_codes[row];
      const auto right_code = right_codes[row];
      if (left_code != left_null && right_code != right_null &&
          comparator(left_dictionary[left_code], right_dictionary[right_code])) {
        matches.push_back(static_cast<ChunkOffset>(row));
      }
    }
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

/// The scan of inputs no kernel reads in place (reference segments other
/// than dictionary views): decodes `segment` and appends the rows for which
/// `predicate(is_null, value)` holds.
template <typename T, typename Predicate>
void ScanDecoded(const AbstractSegment& segment, const Predicate& predicate, std::vector<ChunkOffset>& matches) {
  const auto decoded = DecodeSegmentAs<T>(segment);
  for (auto row = size_t{0}; row < decoded.values.size(); ++row) {
    if (predicate(decoded.IsNull(row), decoded.values[row])) {
      matches.push_back(static_cast<ChunkOffset>(row));
    }
  }
}

/// IS [NOT] NULL: null flags are scanned directly (bytes, run flags, or the
/// null value id) without touching the values at all; other reference
/// segments are decoded first.
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
  if (const auto view = ViewDictionary<T>(segment)) {
    const auto null_id = view->segment->null_value_id();
    ScanViewCodes(*view, [=](uint32_t code) {
      return (code == null_id) == want_null;
    }, matches);
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
  ScanDecoded<T>(segment, [=](bool is_null, const T& /*value*/) {
    return is_null == want_null;
  }, matches);
}

[[noreturn]] void ThrowTypeMismatch(DataType column_type) {
  throw DataTypeMismatch{std::string{"Cannot compare a column of type "} + DataTypeToString(column_type) +
                         " with a " + (column_type == DataType::kString ? "number" : "string")};
}

/// `column [NOT] IN (literal, ...)` on a dictionary view, as a one-byte-per-
/// code lookup, with SQL's three-valued logic: a NULL element never makes a
/// row pass IN, NOT IN with a NULL element selects no row, and a NULL column
/// value passes neither. Each element is typed like `column = element`.
/// Returns false (nothing appended) for inputs of any other shape.
template <typename T>
bool ScanDictionaryIn(const AbstractSegment& segment, const std::vector<AllTypeVariant>& list, bool invert,
                      std::vector<ChunkOffset>& matches) {
  const auto view = ViewDictionary<T>(segment);
  if (!view) {
    return false;
  }
  auto elements = std::vector<T>{};
  auto has_null_element = false;
  for (const auto& element : list) {
    if (VariantIsNull(element)) {
      has_null_element = true;
      continue;
    }
    const auto typed = TypePredicateLiteral<T>(PredicateCondition::kEquals, element);
    if (typed.outcome == LiteralOutcome::kTypeMismatch) {
      ThrowTypeMismatch(DataTypeOf<T>());
    }
    if (typed.outcome == LiteralOutcome::kTyped) {
      elements.push_back(typed.value);  // kNoRow: no value of T equals the element.
    }
  }
  if (invert && has_null_element) {
    return true;
  }
  const auto& dictionary = view->segment->dictionary();
  auto code_matches = std::vector<uint8_t>(dictionary.size() + 1, invert ? 1 : 0);
  code_matches.back() = 0;  // The null id.
  for (const auto& element : elements) {
    const auto value_id = view->segment->LowerBound(element);
    if (value_id != kInvalidValueId && dictionary[value_id] == element) {
      code_matches[value_id] = invert ? 0 : 1;
    }
  }
  ScanViewCodes(*view, [lookup = code_matches.data()](uint32_t code) {
    return lookup[code] != 0;
  }, matches);
  return true;
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
  // Block-wise kernels over the codes, runs, values, or offsets
  // (DESIGN.md §5d).
  const auto condition = predicate.condition;
  const auto& value = predicate.value;
  const auto& value2 = predicate.value2;
  if (const auto view = ViewDictionary<T>(segment)) {
    ScanDictionary(*view, condition, value, value2, matches);
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
  WithValuePredicate<T>(condition, value, value2, [&](const auto& matches_value) {
    ScanDecoded<T>(segment, [&](bool is_null, const T& candidate) {
      return !is_null && matches_value(candidate);
    }, matches);
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
      if (const auto view = ViewDictionary<std::string>(*segment)) {
        ScanDictionaryLike(*view, matcher, invert, matches);
        return matches;
      }
      ScanDecoded<std::string>(*segment, [&](bool is_null, const std::string& candidate) {
        return !is_null && matcher.Matches(candidate) != invert;
      }, matches);
      return matches;
    }
    case ScanKind::kColumnVsColumn: {
      const auto left_segment = chunk->GetSegment(spec.column_id);
      const auto right_segment = chunk->GetSegment(spec.column2_id);
      const auto compare_type = PromoteDataTypes(left_segment->data_type(), right_segment->data_type());
      ResolveDataType(compare_type, [&](auto type_tag) {
        using C = decltype(type_tag);
        if (left_segment->data_type() == right_segment->data_type() &&
            ScanDictionaryColumns<C>(*left_segment, *right_segment, spec.condition, matches)) {
          return;
        }
        const auto left = DecodeSegmentAs<C>(*left_segment);
        const auto right = DecodeSegmentAs<C>(*right_segment);
        const auto size = std::min(left.values.size(), right.values.size());
        WithComparator(spec.condition, [&](const auto comparator) {
          for (auto offset = size_t{0}; offset < size; ++offset) {
            if (!left.IsNull(offset) && !right.IsNull(offset) &&
                comparator(left.values[offset], right.values[offset])) {
              matches.push_back(static_cast<ChunkOffset>(offset));
            }
          }
        });
      });
      return matches;
    }
    case ScanKind::kColumnIn: {
      const auto segment = chunk->GetSegment(spec.column_id);
      auto scanned = false;
      ResolveDataType(segment->data_type(), [&](auto type_tag) {
        scanned = ScanDictionaryIn<decltype(type_tag)>(*segment, spec.list,
                                                       spec.condition == PredicateCondition::kNotIn, matches);
      });
      if (scanned) {
        return matches;
      }
      [[fallthrough]];  // Other inputs: the evaluator's IN.
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
