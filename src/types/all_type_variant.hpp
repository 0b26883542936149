#ifndef HYRISE_SRC_TYPES_ALL_TYPE_VARIANT_HPP_
#define HYRISE_SRC_TYPES_ALL_TYPE_VARIANT_HPP_

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>

#include "types/null_value.hpp"
#include "utils/assert.hpp"

namespace hyrise {

/// The data types supported for column values (paper §1.1: the set of
/// supported types is centrally defined and code for it is generated —
/// here via ResolveDataType below instead of Boost.Hana).
enum class DataType : uint8_t { kNull, kInt, kLong, kFloat, kDouble, kString };

/// A value a statement cannot use, with the SQLSTATE it fails with — for
/// example text that is no number (22P02 invalid_text_representation), a
/// number out of its type's range (22003) or a malformed date (22007).
/// Fails the statement, never the process.
class DataError : public std::invalid_argument {
 public:
  DataError(const std::string& message, const char* sqlstate)
      : std::invalid_argument(message), sqlstate_(sqlstate) {}

  const char* sqlstate() const {
    return sqlstate_;
  }

 private:
  const char* sqlstate_;
};

/// A string compared or combined with a number: SQLSTATE 42883
/// (undefined_function).
class DataTypeMismatch : public DataError {
 public:
  explicit DataTypeMismatch(const std::string& message) : DataError(message, "42883") {}
};

/// Untyped value used on slow paths (row materialization, expression
/// fallbacks, test utilities). The first alternative is NullValue so that a
/// default-constructed variant is NULL.
using AllTypeVariant = std::variant<NullValue, int32_t, int64_t, float, double, std::string>;

inline const AllTypeVariant kNullVariant{NullValue{}};

inline bool VariantIsNull(const AllTypeVariant& variant) {
  return variant.index() == 0;
}

/// Maps a C++ type to its DataType enum value.
template <typename T>
constexpr DataType DataTypeOf() {
  if constexpr (std::is_same_v<T, int32_t>) {
    return DataType::kInt;
  } else if constexpr (std::is_same_v<T, int64_t>) {
    return DataType::kLong;
  } else if constexpr (std::is_same_v<T, float>) {
    return DataType::kFloat;
  } else if constexpr (std::is_same_v<T, double>) {
    return DataType::kDouble;
  } else if constexpr (std::is_same_v<T, std::string>) {
    return DataType::kString;
  } else {
    static_assert(!sizeof(T), "Unsupported column type");
  }
}

DataType DataTypeOfVariant(const AllTypeVariant& variant);

const char* DataTypeToString(DataType data_type);

/// Reads `text`, blanks around it allowed, as a T — how CAST, EXTRACT and
/// VariantCast (say, INSERT of a string into a number column) read numbers
/// from strings. Text that is no T throws DataError with `sqlstate`; a
/// number outside T's range throws 22003.
template <typename T>
T ParseNumber(const std::string& text, const char* sqlstate) {
  auto view = std::string_view{text};
  view.remove_prefix(std::min(view.find_first_not_of(' '), view.size()));
  view.remove_suffix(view.size() - (view.find_last_not_of(' ') + 1));
  if (view.size() > 1 && view[0] == '+' && view[1] != '-') {
    view.remove_prefix(1);  // from_chars reads no plus sign.
  }
  auto value = T{};
  const auto [end, error] = std::from_chars(view.data(), view.data() + view.size(), value);
  if (error != std::errc{} || end != view.data() + view.size()) {
    const auto out_of_range = error == std::errc::result_out_of_range;
    throw DataError{std::string{out_of_range ? "Value out of range" : "Invalid input"} + " for type " +
                        DataTypeToString(DataTypeOf<T>()) + ": '" + text + "'",
                    out_of_range ? "22003" : sqlstate};
  }
  return value;
}

/// Parses "int" / "long" / "float" / "double" / "string" (used by the CSV
/// loader and CREATE TABLE).
DataType DataTypeFromString(const std::string& name);

bool IsNumericDataType(DataType data_type);

/// Invokes `functor` with a default-constructed value of the C++ type
/// corresponding to `data_type`. This is the central static-dispatch
/// mechanism replacing Boost.Hana in the original system:
///
///   ResolveDataType(data_type, [&](auto type_tag) {
///     using ColumnDataType = decltype(type_tag);
///     ...
///   });
template <typename Functor>
void ResolveDataType(DataType data_type, const Functor& functor) {
  switch (data_type) {
    case DataType::kInt:
      functor(int32_t{});
      return;
    case DataType::kLong:
      functor(int64_t{});
      return;
    case DataType::kFloat:
      functor(float{});
      return;
    case DataType::kDouble:
      functor(double{});
      return;
    case DataType::kString:
      functor(std::string{});
      return;
    case DataType::kNull:
      break;
  }
  Fail("Cannot resolve DataType::kNull to a C++ type");
}

/// Converts a variant's payload to T, applying numeric widening/narrowing and
/// string conversion where sensible. Fails on NULL input.
template <typename T>
T VariantCast(const AllTypeVariant& variant) {
  Assert(!VariantIsNull(variant), "Cannot cast NULL to a concrete type");
  return std::visit(
      [](const auto& value) -> T {
        using SourceType = std::decay_t<decltype(value)>;
        if constexpr (std::is_same_v<SourceType, NullValue>) {
          Fail("Unreachable: NULL checked above");
        } else if constexpr (std::is_same_v<SourceType, T>) {
          return value;
        } else if constexpr (std::is_arithmetic_v<SourceType> && std::is_arithmetic_v<T>) {
          return static_cast<T>(value);
        } else if constexpr (std::is_same_v<T, std::string> && std::is_arithmetic_v<SourceType>) {
          return std::to_string(value);
        } else if constexpr (std::is_same_v<SourceType, std::string> && std::is_arithmetic_v<T>) {
          // long double (the literal range checks) reads as double.
          using Parsed = std::conditional_t<std::is_same_v<T, long double>, double, T>;
          return static_cast<T>(ParseNumber<Parsed>(value, "22P02"));  // invalid_text_representation
        } else {
          Fail("Unsupported variant cast");
        }
      },
      variant);
}

/// Renders the variant the way query results are printed (and the way the
/// PostgreSQL wire protocol sends text values).
std::string VariantToString(const AllTypeVariant& variant);

std::ostream& operator<<(std::ostream& stream, const AllTypeVariant& variant);

/// Total order over variants of possibly different numeric types; strings
/// compare with strings only. NULL sorts first. Used by tests to sort
/// result rows; operators compare typed values.
bool VariantLessThan(const AllTypeVariant& lhs, const AllTypeVariant& rhs);

/// Equality with numeric type coercion (1 == int64_t{1} == 1.0f).
bool VariantEquals(const AllTypeVariant& lhs, const AllTypeVariant& rhs);

}  // namespace hyrise

#endif  // HYRISE_SRC_TYPES_ALL_TYPE_VARIANT_HPP_
