#ifndef HYRISE_SRC_TYPES_ALL_TYPE_VARIANT_HPP_
#define HYRISE_SRC_TYPES_ALL_TYPE_VARIANT_HPP_

#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>
#include <variant>

#include "types/null_value.hpp"
#include "utils/assert.hpp"

namespace hyrise {

/// The data types supported for column values (paper §1.1: the set of
/// supported types is centrally defined and code for it is generated —
/// here via ResolveDataType below instead of Boost.Hana).
enum class DataType : uint8_t { kNull, kInt, kLong, kFloat, kDouble, kString };

/// A string compared or combined with a number. Fails the statement with
/// SQLSTATE 42883 (undefined_function), never the process.
class DataTypeMismatch : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
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
          if constexpr (std::is_integral_v<T>) {
            return static_cast<T>(std::stoll(value));
          } else {
            return static_cast<T>(std::stod(value));
          }
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
