#include "relational/value.h"

#include <cmath>
#include <cstdio>
#include <functional>

#include "common/string_util.h"
#include "relational/date.h"

namespace minerule {

namespace {

/// Exact three-way compare of an int64 against a double. The obvious
/// AsDouble() round-trip is lossy: doubles cannot represent every int64
/// above 2^53, so e.g. 2^53 and 2^53+1 would compare equal and hash join /
/// nested-loop join would disagree on such keys. NaN orders after every
/// number (total order used by sort/group/join).
int CompareIntDouble(int64_t i, double d) {
  if (std::isnan(d)) return -1;
  // Doubles at or beyond ±2^63 are outside int64 range (the negative bound
  // -2^63 itself is exactly representable and in range).
  if (d >= 9223372036854775808.0) return -1;
  if (d < -9223372036854775808.0) return 1;
  const int64_t truncated = static_cast<int64_t>(d);  // toward zero, in range
  if (i < truncated) return -1;
  if (i > truncated) return 1;
  // Integer parts tie; the fractional part decides. Exact because any double
  // with a nonzero fraction has |d| < 2^53.
  const double frac = d - std::trunc(d);
  if (frac > 0.0) return -1;
  if (frac < 0.0) return 1;
  return 0;
}

/// Three-way double compare under the same total order: NaN after all
/// numbers, NaN equal to NaN.
int CompareDoubles(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  if (a == b) return 0;
  const bool a_nan = std::isnan(a);
  if (a_nan && std::isnan(b)) return 0;
  return a_nan ? 1 : -1;
}

/// Exact numeric comparison across INTEGER/DOUBLE operands.
int CompareNumericValues(const Value& a, const Value& b) {
  if (a.type() == DataType::kInteger) {
    if (b.type() == DataType::kInteger) {
      const int64_t x = a.AsInteger(), y = b.AsInteger();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    return CompareIntDouble(a.AsInteger(), b.AsDouble());
  }
  if (b.type() == DataType::kInteger) {
    return -CompareIntDouble(b.AsInteger(), a.AsDouble());
  }
  return CompareDoubles(a.AsDouble(), b.AsDouble());
}

}  // namespace

const char* DataTypeName(DataType type) {
  switch (type) {
    case DataType::kNull:
      return "NULL";
    case DataType::kBoolean:
      return "BOOLEAN";
    case DataType::kInteger:
      return "INTEGER";
    case DataType::kDouble:
      return "DOUBLE";
    case DataType::kString:
      return "STRING";
    case DataType::kDate:
      return "DATE";
  }
  return "UNKNOWN";
}

Result<DataType> DataTypeFromName(const std::string& name) {
  const std::string up = ToUpper(name);
  if (up == "INTEGER" || up == "INT" || up == "BIGINT" || up == "SMALLINT") {
    return DataType::kInteger;
  }
  if (up == "DOUBLE" || up == "REAL" || up == "FLOAT" || up == "NUMERIC" ||
      up == "DECIMAL") {
    return DataType::kDouble;
  }
  if (up == "VARCHAR" || up == "STRING" || up == "TEXT" || up == "CHAR") {
    return DataType::kString;
  }
  if (up == "DATE") return DataType::kDate;
  if (up == "BOOLEAN" || up == "BOOL") return DataType::kBoolean;
  return Status::InvalidArgument("unknown type name: " + name);
}

DataType Value::type() const {
  switch (data_.index()) {
    case 0:
      return DataType::kNull;
    case 1:
      return DataType::kBoolean;
    case 2:
      return DataType::kInteger;
    case 3:
      return DataType::kDouble;
    case 4:
      return DataType::kString;
    case 5:
      return DataType::kDate;
  }
  return DataType::kNull;
}

double Value::AsDouble() const {
  if (const int64_t* i = std::get_if<int64_t>(&data_)) {
    return static_cast<double>(*i);
  }
  return std::get<double>(data_);
}

bool Value::is_numeric() const {
  return type() == DataType::kInteger || type() == DataType::kDouble;
}

Result<bool> Value::SqlEquals(const Value& other) const {
  MR_ASSIGN_OR_RETURN(int cmp, SqlCompare(other));
  return cmp == 0;
}

Result<int> Value::SqlCompare(const Value& other) const {
  const DataType a = type();
  const DataType b = other.type();
  if (a == DataType::kNull || b == DataType::kNull) {
    return Status::Internal("SqlCompare called with NULL operand");
  }
  if (is_numeric() && other.is_numeric()) {
    return CompareNumericValues(*this, other);
  }
  if (a != b) {
    return Status::TypeError(std::string("cannot compare ") +
                             DataTypeName(a) + " with " + DataTypeName(b));
  }
  switch (a) {
    case DataType::kBoolean: {
      const int x = AsBoolean() ? 1 : 0, y = other.AsBoolean() ? 1 : 0;
      return x - y;
    }
    case DataType::kString: {
      const int c = AsString().compare(other.AsString());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case DataType::kDate: {
      const int32_t x = AsDate(), y = other.AsDate();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    default:
      return Status::Internal("unreachable type in SqlCompare");
  }
}

int Value::TypeRank() const {
  switch (type()) {
    case DataType::kNull:
      return 0;
    case DataType::kBoolean:
      return 1;
    case DataType::kInteger:
    case DataType::kDouble:
      return 2;
    case DataType::kString:
      return 3;
    case DataType::kDate:
      return 4;
  }
  return 5;
}

bool Value::TotalLess(const Value& other) const {
  const int ra = TypeRank(), rb = other.TypeRank();
  if (ra != rb) return ra < rb;
  switch (type()) {
    case DataType::kNull:
      return false;
    case DataType::kBoolean:
      return !AsBoolean() && other.AsBoolean();
    case DataType::kInteger:
    case DataType::kDouble:
      return CompareNumericValues(*this, other) < 0;
    case DataType::kString:
      return AsString() < other.AsString();
    case DataType::kDate:
      return AsDate() < other.AsDate();
  }
  return false;
}

bool Value::TotalEquals(const Value& other) const {
  const int ra = TypeRank(), rb = other.TypeRank();
  if (ra != rb) return false;
  switch (type()) {
    case DataType::kNull:
      return true;
    case DataType::kBoolean:
      return AsBoolean() == other.AsBoolean();
    case DataType::kInteger:
    case DataType::kDouble:
      return CompareNumericValues(*this, other) == 0;
    case DataType::kString:
      return AsString() == other.AsString();
    case DataType::kDate:
      return AsDate() == other.AsDate();
  }
  return false;
}

size_t Value::Hash() const {
  switch (type()) {
    case DataType::kNull:
      return 0x9e3779b9u;
    case DataType::kBoolean:
      return AsBoolean() ? 0x85ebca6bu : 0xc2b2ae35u;
    case DataType::kInteger:
      return std::hash<int64_t>{}(AsInteger());
    case DataType::kDouble: {
      // Canonicalize integral doubles in int64 range to the int64 hash so
      // TotalEquals implies equal hashes across the two numeric types
      // (exactly — including above 2^53, where the old AsDouble() round-trip
      // conflated distinct integers). -0.0 truncates to 0, matching +0.
      const double d = AsDouble();
      if (d >= -9223372036854775808.0 && d < 9223372036854775808.0 &&
          std::trunc(d) == d) {
        return std::hash<int64_t>{}(static_cast<int64_t>(d));
      }
      // Every NaN is TotalEquals to every other whatever its sign and
      // payload bits, so all NaNs share one hash.
      if (std::isnan(d)) return 0x7ff8000000000000ull;
      return std::hash<double>{}(d);
    }
    case DataType::kString:
      return std::hash<std::string>{}(AsString());
    case DataType::kDate:
      return std::hash<int64_t>{}(static_cast<int64_t>(AsDate()) ^
                                  0x51afd7edull);
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case DataType::kNull:
      return "NULL";
    case DataType::kBoolean:
      return AsBoolean() ? "TRUE" : "FALSE";
    case DataType::kInteger:
      return std::to_string(AsInteger());
    case DataType::kDouble: {
      char buf[32];
      const double d = AsDouble();
      if (d == std::floor(d) && std::abs(d) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%.1f", d);
      } else {
        std::snprintf(buf, sizeof(buf), "%g", d);
      }
      return buf;
    }
    case DataType::kString:
      return AsString();
    case DataType::kDate:
      return date::ToString(AsDate());
  }
  return "?";
}

std::string Value::ToSqlLiteral() const {
  switch (type()) {
    case DataType::kNull:
      return "NULL";
    case DataType::kBoolean:
      return AsBoolean() ? "TRUE" : "FALSE";
    case DataType::kInteger:
      return std::to_string(AsInteger());
    case DataType::kDouble: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", AsDouble());
      return buf;
    }
    case DataType::kString: {
      std::string out = "'";
      for (char c : AsString()) {
        out += c;
        if (c == '\'') out += '\'';
      }
      out += "'";
      return out;
    }
    case DataType::kDate: {
      int y, m, d;
      date::ToCivil(AsDate(), &y, &m, &d);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "DATE '%04d-%02d-%02d'", y, m, d);
      return buf;
    }
  }
  return "NULL";
}

}  // namespace minerule
