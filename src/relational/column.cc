#include "relational/column.h"

#include <mutex>
#include <unordered_map>

#include "common/metrics.h"
#include "relational/table.h"

namespace minerule {

namespace {

/// Dictionary codes are uint16, so a column may hold at most this many
/// distinct strings before falling back to the generic encoding.
constexpr size_t kMaxDictEntries = 1 << 16;

/// The int64 payload of a value whose type matches an int64-encoded column
/// exactly (INTEGER / DATE / BOOLEAN).
int64_t Int64PayloadOf(const Value& v, DataType declared) {
  switch (declared) {
    case DataType::kInteger:
      return v.AsInteger();
    case DataType::kDate:
      return v.AsDate();
    case DataType::kBoolean:
      return v.AsBoolean() ? 1 : 0;
    default:
      return 0;
  }
}

}  // namespace

const char* ColumnEncodingName(ColumnEncoding encoding) {
  switch (encoding) {
    case ColumnEncoding::kInt64:
      return "int64";
    case ColumnEncoding::kDouble:
      return "double";
    case ColumnEncoding::kDict:
      return "dict";
    case ColumnEncoding::kGeneric:
      return "generic";
  }
  return "?";
}

/// Encodes value_at(0..n-1) under `declared` (the body of every encoding
/// entry point). value_at(i) returns a const Value&.
template <typename ValueAt>
ColumnVector ColumnVector::EncodeValues(DataType declared, size_t n,
                                        ValueAt value_at) {
  ColumnVector out;
  out.declared_ = declared;
  out.nulls_.Reset(n);

  auto fall_back_to_generic = [&] {
    out.encoding_ = ColumnEncoding::kGeneric;
    out.ints_.clear();
    out.doubles_.clear();
    out.codes_.clear();
    out.dict_.reset();
    out.nulls_.Reset(n);
    out.generic_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const Value& v = value_at(i);
      if (v.is_null()) out.nulls_.SetNull(i);
      out.generic_.push_back(v);
    }
  };

  switch (declared) {
    case DataType::kInteger:
    case DataType::kDate:
    case DataType::kBoolean: {
      out.encoding_ = ColumnEncoding::kInt64;
      out.ints_.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        const Value& v = value_at(i);
        if (v.is_null()) {
          out.nulls_.SetNull(i);
          out.ints_.push_back(0);
          continue;
        }
        if (v.type() != declared) {
          fall_back_to_generic();
          return out;
        }
        out.ints_.push_back(Int64PayloadOf(v, declared));
      }
      return out;
    }
    case DataType::kDouble: {
      out.encoding_ = ColumnEncoding::kDouble;
      out.doubles_.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        const Value& v = value_at(i);
        if (v.is_null()) {
          out.nulls_.SetNull(i);
          out.doubles_.push_back(0.0);
          continue;
        }
        if (v.type() != DataType::kDouble) {
          fall_back_to_generic();
          return out;
        }
        out.doubles_.push_back(v.AsDouble());
      }
      return out;
    }
    case DataType::kString: {
      out.encoding_ = ColumnEncoding::kDict;
      out.codes_.reserve(n);
      auto dict = std::make_shared<std::vector<std::string>>();
      std::unordered_map<std::string, uint16_t> interned;
      for (size_t i = 0; i < n; ++i) {
        const Value& v = value_at(i);
        if (v.is_null()) {
          out.nulls_.SetNull(i);
          out.codes_.push_back(0);
          continue;
        }
        if (v.type() != DataType::kString) {
          fall_back_to_generic();
          return out;
        }
        auto [it, inserted] = interned.try_emplace(
            v.AsString(), static_cast<uint16_t>(dict->size()));
        if (inserted) {
          if (dict->size() >= kMaxDictEntries) {
            fall_back_to_generic();
            return out;
          }
          dict->push_back(v.AsString());
        }
        out.codes_.push_back(it->second);
      }
      out.dict_ = std::move(dict);
      return out;
    }
    default:
      // Columns with no usable declared type (e.g. NULL-typed subquery
      // outputs) stay generic.
      fall_back_to_generic();
      return out;
  }
}

ColumnVector ColumnVector::Encode(DataType declared,
                                  const std::vector<Row>& rows, size_t col) {
  return EncodeRange(declared, rows, col, 0, rows.size());
}

ColumnVector ColumnVector::EncodeRange(DataType declared,
                                       const std::vector<Row>& rows,
                                       size_t col, size_t begin, size_t end) {
  return EncodeValues(declared, end - begin, [&](size_t i) -> const Value& {
    return rows[begin + i][col];
  });
}

ColumnVector ColumnVector::FromValues(DataType declared,
                                      const std::vector<Value>& values) {
  return EncodeValues(declared, values.size(),
                      [&](size_t i) -> const Value& { return values[i]; });
}

ColumnVector ColumnVector::Gather(const ColumnVector& column,
                                  std::span<const uint32_t> rows) {
  const Slice slice{&column, rows};
  return Gather(column.declared_, std::span<const Slice>(&slice, 1));
}

ColumnVector ColumnVector::Gather(DataType declared,
                                  std::span<const Slice> slices) {
  size_t n = 0;
  const ColumnVector* first = nullptr;
  bool typed = true;
  for (const Slice& slice : slices) {
    n += slice.rows.size();
    if (first == nullptr) {
      first = slice.column;
    } else if (slice.column->encoding_ != first->encoding_ ||
               slice.column->declared_ != first->declared_ ||
               slice.column->dict_ != first->dict_) {
      typed = false;
    }
  }
  if (first == nullptr) return FromValues(declared, {});
  if (!typed) {
    std::vector<Value> values;
    values.reserve(n);
    for (const Slice& slice : slices) {
      for (uint32_t r : slice.rows) values.push_back(slice.column->GetValue(r));
    }
    return FromValues(declared, values);
  }

  ColumnVector out;
  out.encoding_ = first->encoding_;
  out.declared_ = first->declared_;
  out.dict_ = first->dict_;
  out.nulls_.Reset(n);
  size_t pos = 0;
  for (const Slice& slice : slices) {
    const ColumnVector& src = *slice.column;
    if (src.nulls_.AnyNull()) {
      for (size_t k = 0; k < slice.rows.size(); ++k) {
        if (src.nulls_.IsNull(slice.rows[k])) out.nulls_.SetNull(pos + k);
      }
    }
    pos += slice.rows.size();
  }
  auto copy = [&](auto& dst, const auto& member) {
    dst.resize(n);
    size_t at = 0;
    for (const Slice& slice : slices) {
      const auto& src = slice.column->*member;
      for (uint32_t r : slice.rows) dst[at++] = src[r];
    }
  };
  switch (out.encoding_) {
    case ColumnEncoding::kInt64:
      copy(out.ints_, &ColumnVector::ints_);
      break;
    case ColumnEncoding::kDouble:
      copy(out.doubles_, &ColumnVector::doubles_);
      break;
    case ColumnEncoding::kDict:
      copy(out.codes_, &ColumnVector::codes_);
      break;
    case ColumnEncoding::kGeneric:
      copy(out.generic_, &ColumnVector::generic_);
      break;
  }
  return out;
}

const std::vector<std::string>& ColumnVector::dictionary() const {
  static const std::vector<std::string> kEmpty;
  return dict_ != nullptr ? *dict_ : kEmpty;
}

Value ColumnVector::GetValue(size_t i) const {
  if (nulls_.IsNull(i)) return Value::Null();
  switch (encoding_) {
    case ColumnEncoding::kInt64:
      switch (declared_) {
        case DataType::kInteger:
          return Value::Integer(ints_[i]);
        case DataType::kDate:
          return Value::Date(static_cast<int32_t>(ints_[i]));
        case DataType::kBoolean:
          return Value::Boolean(ints_[i] != 0);
        default:
          return Value::Null();
      }
    case ColumnEncoding::kDouble:
      return Value::Double(doubles_[i]);
    case ColumnEncoding::kDict:
      return Value::String((*dict_)[codes_[i]]);
    case ColumnEncoding::kGeneric:
      return generic_[i];
  }
  return Value::Null();
}

int64_t ColumnVector::ByteSize() const {
  int64_t bytes = nulls_.ByteSize();
  bytes += static_cast<int64_t>(ints_.size() * sizeof(int64_t));
  bytes += static_cast<int64_t>(doubles_.size() * sizeof(double));
  bytes += static_cast<int64_t>(codes_.size() * sizeof(uint16_t));
  for (const std::string& s : dictionary()) {
    bytes += static_cast<int64_t>(sizeof(std::string) + s.size());
  }
  for (const Value& v : generic_) {
    bytes += static_cast<int64_t>(sizeof(Value));
    if (v.type() == DataType::kString) {
      bytes += static_cast<int64_t>(v.AsString().size());
    }
  }
  return bytes;
}

std::shared_ptr<const ColumnarTable> ColumnarTable::FromRows(
    const Schema& schema, const std::vector<Row>& rows) {
  auto out = std::make_shared<ColumnarTable>();
  out->schema = schema;
  out->num_rows = rows.size();
  out->columns.reserve(schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    out->columns.push_back(
        ColumnVector::Encode(schema.column(c).type, rows, c));
  }
  return out;
}

void ColumnarTable::AppendRows(std::vector<Row>* out) const {
  out->reserve(out->size() + num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    Row row;
    row.reserve(columns.size());
    for (const ColumnVector& column : columns) {
      row.push_back(column.GetValue(r));
    }
    out->push_back(std::move(row));
  }
}

int64_t ColumnarTable::ByteSize() const {
  int64_t bytes = 0;
  for (const ColumnVector& col : columns) bytes += col.ByteSize();
  return bytes;
}

/// Per-table cache of the columnar image, keyed by the table's mutation
/// version: any DML invalidates, repeated scans of an unchanged table share
/// one image. Lives behind a shared_ptr member so Table stays copyable.
class ColumnarCache {
 public:
  std::shared_ptr<const ColumnarTable> Get(const Table& table) {
    std::lock_guard<std::mutex> lock(mu_);
    if (cached_ != nullptr && cached_version_ == table.version()) {
      return cached_;
    }
    cached_ = ColumnarTable::FromRows(table.schema(), table.rows());
    cached_version_ = table.version();
    GlobalMetrics()
        .GetGauge("relational.columnar_peak_bytes")
        ->UpdateMax(cached_->ByteSize());
    return cached_;
  }

 private:
  std::mutex mu_;
  uint64_t cached_version_ = 0;
  std::shared_ptr<const ColumnarTable> cached_;
};

std::shared_ptr<ColumnarCache> MakeColumnarCache() {
  return std::make_shared<ColumnarCache>();
}

std::shared_ptr<const ColumnarTable> Table::Columnar() const {
  if (storage_->columns != nullptr) return storage_->columns;
  return columnar_cache_->Get(*this);
}

}  // namespace minerule
