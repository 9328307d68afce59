#include "relational/table.h"

#include <algorithm>
#include <atomic>
#include <sstream>

#include "common/metrics.h"

namespace minerule {

uint64_t NextTableVersion() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

Result<Value> CoerceValueToColumn(const Value& value, DataType type,
                                  const std::string& column_name) {
  if (value.is_null()) return value;
  if (value.type() == type) return value;
  if (type == DataType::kDouble && value.type() == DataType::kInteger) {
    return Value::Double(static_cast<double>(value.AsInteger()));
  }
  if (type == DataType::kInteger && value.type() == DataType::kDouble) {
    // Allow exact integral doubles (e.g. results of AVG-free arithmetic).
    const double d = value.AsDouble();
    const int64_t i = static_cast<int64_t>(d);
    if (static_cast<double>(i) == d) return Value::Integer(i);
  }
  return Status::TypeError("value of type " +
                           std::string(DataTypeName(value.type())) +
                           " does not fit column '" + column_name + "' (" +
                           DataTypeName(type) + ")");
}

Status Table::Append(Row row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " does not match table '" +
        name_ + "' with " + std::to_string(schema_.num_columns()) +
        " columns");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    // A NULL or a value of the column's type is stored as it is, uncopied.
    if (row[i].is_null() || row[i].type() == schema_.column(i).type) continue;
    MR_ASSIGN_OR_RETURN(
        row[i], CoerceValueToColumn(row[i], schema_.column(i).type,
                                    schema_.column(i).name));
  }
  Detach();
  storage_->rows.push_back(std::move(row));
  version_ = NextTableVersion();
  return Status::OK();
}

void Table::BuildRows() const {
  Storage& storage = *storage_;
  std::call_once(storage.rows_built,
                 [&storage] { storage.columns->AppendRows(&storage.rows); });
}

bool Table::StoreColumns(std::shared_ptr<const ColumnarTable> columns) {
  if (num_rows() != 0 || columns->columns.size() != schema_.num_columns()) {
    return false;
  }
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    const ColumnVector& column = columns->columns[c];
    if (column.encoding() == ColumnEncoding::kGeneric ||
        column.declared_type() != schema_.column(c).type ||
        column.size() != columns->num_rows) {
      return false;
    }
  }
  GlobalMetrics()
      .GetGauge("relational.columnar_peak_bytes")
      ->UpdateMax(columns->ByteSize());
  storage_ = std::make_shared<Storage>();
  storage_->columns = std::move(columns);
  columnar_cache_ = MakeColumnarCache();
  version_ = NextTableVersion();
  return true;
}

void Table::Clear() {
  // Fresh storage detaches without copying rows that are about to go.
  storage_ = std::make_shared<Storage>();
  columnar_cache_ = MakeColumnarCache();
  version_ = NextTableVersion();
  shape_version_ = version_;
}

void Table::MaterializeRows() {
  auto fresh = std::make_shared<Storage>();
  if (storage_.use_count() == 1) {
    // Private storage: its rows (built now if columns are stored) move.
    rows();
    fresh->rows = std::move(storage_->rows);
  } else {
    // The copies keep the old storage and the image built from it; the
    // columnar cache is keyed by version only, so a shared one would serve
    // (and rebuild) images across the diverging copies.
    fresh->rows = rows();
    columnar_cache_ = MakeColumnarCache();
  }
  storage_ = std::move(fresh);
}

std::string Table::ToDisplayString(size_t max_rows) const {
  std::vector<size_t> widths(schema_.num_columns());
  std::vector<std::vector<std::string>> cells;
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    widths[c] = schema_.column(c).name.size();
  }
  const std::vector<Row>& rows = this->rows();
  const size_t shown = std::min(max_rows, rows.size());
  cells.reserve(shown);
  for (size_t r = 0; r < shown; ++r) {
    std::vector<std::string> line;
    line.reserve(schema_.num_columns());
    for (size_t c = 0; c < schema_.num_columns(); ++c) {
      line.push_back(rows[r][c].ToString());
      widths[c] = std::max(widths[c], line.back().size());
    }
    cells.push_back(std::move(line));
  }
  std::ostringstream os;
  auto rule = [&] {
    os << '+';
    for (size_t w : widths) os << std::string(w + 2, '-') << '+';
    os << '\n';
  };
  rule();
  os << '|';
  for (size_t c = 0; c < widths.size(); ++c) {
    const std::string& n = schema_.column(c).name;
    os << ' ' << n << std::string(widths[c] - n.size(), ' ') << " |";
  }
  os << '\n';
  rule();
  for (const auto& line : cells) {
    os << '|';
    for (size_t c = 0; c < widths.size(); ++c) {
      os << ' ' << line[c] << std::string(widths[c] - line[c].size(), ' ')
         << " |";
    }
    os << '\n';
  }
  rule();
  if (shown < rows.size()) {
    os << "(" << rows.size() - shown << " more rows)\n";
  }
  return os.str();
}

}  // namespace minerule
