#ifndef MINERULE_RELATIONAL_TABLE_H_
#define MINERULE_RELATIONAL_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/schema.h"

namespace minerule {

/// Returns a process-unique, monotonically increasing version stamp. Every
/// table mutation takes a fresh one, so "same name, same version" implies
/// identical contents — even across a DROP + re-CREATE of the name.
uint64_t NextTableVersion();

struct ColumnarTable;  // relational/column.h

/// Version-keyed cache behind Table::Columnar(); defined in column.cc. Held
/// by shared_ptr so a Table copy shares the original's image until either
/// side mutates (entries are keyed by the process-unique version stamp).
class ColumnarCache;
std::shared_ptr<ColumnarCache> MakeColumnarCache();

/// An in-memory row-store relation. Tables are owned by the Catalog and
/// referenced by shared_ptr so query results can outlive DDL.
///
/// Rows are copy-on-write: copying a Table is O(1) and shares the row
/// storage and the columnar image with the original, and every mutator
/// detaches first, so a copy is an immutable snapshot of the rows at its
/// version() (the server mines on such snapshots; DESIGN.md §15). Readers
/// of a copy need no latch once it is taken; the copy itself must be taken,
/// and released, while no writer mutates the original.
class Table {
 public:
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return rows_->size(); }
  const std::vector<Row>& rows() const { return *rows_; }
  const Row& row(size_t i) const { return (*rows_)[i]; }

  /// Modification epoch; bumped by every mutation entry point. Consumers
  /// (e.g. the preprocess cache) fold it into their keys to detect DML.
  uint64_t version() const { return version_; }

  /// Epoch of the last *non-append* mutation (Clear, mutable_rows). While
  /// shape_version() holds still, the table has only grown at the tail, so
  /// incremental consumers (the statistics catalog) may fold just the new
  /// suffix instead of rescanning (DESIGN.md §14).
  uint64_t shape_version() const { return shape_version_; }

  /// Appends after checking arity and per-column type compatibility
  /// (NULL fits any column; INTEGER widens into DOUBLE columns).
  Status Append(Row row);

  /// Appends without checks; used by operators whose output schema is
  /// correct by construction.
  void AppendUnchecked(Row row) {
    Detach();
    rows_->push_back(std::move(row));
    version_ = NextTableVersion();
  }

  void Clear();
  void Reserve(size_t n) {
    Detach();
    rows_->reserve(n);
  }

  /// Direct row access for DML (DELETE rewrites the row vector in place).
  /// Conservatively counts as a mutation.
  std::vector<Row>& mutable_rows() {
    Detach();
    version_ = NextTableVersion();
    shape_version_ = version_;
    return *rows_;
  }

  /// Columnar image of this table (relational/column.h): typed column
  /// vectors with null bitmaps, built on first use and cached by version()
  /// so repeated scans of an unchanged table share one image. The returned
  /// snapshot is immutable and outlives subsequent mutations.
  std::shared_ptr<const ColumnarTable> Columnar() const;

  /// Renders an aligned ASCII table (for examples and debugging).
  std::string ToDisplayString(size_t max_rows = 100) const;

 private:
  /// Gives this table private row storage and a private columnar cache
  /// when a copy still shares them. One relaxed load when already private.
  void Detach() {
    if (rows_.use_count() != 1) CopyRows();
  }
  void CopyRows();

  std::string name_;
  Schema schema_;
  std::shared_ptr<std::vector<Row>> rows_ =
      std::make_shared<std::vector<Row>>();
  uint64_t version_ = NextTableVersion();
  uint64_t shape_version_ = version_;
  std::shared_ptr<ColumnarCache> columnar_cache_ = MakeColumnarCache();
};

/// Checks that `value` may be stored in a column of type `type`, coercing
/// INTEGER to DOUBLE when needed. Returns the possibly-coerced value.
Result<Value> CoerceValueToColumn(const Value& value, DataType type,
                                  const std::string& column_name);

}  // namespace minerule

#endif  // MINERULE_RELATIONAL_TABLE_H_
