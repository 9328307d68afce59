#ifndef MINERULE_RELATIONAL_TABLE_H_
#define MINERULE_RELATIONAL_TABLE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/column.h"
#include "relational/schema.h"

namespace minerule {

/// Returns a process-unique, monotonically increasing version stamp. Every
/// table mutation takes a fresh one, so "same name, same version" implies
/// identical contents — even across a DROP + re-CREATE of the name.
uint64_t NextTableVersion();

/// Version-keyed cache behind Table::Columnar(); defined in column.cc. Held
/// by shared_ptr so a Table copy shares the original's image until either
/// side mutates (entries are keyed by the process-unique version stamp).
class ColumnarCache;
std::shared_ptr<ColumnarCache> MakeColumnarCache();

/// An in-memory relation. Its storage of record is either rows or typed
/// columns (DESIGN.md §12): an unbudgeted INSERT ... SELECT into an empty
/// table stores the columns it produced (StoreColumns), and the rows are
/// then built from them on first use. Every mutator first materializes the
/// rows, and from then on the table is row-stored. Tables are owned by the
/// Catalog and referenced by shared_ptr so query results can outlive DDL.
///
/// Storage is copy-on-write: copying a Table is O(1) and shares the stored
/// rows or columns, the lazily built rows and the columnar image with the
/// original, and every mutator detaches first, so a copy is an immutable
/// snapshot of the contents at its version() (the server mines on such
/// snapshots; DESIGN.md §15). Readers of a copy need no latch once it is
/// taken — rows built from stored columns are built once under a
/// std::call_once that all sharing copies see; the copy itself must be
/// taken, and released, while no writer mutates the original.
class Table {
 public:
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const {
    return storage_->columns != nullptr ? storage_->columns->num_rows
                                        : storage_->rows.size();
  }
  /// The rows; built from the columns of record on the first call.
  const std::vector<Row>& rows() const {
    if (storage_->columns != nullptr) BuildRows();
    return storage_->rows;
  }
  const Row& row(size_t i) const { return rows()[i]; }

  /// True while columns are the storage of record: since StoreColumns, no
  /// mutator has run.
  bool column_stored() const { return storage_->columns != nullptr; }

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
    storage_->rows.push_back(std::move(row));
    version_ = NextTableVersion();
  }

  /// Makes `columns` the storage of record of this table when it is empty
  /// and they hold exactly what Append would have stored: this table's
  /// schema, and every column typed (not kGeneric) under its column's
  /// declared type. Returns false, changing nothing, otherwise. Counts as appends: bumps
  /// version() but not shape_version().
  bool StoreColumns(std::shared_ptr<const ColumnarTable> columns);

  void Clear();
  void Reserve(size_t n) {
    Detach();
    storage_->rows.reserve(n);
  }

  /// Direct row access for DML (DELETE rewrites the row vector in place).
  /// Conservatively counts as a mutation.
  std::vector<Row>& mutable_rows() {
    Detach();
    version_ = NextTableVersion();
    shape_version_ = version_;
    return storage_->rows;
  }

  /// Columnar image of this table (relational/column.h): the columns of
  /// record of a column-stored table; otherwise typed column vectors with
  /// null bitmaps, built from the rows on first use and cached by version()
  /// so repeated scans of an unchanged table share one image. The returned
  /// snapshot is immutable and outlives subsequent mutations.
  std::shared_ptr<const ColumnarTable> Columnar() const;

  /// Renders an aligned ASCII table (for examples and debugging).
  std::string ToDisplayString(size_t max_rows = 100) const;

 private:
  /// The storage of record, shared by copies until one of them mutates.
  /// With `columns` set, `rows` is built from them once, on first read.
  struct Storage {
    std::shared_ptr<const ColumnarTable> columns;
    std::once_flag rows_built;
    std::vector<Row> rows;
  };

  /// Gives this table private, row-stored storage (and a private columnar
  /// cache) when a copy still shares it or columns are stored. One relaxed
  /// load and one test when already private and row-stored.
  void Detach() {
    if (storage_.use_count() != 1 || storage_->columns != nullptr) {
      MaterializeRows();
    }
  }
  void MaterializeRows();
  /// Builds the rows from the columns of record, once per storage.
  void BuildRows() const;

  std::string name_;
  Schema schema_;
  std::shared_ptr<Storage> storage_ = std::make_shared<Storage>();
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
