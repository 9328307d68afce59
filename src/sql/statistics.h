#ifndef MINERULE_SQL_STATISTICS_H_
#define MINERULE_SQL_STATISTICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "relational/table.h"
#include "relational/value.h"

namespace minerule::sql {

/// HyperLogLog-style distinct-value sketch (DESIGN.md §14). 2^12 = 4096
/// registers give a ~1.6% standard error; the estimator switches to linear
/// counting in the small-cardinality range, so tiny tables get near-exact
/// NDVs (the EXPLAIN goldens rely on that). Adding is order-independent and
/// Merge is a register-wise max, so the sketch is associative and
/// deterministic regardless of how rows are partitioned across collectors.
class NdvSketch {
 public:
  static constexpr int kPrecision = 12;
  static constexpr size_t kRegisters = size_t{1} << kPrecision;

  NdvSketch() : registers_(kRegisters, 0) {}

  /// Values hash through Value::Hash plus a 64-bit finalizer; NULLs are the
  /// caller's concern (column stats count them separately).
  void Add(const Value& v) { AddHash(MixHash(v.Hash())); }
  void AddHash(uint64_t hash);

  /// Register-wise max: Merge(a, b) == Merge(b, a) and folding a row stream
  /// in any split equals folding it whole.
  void Merge(const NdvSketch& other);

  double Estimate() const;

  const std::vector<uint8_t>& registers() const { return registers_; }

  /// splitmix64 finalizer: Value::Hash may be close to identity for small
  /// integers (libstdc++), which would starve the leading-zero ranks.
  static uint64_t MixHash(uint64_t h);

 private:
  std::vector<uint8_t> registers_;
};

/// Per-column statistics: NDV sketch, null count, and min/max over the
/// non-null values (Value total order).
struct ColumnStats {
  NdvSketch sketch;
  int64_t null_count = 0;
  int64_t non_null_count = 0;
  Value min_value;  // NULL until a non-null value is seen
  Value max_value;

  void AddValue(const Value& v);

  /// Estimated distinct count, clamped to [min(1, non_null), non_null].
  double Ndv() const;
  double NullFraction() const {
    const int64_t rows = null_count + non_null_count;
    return rows == 0 ? 0.0 : static_cast<double>(null_count) / rows;
  }
};

/// Statistics for one table at one point in its modification history.
struct TableStats {
  int64_t row_count = 0;
  int64_t total_row_bytes = 0;  // rough payload estimate, for spill sizing
  /// Bumped every time the entry is built or extended; surfaces in
  /// mr_table_stats so tests can observe collection happening.
  int64_t epoch = 0;
  std::vector<ColumnStats> columns;
  /// Parallel to `columns`; snapshotted at collection time so mr_table_stats
  /// can render without re-resolving the table.
  std::vector<std::string> column_names;

  double AvgRowBytes() const {
    return row_count == 0 ? 0.0
                          : static_cast<double>(total_row_bytes) / row_count;
  }
};

/// Per-table statistics owned by the SqlEngine (DESIGN.md §14). Only ANALYZE
/// creates an entry; planning merely looks entries up. An entry belongs to
/// the table object ANALYZE saw, so a dropped-and-recreated table of the
/// same name has none until it is analyzed again. Lookups keep an entry
/// current against the table's modification epochs: identical version ->
/// the entry is exact; identical shape_version with more rows -> only
/// appends happened since, so the new suffix is folded into the sketches
/// incrementally; anything else -> full rebuild.
class StatisticsCatalog {
 public:
  /// Up-to-date statistics for `table`, or null when ANALYZE never saw this
  /// table object. The pointer stays valid until the next Lookup or
  /// Analyze touching the same table name.
  const TableStats* Lookup(const Table& table);

  /// Full rebuild regardless of cache state (the ANALYZE statement); the
  /// entry is bound to `table`'s object from here on.
  const TableStats* Analyze(const std::shared_ptr<const Table>& table);

  /// Analyzed entries, name-sorted; feeds the mr_table_stats system table.
  std::vector<std::pair<std::string, const TableStats*>> Entries() const;

 private:
  struct Entry {
    std::weak_ptr<const Table> table;  // the object ANALYZE saw
    uint64_t version = 0;
    uint64_t shape_version = 0;
    int64_t rows_covered = 0;
    TableStats stats;
  };

  /// Folds rows [begin, end) of `table` into `entry`.
  static void FoldRows(const Table& table, size_t begin, size_t end,
                       Entry* entry);
  /// Recollects `entry` from all of `table`'s rows.
  static void Rebuild(const Table& table, Entry* entry);

  std::map<std::string, Entry> entries_;
};

/// Observed-cardinality feedback keyed by plan fingerprints (DESIGN.md §14).
/// The planner records each executed scan chain and join with the number of
/// rows it actually produced; on the next planning of the same shape the
/// observation overrides the formula-based estimate. Fingerprints embed the
/// per-table modification versions, so DML invalidates stale observations
/// automatically.
class PlanFeedback {
 public:
  void Record(const std::string& fingerprint, int64_t rows);

  /// Observed row count for the fingerprint, or -1 when never observed.
  int64_t Lookup(const std::string& fingerprint) const;

  size_t size() const { return observed_.size(); }
  void Clear() { observed_.clear(); }

 private:
  /// Stale fingerprints (dead table versions) accumulate; past the cap the
  /// store is dropped wholesale — estimates degrade to formula-only until
  /// re-observed, which never changes results, only plans.
  static constexpr size_t kMaxEntries = 1 << 13;

  std::unordered_map<std::string, int64_t> observed_;
};

}  // namespace minerule::sql

#endif  // MINERULE_SQL_STATISTICS_H_
