#ifndef MINERULE_SQL_EXPR_EVAL_H_
#define MINERULE_SQL_EXPR_EVAL_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/catalog.h"
#include "relational/column.h"
#include "relational/schema.h"
#include "sql/ast.h"

namespace minerule::sql {

/// Host variables (":totg"-style) live for the duration of an engine
/// session; keys are stored lower-case.
using HostVarMap = std::map<std::string, Value>;

/// Per-query evaluation context shared by all operators in a plan.
struct ExecContext {
  Catalog* catalog = nullptr;     // for <seq>.NEXTVAL
  HostVarMap* host_vars = nullptr;

  /// Worker threads for morsel-driven execution (DESIGN.md §9): <= 0 means
  /// hardware concurrency, 1 is the exact serial path. Operators read this
  /// at Open(); the plan shape never depends on it.
  int num_threads = 1;

  /// Memory budget in bytes for operator working sets (DESIGN.md §13).
  /// < 0 (the default) disables the budget entirely. >= 0 makes the
  /// buffering operators — hash-join build, aggregation, sort — run their
  /// budgeted serial paths and spill to disk once their accounted working
  /// set exceeds the budget (0 therefore spills everything). Results are
  /// bit-identical to unbudgeted execution at every thread count; the
  /// budget governs working sets, not the delivered result set. Without a
  /// budget, base-table scans serve the table's cached columnar image
  /// (DESIGN.md §12); under one the image is never built.
  int64_t memory_limit = -1;

  /// Directory for spill files; empty means $TMPDIR (or /tmp). Spill files
  /// are created with mkstemp and unlinked immediately, so they never
  /// outlive the process even on a crash.
  std::string spill_dir;

  /// Catalog statistics and observed-cardinality feedback, owned by the
  /// engine. The planner plans a FROM list from them only when ANALYZE
  /// created statistics for every entry (DESIGN.md §14); null `stats`
  /// keeps every plan in FROM order.
  class StatisticsCatalog* stats = nullptr;
  class PlanFeedback* feedback = nullptr;

  /// Spill partition fan-out for the budgeted operators. The default is the
  /// historical kSpillPartitions; over analyzed tables the planner sizes
  /// it from their collected bytes vs the budget. Any value yields
  /// bit-identical results — every spill path restores output order from
  /// recorded input indexes, independent of partitioning (DESIGN.md §13).
  size_t spill_partitions = 16;
};

/// A joined row that is never built: the left input's columns followed by
/// the right input's, read in place. Joins evaluate their residual
/// predicates on this view and concatenate only the pairs that pass.
struct JoinedRow {
  const Row& left;
  const Row& right;

  size_t size() const { return left.size() + right.size(); }
  const Value& operator[](size_t i) const {
    return i < left.size() ? left[i] : right[i - left.size()];
  }
};

/// A row read in place from column vectors (DESIGN.md §12): row `row` of
/// `columns`, followed — for a join pair — by row `right_row` of `*right`.
/// Batch operators evaluate expressions on it without building a Row.
struct ColumnRow {
  using Columns = std::vector<std::shared_ptr<const ColumnVector>>;
  const Columns& columns;
  uint32_t row;
  const Columns* right = nullptr;
  uint32_t right_row = 0;

  size_t size() const {
    return columns.size() + (right != nullptr ? right->size() : 0);
  }
  Value operator[](size_t i) const {
    return i < columns.size() ? columns[i]->GetValue(row)
                              : (*right)[i - columns.size()]->GetValue(
                                    right_row);
  }
};

/// Evaluates a *bound* expression against `row`. SQL three-valued logic:
/// comparisons and arithmetic over NULL yield NULL; AND/OR follow Kleene
/// semantics. Aggregate nodes are a hard error here — the planner rewrites
/// them to slot references before evaluation.
Result<Value> EvalExpr(const Expr& expr, const Row& row, ExecContext* ctx);

/// Evaluates a predicate: NULL and FALSE both reject the row (SQL WHERE
/// semantics). Non-boolean results are a type error.
Result<bool> EvalPredicate(const Expr& expr, const Row& row, ExecContext* ctx);

/// The same evaluation over a join pair, bound against the joined layout.
Result<Value> EvalExpr(const Expr& expr, const JoinedRow& row,
                       ExecContext* ctx);
Result<bool> EvalPredicate(const Expr& expr, const JoinedRow& row,
                           ExecContext* ctx);

/// The same evaluation over a row of column vectors.
Result<Value> EvalExpr(const Expr& expr, const ColumnRow& row,
                       ExecContext* ctx);
Result<bool> EvalPredicate(const Expr& expr, const ColumnRow& row,
                           ExecContext* ctx);

}  // namespace minerule::sql

#endif  // MINERULE_SQL_EXPR_EVAL_H_
