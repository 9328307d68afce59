#ifndef MINERULE_SQL_ENGINE_H_
#define MINERULE_SQL_ENGINE_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "relational/catalog.h"
#include "sql/expr_eval.h"
#include "sql/operators.h"
#include "sql/statistics.h"

namespace minerule::sql {

/// The result of executing one statement. SELECTs fill schema/rows; DML
/// fills affected_rows; DDL leaves both empty.
struct QueryResult {
  Schema schema;
  std::vector<Row> rows;
  int64_t affected_rows = 0;

  /// Per-operator execution statistics of the plan that produced this
  /// result. Filled for planned statements (SELECT, INSERT ... SELECT,
  /// CREATE TABLE AS) when the engine's collect_operator_stats flag is on,
  /// and always for EXPLAIN ANALYZE.
  std::vector<OperatorProfile> profile;

  /// Aligned ASCII rendering, for examples and debugging.
  std::string ToDisplayString(size_t max_rows = 100) const;
};

/// A SELECT's result as batches in output order (DESIGN.md §12), for
/// in-process consumers that read typed columns instead of Rows.
struct BatchResult {
  Schema schema;
  std::vector<Batch> batches;
};

/// The SQL92-subset server of the tightly-coupled architecture. Everything
/// the paper's preprocessor and postprocessor do goes through this facade as
/// plain SQL text — that is the portability property the architecture is
/// designed around.
///
/// Host variables: `SELECT expr INTO :name ...` stores a scalar; `:name` in
/// any expression reads it back; SetHostVariable seeds values (the
/// preprocessor sets :mingroups this way, as in Appendix A's Q3).
class SqlEngine {
 public:
  explicit SqlEngine(Catalog* catalog);

  SqlEngine(const SqlEngine&) = delete;
  SqlEngine& operator=(const SqlEngine&) = delete;

  /// Executes a single SQL statement.
  Result<QueryResult> Execute(std::string_view sql);

  /// Executes one SELECT (no INTO) and returns its result as batches
  /// rather than Rows. A budgeted plan's row result arrives as its drained
  /// rows encoded morsel by morsel.
  Result<BatchResult> ExecuteBatches(std::string_view select_sql);

  /// Executes a ';'-separated script; returns the last statement's result.
  Result<QueryResult> ExecuteScript(std::string_view sql);

  void SetHostVariable(const std::string& name, Value value);
  Result<Value> GetHostVariable(const std::string& name) const;

  /// When on, planned statements fill QueryResult::profile with row counts
  /// per operator (cheap: one increment per row; no timing). EXPLAIN
  /// ANALYZE additionally enables per-operator timing for its own plan.
  void set_collect_operator_stats(bool on) { collect_operator_stats_ = on; }
  bool collect_operator_stats() const { return collect_operator_stats_; }

  /// Worker threads for morsel-driven query execution (DESIGN.md §9).
  /// 1 (the default) is the exact serial path; <= 0 means hardware
  /// concurrency. Results are bit-identical at every setting — the plan
  /// shape never depends on it, only how operators execute.
  void set_num_threads(int num_threads) { num_threads_ = num_threads; }
  int num_threads() const { return num_threads_; }

  /// Memory budget in bytes for operator working sets (DESIGN.md §13).
  /// < 0 (the default) disables the budget; >= 0 makes the buffering
  /// operators — hash-join build, aggregation, sort — spill to disk once
  /// their accounted working set exceeds it (0 spills everything). The
  /// budget also selects how scans make batches: unbudgeted, a scan serves
  /// its table's cached columnar image (DESIGN.md §12); budgeted, it never
  /// builds the image, and a serial plan runs on rows into the spill
  /// operators. Results are
  /// bit-identical to unbudgeted execution at every thread count. The
  /// constructor seeds this from the MINERULE_MEMORY_LIMIT environment
  /// variable when it is set, so whole test suites can be rerun under a
  /// tiny budget without touching their code.
  void set_memory_limit(int64_t bytes) { memory_limit_ = bytes; }
  int64_t memory_limit() const { return memory_limit_; }

  /// Directory for spill files; empty (the default) means $TMPDIR or /tmp.
  /// Spill files are created with mkstemp and unlinked immediately, so they
  /// never outlive the process even on a crash.
  void set_spill_dir(std::string dir) { spill_dir_ = std::move(dir); }
  const std::string& spill_dir() const { return spill_dir_; }

  /// The engine-owned statistics catalog and plan feedback store. ANALYZE
  /// fills the catalog; the planner plans from statistics only over tables
  /// it analyzed (DESIGN.md §14). Exposed for tests and for mr_table_stats
  /// materialization.
  StatisticsCatalog* statistics() { return &statistics_; }
  PlanFeedback* feedback() { return &feedback_; }

  Catalog* catalog() { return catalog_; }

 private:
  /// Builds the per-statement execution context for planned statements.
  ExecContext MakeContext();
  /// Feeds observed operator cardinalities back into feedback_ after a
  /// planned statement ran to completion.
  void RecordFeedback(const struct PlannedSelect& planned);

  Result<QueryResult> ExecuteStatement(struct Statement* stmt);
  Result<QueryResult> ExecuteSelect(struct SelectStmt* stmt);
  Result<QueryResult> ExecuteCreateTable(struct CreateTableStmt* stmt);
  Result<QueryResult> ExecuteCreateView(struct CreateViewStmt* stmt);
  Result<QueryResult> ExecuteCreateSequence(struct CreateSequenceStmt* stmt);
  Result<QueryResult> ExecuteDrop(struct DropStmt* stmt);
  Result<QueryResult> ExecuteInsert(struct InsertStmt* stmt);
  Result<QueryResult> ExecuteDelete(struct DeleteStmt* stmt);
  Result<QueryResult> ExecuteUpdate(struct UpdateStmt* stmt);
  Result<QueryResult> ExecuteExplain(struct ExplainStmt* stmt);
  Result<QueryResult> ExecuteAnalyze(struct AnalyzeStmt* stmt);

  Catalog* catalog_;
  HostVarMap host_vars_;
  bool collect_operator_stats_ = false;
  int num_threads_ = 1;
  int64_t memory_limit_ = -1;  // < 0 disables the budget
  std::string spill_dir_;      // empty means $TMPDIR or /tmp
  StatisticsCatalog statistics_;
  PlanFeedback feedback_;
};

}  // namespace minerule::sql

#endif  // MINERULE_SQL_ENGINE_H_
