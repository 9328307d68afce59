#ifndef MINERULE_SQL_SYSTEM_TABLES_H_
#define MINERULE_SQL_SYSTEM_TABLES_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "relational/schema.h"
#include "sql/operators.h"

namespace minerule::sql {

// ---------------------------------------------------------------------------
// Queryable telemetry (DESIGN.md §11, §16): nine virtual mr_* tables
// materialized on scan from the process-wide registries, so the embedded SQL
// engine can query its own execution history — the same tight coupling the
// paper argues for applied to the system's introspection:
//
//   SELECT * FROM mr_query_profile WHERE query_id = 'Q4' ORDER BY rows DESC;
//   SELECT session_id, state FROM mr_active_statements;   -- live (§16)
//
// mr_sessions, mr_active_statements and mr_slow_queries materialize from the
// statement lifecycle registry (sql/statement_registry.h) the server session
// layer maintains. A catalog table or view with the same name shadows the
// system table, so existing workloads can never break.
// ---------------------------------------------------------------------------

/// One MINE RULE execution recorded by DataMiningSystem, or one SQL
/// statement recorded by a server session.
struct RunRecord {
  int64_t run_id = 0;  // assigned by ObservabilityRegistry::RecordRun
  std::string statement;
  std::string status = "ok";  // "ok" or the failing phase's error message
  int threads = 1;
  int64_t total_micros = 0;
  int64_t rules = 0;       // rules in the output table
  int64_t peak_bytes = 0;  // estimated peak working-set bytes of the run
  bool reused_preprocess = false;
  /// Server-session attribution (DESIGN.md §15). Library runs outside a
  /// session carry session 0 with an empty admission decision.
  int64_t session_id = 0;
  int64_t queue_wait_micros = 0;
  std::string admission;  // "", "immediate" or "queued"
  std::vector<QueryStat> queries;  // preprocess, then postprocess
};

/// Process-wide run history behind mr_runs / mr_query_profile /
/// mr_operator_stats: a ring of the newest kRunCapacity runs. Leaked like
/// the shared thread pool.
class ObservabilityRegistry {
 public:
  /// Runs kept; older runs are evicted in FIFO order.
  static constexpr size_t kRunCapacity = 1024;

  ObservabilityRegistry() = default;
  ObservabilityRegistry(const ObservabilityRegistry&) = delete;
  ObservabilityRegistry& operator=(const ObservabilityRegistry&) = delete;

  /// Appends the run and returns its assigned run_id (1-based, dense).
  int64_t RecordRun(RunRecord run);

  /// The runs still in the ring, oldest first.
  std::vector<RunRecord> Runs() const;
  /// Runs ever recorded, including ones evicted from the ring.
  int64_t run_count() const;

  /// Drops the history. Tests only.
  void ResetForTesting();

 private:
  mutable std::mutex mutex_;
  std::deque<RunRecord> runs_;
  int64_t recorded_ = 0;
};

ObservabilityRegistry& GlobalObservability();

/// True for the nine mr_* system tables (case-insensitive).
bool IsSystemTable(const std::string& name);

/// The system-table names in display order.
const std::vector<std::string>& SystemTableNames();

/// Schema of a system table; NotFound for other names.
Result<Schema> SystemTableSchema(const std::string& name);

/// Materializes the current contents of a system table. Row order is
/// deterministic: history tables in run order, mr_metrics sorted by name,
/// mr_trace_spans in (tid, record order), mr_table_stats in (table, column
/// position) order, mr_sessions in session-id order, mr_active_statements
/// in statement-id order, mr_slow_queries oldest first. `stats` feeds
/// mr_table_stats — it shows the entries ANALYZE created in the engine's
/// statistics catalog;
/// null yields an empty table, never an error.
Result<std::pair<Schema, std::vector<Row>>> MaterializeSystemTable(
    const std::string& name, const class StatisticsCatalog* stats = nullptr);

}  // namespace minerule::sql

#endif  // MINERULE_SQL_SYSTEM_TABLES_H_
