#include "sql/system_tables.h"

#include <algorithm>
#include <map>

#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "sql/statement_registry.h"
#include "sql/statistics.h"

namespace minerule::sql {

namespace {

Schema RunsSchema() {
  return Schema({{"run_id", DataType::kInteger},
                 {"statement", DataType::kString},
                 {"status", DataType::kString},
                 {"threads", DataType::kInteger},
                 {"total_micros", DataType::kInteger},
                 {"rules", DataType::kInteger},
                 {"peak_bytes", DataType::kInteger},
                 {"reused_preprocess", DataType::kBoolean},
                 {"session_id", DataType::kInteger},
                 {"queue_wait_micros", DataType::kInteger},
                 {"admission", DataType::kString}});
}

Schema QueryProfileSchema() {
  return Schema({{"run_id", DataType::kInteger},
                 {"query_id", DataType::kString},
                 {"phase", DataType::kString},
                 {"sql", DataType::kString},
                 {"rows", DataType::kInteger},
                 {"micros", DataType::kInteger},
                 {"operators", DataType::kInteger}});
}

Schema OperatorStatsSchema() {
  return Schema({{"run_id", DataType::kInteger},
                 {"query_id", DataType::kString},
                 {"op", DataType::kString},
                 {"detail", DataType::kString},
                 {"depth", DataType::kInteger},
                 {"rows", DataType::kInteger},
                 {"micros", DataType::kInteger},
                 {"est_bytes", DataType::kInteger},
                 {"workers", DataType::kInteger},
                 {"encoded_keys", DataType::kInteger},
                 {"generic_keys", DataType::kInteger}});
}

Schema MetricsSchema() {
  return Schema({{"name", DataType::kString},
                 {"kind", DataType::kString},
                 {"value", DataType::kDouble},
                 {"count", DataType::kInteger},
                 {"sum", DataType::kDouble},
                 {"p50", DataType::kDouble},
                 {"p95", DataType::kDouble},
                 {"p99", DataType::kDouble}});
}

Schema TableStatsSchema() {
  return Schema({{"table_name", DataType::kString},
                 {"column_name", DataType::kString},
                 {"row_count", DataType::kInteger},
                 {"ndv", DataType::kInteger},
                 {"min_value", DataType::kString},
                 {"max_value", DataType::kString},
                 {"null_frac", DataType::kDouble},
                 {"stats_epoch", DataType::kInteger}});
}

Schema SessionsSchema() {
  return Schema({{"session_id", DataType::kInteger},
                 {"name", DataType::kString},
                 {"uptime_micros", DataType::kInteger},
                 {"statements", DataType::kInteger},
                 {"errors", DataType::kInteger},
                 {"in_flight", DataType::kInteger},
                 {"last_error", DataType::kString}});
}

Schema ActiveStatementsSchema() {
  return Schema({{"statement_id", DataType::kInteger},
                 {"session_id", DataType::kInteger},
                 {"state", DataType::kString},
                 {"class", DataType::kString},
                 {"statement", DataType::kString},
                 {"elapsed_micros", DataType::kInteger},
                 {"queue_wait_micros", DataType::kInteger},
                 {"pinned_epoch", DataType::kInteger}});
}

Schema SlowQueriesSchema() {
  return Schema({{"statement_id", DataType::kInteger},
                 {"session_id", DataType::kInteger},
                 {"statement", DataType::kString},
                 {"class", DataType::kString},
                 {"total_micros", DataType::kInteger},
                 {"queue_wait_micros", DataType::kInteger},
                 {"threshold_micros", DataType::kInteger},
                 {"rows", DataType::kInteger},
                 {"peak_bytes", DataType::kInteger},
                 {"operators", DataType::kString},
                 {"status", DataType::kString}});
}

Schema SpansSchema() {
  return Schema({{"tid", DataType::kInteger},
                 {"thread", DataType::kString},
                 {"name", DataType::kString},
                 {"category", DataType::kString},
                 {"start_micros", DataType::kInteger},
                 {"duration_micros", DataType::kInteger}});
}

std::vector<Row> RunsRows(const std::vector<RunRecord>& runs) {
  std::vector<Row> rows;
  rows.reserve(runs.size());
  for (const RunRecord& run : runs) {
    rows.push_back({Value::Integer(run.run_id), Value::String(run.statement),
                    Value::String(run.status), Value::Integer(run.threads),
                    Value::Integer(run.total_micros),
                    Value::Integer(run.rules), Value::Integer(run.peak_bytes),
                    Value::Boolean(run.reused_preprocess),
                    Value::Integer(run.session_id),
                    Value::Integer(run.queue_wait_micros),
                    Value::String(run.admission)});
  }
  return rows;
}

std::vector<Row> QueryProfileRows(const std::vector<RunRecord>& runs) {
  std::vector<Row> rows;
  for (const RunRecord& run : runs) {
    for (const QueryStat& q : run.queries) {
      rows.push_back({Value::Integer(run.run_id), Value::String(q.id),
                      Value::String(q.phase), Value::String(q.sql),
                      Value::Integer(q.rows), Value::Integer(q.micros),
                      Value::Integer(static_cast<int64_t>(q.operators.size()))});
    }
  }
  return rows;
}

std::vector<Row> OperatorStatsRows(const std::vector<RunRecord>& runs) {
  std::vector<Row> rows;
  for (const RunRecord& run : runs) {
    for (const QueryStat& q : run.queries) {
      for (const OperatorProfile& op : q.operators) {
        rows.push_back({Value::Integer(run.run_id), Value::String(q.id),
                        Value::String(op.name), Value::String(op.detail),
                        Value::Integer(op.depth), Value::Integer(op.rows),
                        Value::Integer(op.micros),
                        Value::Integer(op.Counter("est_bytes")),
                        Value::Integer(op.Counter("workers")),
                        Value::Integer(op.Counter("encoded_keys")),
                        Value::Integer(op.Counter("generic_keys"))});
      }
    }
  }
  return rows;
}

std::vector<Row> MetricsRows() {
  std::vector<Row> rows;
  for (const MetricSample& s : GlobalMetrics().Snapshot()) {
    rows.push_back({Value::String(s.name), Value::String(s.kind),
                    Value::Double(s.value), Value::Integer(s.count),
                    Value::Double(s.sum), Value::Double(s.p50),
                    Value::Double(s.p95), Value::Double(s.p99)});
  }
  return rows;
}

std::vector<Row> TableStatsRows(const StatisticsCatalog* stats) {
  std::vector<Row> rows;
  if (stats == nullptr) return rows;
  for (const auto& [table_name, table_stats] : stats->Entries()) {
    for (size_t c = 0; c < table_stats->columns.size(); ++c) {
      const ColumnStats& col = table_stats->columns[c];
      const std::string column_name =
          c < table_stats->column_names.size() ? table_stats->column_names[c]
                                               : std::to_string(c);
      rows.push_back(
          {Value::String(table_name), Value::String(column_name),
           Value::Integer(table_stats->row_count),
           Value::Integer(static_cast<int64_t>(col.Ndv() + 0.5)),
           col.min_value.is_null() ? Value::Null()
                                   : Value::String(col.min_value.ToString()),
           col.max_value.is_null() ? Value::Null()
                                   : Value::String(col.max_value.ToString()),
           Value::Double(col.NullFraction()),
           Value::Integer(table_stats->epoch)});
    }
  }
  return rows;
}

std::vector<Row> SessionsRows() {
  std::vector<Row> rows;
  for (const SessionSnapshot& s : GlobalStatementRegistry().Sessions()) {
    rows.push_back({Value::Integer(s.session_id), Value::String(s.name),
                    Value::Integer(s.uptime_micros),
                    Value::Integer(s.statements), Value::Integer(s.errors),
                    Value::Integer(s.in_flight),
                    Value::String(s.last_error)});
  }
  return rows;
}

std::vector<Row> ActiveStatementsRows() {
  std::vector<Row> rows;
  for (const ActiveStatementSnapshot& s :
       GlobalStatementRegistry().ActiveStatements()) {
    rows.push_back({Value::Integer(s.statement_id),
                    Value::Integer(s.session_id),
                    Value::String(StatementStateName(s.state)),
                    Value::String(s.statement_class),
                    Value::String(s.statement),
                    Value::Integer(s.elapsed_micros),
                    Value::Integer(s.queue_wait_micros),
                    Value::Integer(s.pinned_epoch)});
  }
  return rows;
}

std::vector<Row> SlowQueriesRows() {
  std::vector<Row> rows;
  for (const SlowQueryRecord& s : GlobalStatementRegistry().SlowQueries()) {
    rows.push_back({Value::Integer(s.statement_id),
                    Value::Integer(s.session_id), Value::String(s.statement),
                    Value::String(s.statement_class),
                    Value::Integer(s.total_micros),
                    Value::Integer(s.queue_wait_micros),
                    Value::Integer(s.threshold_micros),
                    Value::Integer(s.rows), Value::Integer(s.peak_bytes),
                    Value::String(s.operators), Value::String(s.status)});
  }
  return rows;
}

std::vector<Row> SpansRows() {
  SpanTracer& tracer = GlobalTracer();
  std::map<int, std::string> names;
  for (const auto& [tid, name] : tracer.Threads()) names[tid] = name;
  std::vector<Row> rows;
  for (const SpanEvent& span : tracer.Snapshot()) {
    auto it = names.find(span.tid);
    rows.push_back(
        {Value::Integer(span.tid),
         Value::String(it == names.end() ? std::string() : it->second),
         Value::String(span.name), Value::String(span.category),
         Value::Integer(span.start_micros),
         Value::Integer(span.duration_micros)});
  }
  return rows;
}

}  // namespace

int64_t ObservabilityRegistry::RecordRun(RunRecord run) {
  std::lock_guard<std::mutex> lock(mutex_);
  run.run_id = ++recorded_;
  runs_.push_back(std::move(run));
  while (runs_.size() > kRunCapacity) runs_.pop_front();
  return recorded_;
}

std::vector<RunRecord> ObservabilityRegistry::Runs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {runs_.begin(), runs_.end()};
}

int64_t ObservabilityRegistry::run_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recorded_;
}

void ObservabilityRegistry::ResetForTesting() {
  std::lock_guard<std::mutex> lock(mutex_);
  runs_.clear();
  recorded_ = 0;
}

ObservabilityRegistry& GlobalObservability() {
  static ObservabilityRegistry* registry = new ObservabilityRegistry();
  return *registry;
}

const std::vector<std::string>& SystemTableNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "mr_runs",        "mr_query_profile",     "mr_operator_stats",
      "mr_metrics",     "mr_trace_spans",       "mr_table_stats",
      "mr_sessions",    "mr_active_statements", "mr_slow_queries"};
  return *names;
}

bool IsSystemTable(const std::string& name) {
  const std::string lower = ToLower(name);
  const auto& names = SystemTableNames();
  return std::find(names.begin(), names.end(), lower) != names.end();
}

Result<Schema> SystemTableSchema(const std::string& name) {
  const std::string lower = ToLower(name);
  if (lower == "mr_runs") return RunsSchema();
  if (lower == "mr_query_profile") return QueryProfileSchema();
  if (lower == "mr_operator_stats") return OperatorStatsSchema();
  if (lower == "mr_metrics") return MetricsSchema();
  if (lower == "mr_trace_spans") return SpansSchema();
  if (lower == "mr_table_stats") return TableStatsSchema();
  if (lower == "mr_sessions") return SessionsSchema();
  if (lower == "mr_active_statements") return ActiveStatementsSchema();
  if (lower == "mr_slow_queries") return SlowQueriesSchema();
  return Status::NotFound("not a system table: " + name);
}

Result<std::pair<Schema, std::vector<Row>>> MaterializeSystemTable(
    const std::string& name, const StatisticsCatalog* stats) {
  MR_ASSIGN_OR_RETURN(Schema schema, SystemTableSchema(name));
  const std::string lower = ToLower(name);
  std::vector<Row> rows;
  if (lower == "mr_metrics") {
    rows = MetricsRows();
  } else if (lower == "mr_trace_spans") {
    rows = SpansRows();
  } else if (lower == "mr_table_stats") {
    rows = TableStatsRows(stats);
  } else if (lower == "mr_sessions") {
    rows = SessionsRows();
  } else if (lower == "mr_active_statements") {
    rows = ActiveStatementsRows();
  } else if (lower == "mr_slow_queries") {
    rows = SlowQueriesRows();
  } else {
    const std::vector<RunRecord> runs = GlobalObservability().Runs();
    if (lower == "mr_runs") {
      rows = RunsRows(runs);
    } else if (lower == "mr_query_profile") {
      rows = QueryProfileRows(runs);
    } else {
      rows = OperatorStatsRows(runs);
    }
  }
  return std::make_pair(std::move(schema), std::move(rows));
}

}  // namespace minerule::sql
