// The queryable-telemetry layer (DESIGN.md §11): mr_* system tables
// materialized from the process-wide registries, run recording in
// DataMiningSystem, Chrome trace-span export, and the guarantee that none
// of it changes mining results.

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "datagen/retail_gen.h"
#include "engine/data_mining_system.h"
#include "sql/system_tables.h"

namespace minerule {
namespace {

const char* kSimpleStatement =
    "MINE RULE Basket AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS "
    "HEAD, SUPPORT, CONFIDENCE FROM Purchase GROUP BY customer "
    "EXTRACTING RULES WITH SUPPORT: 0.15, CONFIDENCE: 0.3";

class SystemTablesTest : public ::testing::Test {
 protected:
  SystemTablesTest() : system_(&catalog_) {
    sql::GlobalObservability().ResetForTesting();
  }

  void SetUpRetail() {
    datagen::RetailParams params;
    params.num_customers = 40;
    params.num_items = 40;
    auto table = datagen::GenerateRetailTable(&catalog_, "Purchase", params);
    ASSERT_TRUE(table.ok()) << table.status();
  }

  sql::QueryResult MustSql(const std::string& sql) {
    auto result = system_.ExecuteSql(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    return result.ok() ? std::move(result).value() : sql::QueryResult{};
  }

  mr::MiningRunStats MustMine(const std::string& statement,
                              const mr::MiningOptions& options = {}) {
    auto stats = system_.ExecuteMineRule(statement, options);
    EXPECT_TRUE(stats.ok()) << stats.status();
    return stats.ok() ? std::move(stats).value() : mr::MiningRunStats{};
  }

  Catalog catalog_;
  mr::DataMiningSystem system_;
};

std::string ColumnNames(const Schema& schema) {
  std::string names;
  for (const Column& col : schema.columns()) {
    if (!names.empty()) names += ",";
    names += col.name;
  }
  return names;
}

// The nine schemas are part of the public surface: pinned as goldens.
TEST_F(SystemTablesTest, SchemasGolden) {
  EXPECT_EQ(sql::SystemTableNames(),
            (std::vector<std::string>{
                "mr_runs", "mr_query_profile", "mr_operator_stats",
                "mr_metrics", "mr_trace_spans", "mr_table_stats", "mr_sessions",
                "mr_active_statements", "mr_slow_queries"}));
  auto names = [](const std::string& table) {
    auto schema = sql::SystemTableSchema(table);
    EXPECT_TRUE(schema.ok()) << schema.status();
    return schema.ok() ? ColumnNames(schema.value()) : std::string();
  };
  EXPECT_EQ(names("mr_runs"),
            "run_id,statement,status,threads,total_micros,rules,peak_bytes,"
            "reused_preprocess,session_id,queue_wait_micros,admission");
  EXPECT_EQ(names("mr_query_profile"),
            "run_id,query_id,phase,sql,rows,micros,operators");
  EXPECT_EQ(names("mr_operator_stats"),
            "run_id,query_id,op,detail,depth,rows,micros,est_bytes,workers,"
            "encoded_keys,generic_keys");
  EXPECT_EQ(names("mr_metrics"), "name,kind,value,count,sum,p50,p95,p99");
  EXPECT_EQ(names("mr_trace_spans"),
            "tid,thread,name,category,start_micros,duration_micros");
  EXPECT_EQ(names("mr_table_stats"),
            "table_name,column_name,row_count,ndv,min_value,max_value,"
            "null_frac,stats_epoch");
  EXPECT_EQ(names("mr_sessions"),
            "session_id,name,uptime_micros,statements,errors,in_flight,"
            "last_error");
  EXPECT_EQ(names("mr_active_statements"),
            "statement_id,session_id,state,class,statement,elapsed_micros,"
            "queue_wait_micros,pinned_epoch");
  EXPECT_EQ(names("mr_slow_queries"),
            "statement_id,session_id,statement,class,total_micros,"
            "queue_wait_micros,threshold_micros,rows,peak_bytes,operators,"
            "status");

  EXPECT_TRUE(sql::IsSystemTable("mr_runs"));
  EXPECT_TRUE(sql::IsSystemTable("MR_RUNS"));  // case-insensitive
  EXPECT_FALSE(sql::IsSystemTable("mr_nope"));
  EXPECT_FALSE(sql::SystemTableSchema("mr_nope").ok());
}

// Before any run, the history tables scan empty but the scans succeed.
TEST_F(SystemTablesTest, EmptyHistoryScansSucceed) {
  for (const std::string& table : sql::SystemTableNames()) {
    sql::QueryResult result = MustSql("SELECT * FROM " + table);
    if (table == "mr_runs" || table == "mr_query_profile" ||
        table == "mr_operator_stats") {
      EXPECT_TRUE(result.rows.empty()) << table;
    }
  }
}

TEST_F(SystemTablesTest, MineRuleRunIsQueryable) {
  SetUpRetail();
  mr::MiningRunStats stats = MustMine(kSimpleStatement);
  EXPECT_EQ(stats.run_id, 1);
  EXPECT_GT(stats.peak_bytes, 0);

  // mr_runs: exactly one row, matching the run stats.
  sql::QueryResult runs = MustSql("SELECT * FROM mr_runs");
  ASSERT_EQ(runs.rows.size(), 1u);
  EXPECT_EQ(runs.rows[0][0].AsInteger(), 1);  // run_id
  EXPECT_NE(runs.rows[0][1].AsString().find("MINE RULE Basket"),
            std::string::npos);
  EXPECT_EQ(runs.rows[0][2].AsString(), "ok");
  EXPECT_EQ(runs.rows[0][5].AsInteger(), stats.output.num_rules);

  // mr_query_profile: one row per recorded query, and the headline query
  // from the design doc works.
  const size_t expected = stats.preprocess_queries.size() +
                          stats.postprocess_queries.size();
  sql::QueryResult profile = MustSql("SELECT * FROM mr_query_profile");
  EXPECT_EQ(profile.rows.size(), expected);
  sql::QueryResult q4 = MustSql(
      "SELECT * FROM mr_query_profile WHERE query_id = 'Q4' "
      "ORDER BY rows DESC");
  ASSERT_EQ(q4.rows.size(), 1u);  // simple class emits exactly one Q4
  EXPECT_EQ(q4.rows[0][2].AsString(), "preprocess");

  // mr_operator_stats row count equals the sum of the per-query operator
  // counts that mr_query_profile reports.
  sql::QueryResult op_total =
      MustSql("SELECT SUM(operators) FROM mr_query_profile");
  sql::QueryResult op_rows = MustSql("SELECT COUNT(*) FROM mr_operator_stats");
  EXPECT_EQ(op_rows.rows[0][0].AsInteger(), op_total.rows[0][0].AsInteger());

  // mr_operator_stats shows which KeyIndex path each hash operator took:
  // Q3's DISTINCT over the string (item, customer) pairs falls back, Q4's
  // DISTINCT over the integer (Gid, Bid) codes encodes.
  sql::QueryResult q3 = MustSql(
      "SELECT SUM(encoded_keys), SUM(generic_keys) FROM mr_operator_stats "
      "WHERE query_id = 'Q3' AND op = 'Distinct'");
  EXPECT_EQ(q3.rows[0][0].AsInteger(), 0);
  EXPECT_GT(q3.rows[0][1].AsInteger(), 0);
  sql::QueryResult q4_keys = MustSql(
      "SELECT SUM(encoded_keys), SUM(generic_keys) FROM mr_operator_stats "
      "WHERE query_id = 'Q4' AND op = 'Distinct'");
  EXPECT_GT(q4_keys.rows[0][0].AsInteger(), 0);
  EXPECT_EQ(q4_keys.rows[0][1].AsInteger(), 0);

  // Engine counters made it into mr_metrics.
  sql::QueryResult metric = MustSql(
      "SELECT value FROM mr_metrics WHERE name = 'engine.runs'");
  ASSERT_EQ(metric.rows.size(), 1u);
  EXPECT_GE(metric.rows[0][0].AsDouble(), 1.0);
}

// mr_query_profile agrees with what EXPLAIN ANALYZE reports for the same
// query: the root (depth 0) operator saw exactly the rows the query
// returned or inserted. Ids like Q3 label two queries, so the pairing is
// by record order within a query_id, not a SQL join.
TEST_F(SystemTablesTest, OperatorStatsConsistentWithProfiles) {
  SetUpRetail();
  MustMine(kSimpleStatement);
  sql::QueryResult profile = MustSql(
      "SELECT query_id, rows, operators FROM mr_query_profile");
  sql::QueryResult roots = MustSql(
      "SELECT query_id, rows FROM mr_operator_stats WHERE depth = 0");
  ASSERT_FALSE(roots.rows.empty());
  std::map<std::string, std::vector<int64_t>> expected;
  for (const Row& row : profile.rows) {
    if (row[2].AsInteger() == 0) continue;  // DDL: no plan, no root
    expected[row[0].AsString()].push_back(row[1].AsInteger());
  }
  std::map<std::string, std::vector<int64_t>> actual;
  for (const Row& row : roots.rows) {
    actual[row[0].AsString()].push_back(row[1].AsInteger());
  }
  EXPECT_EQ(actual, expected);
}

TEST_F(SystemTablesTest, FailedRunIsRecorded) {
  SetUpRetail();
  auto stats = system_.ExecuteMineRule(
      "MINE RULE Bad AS SELECT DISTINCT 1..n nope AS BODY, 1..1 nope AS "
      "HEAD, SUPPORT, CONFIDENCE FROM Purchase GROUP BY customer "
      "EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1");
  ASSERT_FALSE(stats.ok());
  sql::QueryResult runs =
      MustSql("SELECT status FROM mr_runs WHERE status <> 'ok'");
  ASSERT_EQ(runs.rows.size(), 1u);
  EXPECT_FALSE(runs.rows[0][0].AsString().empty());
  EXPECT_EQ(sql::GlobalObservability().run_count(), 1);
}

// A statement the MINE RULE parser rejects still appends its one mr_runs
// row, with the raw text and the parse error as its status.
TEST_F(SystemTablesTest, ParseFailureIsRecorded) {
  auto stats = system_.ExecuteMineRule("MINE RULE nope AS SELECT");
  ASSERT_FALSE(stats.ok());
  sql::QueryResult runs = MustSql("SELECT statement, status FROM mr_runs");
  ASSERT_EQ(runs.rows.size(), 1u);
  EXPECT_EQ(runs.rows[0][0].AsString(), "MINE RULE nope AS SELECT");
  EXPECT_NE(runs.rows[0][1].AsString(), "ok");
  EXPECT_EQ(runs.rows[0][1].AsString(), stats.status().ToString());
  EXPECT_EQ(sql::GlobalObservability().run_count(), 1);
}

// A run served from the preprocessing cache reports only the queries that
// ran: its postprocess queries, none of the cached run's Q0..Q11.
TEST_F(SystemTablesTest, ReusedRunReportsNoPreprocessQueries) {
  SetUpRetail();
  mr::MiningOptions options;
  options.reuse_preprocessing = true;
  mr::MiningRunStats fresh = MustMine(kSimpleStatement, options);
  mr::MiningRunStats reused = MustMine(kSimpleStatement, options);
  ASSERT_FALSE(fresh.preprocessing_reused);
  ASSERT_TRUE(reused.preprocessing_reused);
  EXPECT_FALSE(fresh.preprocess_queries.empty());
  EXPECT_TRUE(reused.preprocess_queries.empty());
  EXPECT_FALSE(reused.postprocess_queries.empty());

  auto count = [&](const std::string& sql) {
    return MustSql(sql).rows[0][0].AsInteger();
  };
  const std::string reused_id = std::to_string(reused.run_id);
  EXPECT_GT(count("SELECT COUNT(*) FROM mr_query_profile WHERE run_id = " +
                  std::to_string(fresh.run_id) +
                  " AND phase = 'preprocess'"),
            0);
  EXPECT_EQ(count("SELECT COUNT(*) FROM mr_query_profile WHERE run_id = " +
                  reused_id + " AND phase = 'preprocess'"),
            0);
  EXPECT_EQ(count("SELECT COUNT(*) FROM mr_query_profile WHERE run_id = " +
                  reused_id),
            static_cast<int64_t>(reused.postprocess_queries.size()));
  int64_t postprocess_operators = 0;
  for (const mr::QueryStat& q : reused.postprocess_queries) {
    postprocess_operators += static_cast<int64_t>(q.operators.size());
  }
  EXPECT_EQ(count("SELECT COUNT(*) FROM mr_operator_stats WHERE run_id = " +
                  reused_id),
            postprocess_operators);
}

// The run history is a ring of the newest kRunCapacity runs; run ids stay
// dense and run_count() counts every run ever recorded.
TEST_F(SystemTablesTest, RunHistoryKeepsNewestRuns) {
  constexpr int64_t kCapacity = sql::ObservabilityRegistry::kRunCapacity;
  constexpr int64_t kExtra = 5;
  for (int64_t i = 1; i <= kCapacity + kExtra; ++i) {
    sql::RunRecord run;
    run.statement = "run " + std::to_string(i);
    EXPECT_EQ(sql::GlobalObservability().RecordRun(std::move(run)), i);
  }
  EXPECT_EQ(sql::GlobalObservability().run_count(), kCapacity + kExtra);
  sql::QueryResult runs =
      MustSql("SELECT COUNT(*), MIN(run_id), MAX(run_id) FROM mr_runs");
  EXPECT_EQ(runs.rows[0][0].AsInteger(), kCapacity);
  EXPECT_EQ(runs.rows[0][1].AsInteger(), kExtra + 1);
  EXPECT_EQ(runs.rows[0][2].AsInteger(), kCapacity + kExtra);
  sql::QueryResult oldest = MustSql(
      "SELECT statement FROM mr_runs WHERE run_id = " +
      std::to_string(kExtra + 1));
  ASSERT_EQ(oldest.rows.size(), 1u);
  EXPECT_EQ(oldest.rows[0][0].AsString(),
            "run " + std::to_string(kExtra + 1));
}

// A user table with a system-table name shadows the virtual table, so
// existing workloads can never break.
TEST_F(SystemTablesTest, UserTableShadowsSystemTable) {
  MustSql("CREATE TABLE mr_runs (x INTEGER)");
  MustSql("INSERT INTO mr_runs VALUES (42)");
  sql::QueryResult result = MustSql("SELECT * FROM mr_runs");
  ASSERT_EQ(result.schema.num_columns(), 1u);
  EXPECT_EQ(result.schema.column(0).name, "x");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].AsInteger(), 42);
  MustSql("DROP TABLE mr_runs");
  // Dropping the user table reveals the system table again.
  sql::QueryResult unshadowed = MustSql("SELECT * FROM mr_runs");
  EXPECT_EQ(unshadowed.schema.column(0).name, "run_id");
}

TEST_F(SystemTablesTest, TraceSpansSurfaceInSystemTable) {
  SetUpRetail();
  SpanTracer& tracer = GlobalTracer();
  tracer.Clear();
  tracer.Enable(true);
  MustMine(kSimpleStatement);
  tracer.Enable(false);

  sql::QueryResult phases = MustSql(
      "SELECT name FROM mr_trace_spans WHERE category = 'phase'");
  std::vector<std::string> names;
  for (const Row& row : phases.rows) names.push_back(row[0].AsString());
  EXPECT_EQ(names, (std::vector<std::string>{"translate", "preprocess",
                                             "core", "postprocess"}));
  // Per-query spans carry the generated query ids.
  sql::QueryResult q4 = MustSql(
      "SELECT COUNT(*) FROM mr_trace_spans WHERE name = 'preprocess.Q4'");
  EXPECT_EQ(q4.rows[0][0].AsInteger(), 1);
  tracer.Clear();
}

std::string StripTimestamps(const std::string& json) {
  std::string out;
  size_t i = 0;
  while (i < json.size()) {
    bool stripped = false;
    for (const char* key : {"\"ts\":", "\"dur\":"}) {
      const size_t len = std::char_traits<char>::length(key);
      if (json.compare(i, len, key) == 0) {
        out += key;
        i += len;
        while (i < json.size() && (std::isdigit(json[i]) || json[i] == '-')) {
          ++i;
        }
        stripped = true;
        break;
      }
    }
    if (!stripped) out += json[i++];
  }
  return out;
}

// At one thread the pipeline is fully deterministic, so two identical runs
// export byte-identical Chrome traces once ts/dur values are stripped.
TEST_F(SystemTablesTest, ChromeTraceByteStableModuloTimestamps) {
  SetUpRetail();
  SpanTracer& tracer = GlobalTracer();
  mr::MiningOptions options;
  options.num_threads = 1;

  tracer.Clear();
  tracer.Enable(true);
  MustMine(kSimpleStatement, options);
  const std::string first = tracer.ChromeTraceJson();
  tracer.Clear();
  MustMine(kSimpleStatement, options);
  const std::string second = tracer.ChromeTraceJson();
  tracer.Enable(false);
  tracer.Clear();

  EXPECT_TRUE(ValidateJson(first).ok());
  EXPECT_EQ(StripTimestamps(first), StripTimestamps(second));
}

// Observability fully on must not change the mined rules, at any thread
// count: telemetry observes the pipeline, it never steers it.
TEST_F(SystemTablesTest, ObservabilityChangesNoResults) {
  SetUpRetail();
  auto rules_with_threads = [&](int threads, bool observe) {
    MustSql("DROP TABLE IF EXISTS Basket");
    GlobalTracer().Enable(observe);
    mr::MiningOptions options;
    options.num_threads = threads;
    MustMine(kSimpleStatement, options);
    GlobalTracer().Enable(false);
    sql::QueryResult rows = MustSql(
        "SELECT * FROM Basket ORDER BY BodyId, HeadId");
    std::string rendered;
    for (const Row& row : rows.rows) {
      for (const Value& value : row) rendered += value.ToString() + "|";
      rendered += "\n";
    }
    return rendered;
  };
  const std::string baseline = rules_with_threads(1, /*observe=*/false);
  EXPECT_FALSE(baseline.empty());
  EXPECT_EQ(rules_with_threads(1, /*observe=*/true), baseline);
  EXPECT_EQ(rules_with_threads(8, /*observe=*/true), baseline);
  GlobalTracer().Clear();
}

}  // namespace
}  // namespace minerule
