// Planning from statistics (DESIGN.md §14): the NDV sketch, the statistics
// catalog's incremental maintenance, ANALYZE, plan feedback, and the
// planner's choices over analyzed tables — which must never change results.

#include "sql/statistics.h"

#include <gtest/gtest.h>

#include <limits>
#include <regex>
#include <string>
#include <vector>

#include "relational/catalog.h"
#include "sql/engine.h"

namespace minerule::sql {
namespace {

// ----------------------------------------------------------------- sketch --

TEST(NdvSketchTest, WithinFivePercentAtOneMillionDistinct) {
  NdvSketch sketch;
  for (int64_t i = 0; i < 1000000; ++i) {
    sketch.Add(Value::Integer(i));
  }
  const double est = sketch.Estimate();
  EXPECT_GT(est, 0.95e6);
  EXPECT_LT(est, 1.05e6);
}

TEST(NdvSketchTest, DuplicatesDoNotInflate) {
  NdvSketch sketch;
  for (int pass = 0; pass < 10; ++pass) {
    for (int64_t i = 0; i < 1000; ++i) sketch.Add(Value::Integer(i));
  }
  // Linear counting keeps the small range near-exact.
  const double est = sketch.Estimate();
  EXPECT_GT(est, 950.0);
  EXPECT_LT(est, 1050.0);
}

TEST(NdvSketchTest, MergeIsAssociativeAndCommutative) {
  NdvSketch a;
  NdvSketch b;
  NdvSketch c;
  for (int64_t i = 0; i < 40000; ++i) {
    if (i % 3 == 0) a.Add(Value::Integer(i));
    if (i % 3 == 1) b.Add(Value::Integer(i));
    if (i % 3 == 2) c.Add(Value::String("s" + std::to_string(i)));
  }
  // (a + b) + c
  NdvSketch left = a;
  left.Merge(b);
  left.Merge(c);
  // a + (c + b) — different association and order
  NdvSketch right = c;
  right.Merge(b);
  NdvSketch result = a;
  result.Merge(right);
  EXPECT_EQ(left.registers(), result.registers());
  EXPECT_EQ(left.Estimate(), result.Estimate());
}

// Partitioning one row stream across k collectors and merging gives the
// identical registers for every k — the property that makes stats
// collection deterministic regardless of how work is sharded.
TEST(NdvSketchTest, DeterministicAcrossShardCounts) {
  NdvSketch whole;
  for (int64_t i = 0; i < 100000; ++i) whole.Add(Value::Integer(i * 7));
  for (int shards : {2, 3, 8, 16}) {
    std::vector<NdvSketch> parts(shards);
    for (int64_t i = 0; i < 100000; ++i) {
      parts[i % shards].Add(Value::Integer(i * 7));
    }
    NdvSketch merged = parts[0];
    for (int s = 1; s < shards; ++s) merged.Merge(parts[s]);
    EXPECT_EQ(whole.registers(), merged.registers()) << shards << " shards";
  }
}

// ---------------------------------------------------------------- catalog --

class StatisticsCatalogTest : public ::testing::Test {
 protected:
  StatisticsCatalogTest() : engine_(&catalog_) {}

  QueryResult MustExecute(const std::string& sql) {
    Result<QueryResult> result = engine_.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    return result.ok() ? std::move(result).value() : QueryResult{};
  }

  std::shared_ptr<Table> MustTable(const std::string& name) {
    Result<std::shared_ptr<Table>> table = catalog_.GetTable(name);
    EXPECT_TRUE(table.ok()) << table.status();
    return table.ok() ? table.value() : nullptr;
  }

  Catalog catalog_;
  SqlEngine engine_;
};

TEST_F(StatisticsCatalogTest, CollectsRowCountNdvMinMaxNulls) {
  MustExecute("CREATE TABLE t (a INTEGER, b VARCHAR)");
  MustExecute(
      "INSERT INTO t VALUES (1, 'x'), (2, 'y'), (2, NULL), (5, 'y')");
  MustExecute("ANALYZE t");
  const TableStats* stats = engine_.statistics()->Lookup(*MustTable("t"));
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->row_count, 4);
  ASSERT_EQ(stats->columns.size(), 2u);
  EXPECT_EQ(stats->column_names, (std::vector<std::string>{"a", "b"}));
  // Column a: 3 distinct, no nulls, min 1 max 5.
  EXPECT_NEAR(stats->columns[0].Ndv(), 3.0, 0.01);
  EXPECT_EQ(stats->columns[0].null_count, 0);
  EXPECT_EQ(stats->columns[0].min_value.AsInteger(), 1);
  EXPECT_EQ(stats->columns[0].max_value.AsInteger(), 5);
  // Column b: 2 distinct non-null, one null.
  EXPECT_NEAR(stats->columns[1].Ndv(), 2.0, 0.01);
  EXPECT_EQ(stats->columns[1].null_count, 1);
  EXPECT_NEAR(stats->columns[1].NullFraction(), 0.25, 1e-9);
}

TEST_F(StatisticsCatalogTest, AppendsFoldIncrementally) {
  MustExecute("CREATE TABLE t (a INTEGER)");
  MustExecute("INSERT INTO t VALUES (1), (2)");
  MustExecute("ANALYZE t");
  const TableStats* first = engine_.statistics()->Lookup(*MustTable("t"));
  const int64_t epoch_after_first = first->epoch;
  EXPECT_EQ(first->row_count, 2);

  // INSERT only appends: the catalog folds the suffix instead of rebuilding,
  // which shows as a single epoch bump and the updated aggregates.
  MustExecute("INSERT INTO t VALUES (3), (4), (4)");
  const TableStats* second =
      engine_.statistics()->Lookup(*MustTable("t"));
  EXPECT_EQ(second->row_count, 5);
  EXPECT_EQ(second->epoch, epoch_after_first + 1);
  EXPECT_NEAR(second->columns[0].Ndv(), 4.0, 0.01);
  EXPECT_EQ(second->columns[0].max_value.AsInteger(), 4);

  // Unchanged table: cached entry, same epoch.
  const TableStats* third = engine_.statistics()->Lookup(*MustTable("t"));
  EXPECT_EQ(third->epoch, second->epoch);

  // UPDATE rewrites rows in place: shape changes force a full rebuild.
  MustExecute("UPDATE t SET a = 9 WHERE a = 1");
  const TableStats* fourth =
      engine_.statistics()->Lookup(*MustTable("t"));
  EXPECT_EQ(fourth->row_count, 5);
  EXPECT_EQ(fourth->columns[0].max_value.AsInteger(), 9);
}

TEST_F(StatisticsCatalogTest, AnalyzeStatementRefreshes) {
  MustExecute("CREATE TABLE t (a INTEGER)");
  MustExecute("CREATE TABLE u (b VARCHAR)");
  MustExecute("INSERT INTO t VALUES (1), (2)");
  MustExecute("INSERT INTO u VALUES ('x')");

  // ANALYZE <table> collects that table only.
  QueryResult one = MustExecute("ANALYZE t");
  EXPECT_EQ(one.affected_rows, 1);
  EXPECT_EQ(engine_.statistics()->Entries().size(), 1u);

  // Bare ANALYZE sweeps every catalog table.
  QueryResult all = MustExecute("ANALYZE");
  EXPECT_EQ(all.affected_rows, 2);
  const auto entries = engine_.statistics()->Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].first, "t");
  EXPECT_EQ(entries[1].first, "u");
  EXPECT_EQ(entries[0].second->row_count, 2);
}

TEST_F(StatisticsCatalogTest, TableStatsSystemTable) {
  MustExecute("CREATE TABLE t (a INTEGER, b VARCHAR)");
  MustExecute("INSERT INTO t VALUES (1, 'x'), (2, NULL)");
  // Nothing collected yet: the system table scans empty, never errors.
  EXPECT_TRUE(MustExecute("SELECT * FROM mr_table_stats").rows.empty());

  MustExecute("ANALYZE t");
  QueryResult rows = MustExecute(
      "SELECT table_name, column_name, row_count, ndv, null_frac "
      "FROM mr_table_stats");
  ASSERT_EQ(rows.rows.size(), 2u);  // one row per (table, column)
  EXPECT_EQ(rows.rows[0][0].AsString(), "t");
  EXPECT_EQ(rows.rows[0][1].AsString(), "a");
  EXPECT_EQ(rows.rows[0][2].AsInteger(), 2);
  EXPECT_EQ(rows.rows[0][3].AsInteger(), 2);
  EXPECT_EQ(rows.rows[1][1].AsString(), "b");
  EXPECT_NEAR(rows.rows[1][4].AsDouble(), 0.5, 1e-9);
}

TEST(PlanFeedbackTest, RecordsAndInvalidates) {
  PlanFeedback feedback;
  EXPECT_EQ(feedback.Lookup("s|t@v1|f="), -1);
  feedback.Record("s|t@v1|f=", 42);
  EXPECT_EQ(feedback.Lookup("s|t@v1|f="), 42);
  feedback.Record("s|t@v1|f=", 50);  // newest observation wins
  EXPECT_EQ(feedback.Lookup("s|t@v1|f="), 50);
  // A new table version is a different fingerprint — stale observations
  // simply never match.
  EXPECT_EQ(feedback.Lookup("s|t@v2|f="), -1);
  feedback.Clear();
  EXPECT_EQ(feedback.size(), 0u);
}

// ---------------------------------------------------- planning from stats --

// engine_ plans from the statistics its ANALYZE collects; plain_ runs over
// the same catalog but never analyzes, so it keeps every FROM-order plan.
class CostBasedPlanningTest : public StatisticsCatalogTest {
 protected:
  CostBasedPlanningTest() : plain_(&catalog_) {}

  QueryResult MustExecutePlain(const std::string& sql) {
    Result<QueryResult> result = plain_.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    return result.ok() ? std::move(result).value() : QueryResult{};
  }

  // Joins the one-column EXPLAIN result back into a plan text.
  std::string Plan(const std::string& sql, bool plain = false) {
    QueryResult result = plain ? MustExecutePlain(sql) : MustExecute(sql);
    EXPECT_EQ(result.schema.num_columns(), 1u);
    std::string plan;
    for (const Row& row : result.rows) {
      plan += row[0].AsString();
      plan += '\n';
    }
    return plan;
  }

  // Flat dump of a result for byte-comparison across plan strategies.
  static std::string Dump(const QueryResult& result) {
    std::string out;
    for (const Row& row : result.rows) {
      for (const Value& v : row) {
        out += v.ToString();
        out += '|';
      }
      out += '\n';
    }
    return out;
  }

  // A 10:1 skewed pair: `big` has 10x the rows of `small`.
  void SetUpSkew() {
    MustExecute("CREATE TABLE small (k INTEGER, tag VARCHAR)");
    MustExecute("CREATE TABLE big (k INTEGER, v INTEGER)");
    std::string small_rows;
    for (int i = 0; i < 200; ++i) {
      small_rows += (i ? "," : "");
      small_rows += "(" + std::to_string(i) + ", 'tag" +
                    std::to_string(i % 7) + "')";
    }
    MustExecute("INSERT INTO small VALUES " + small_rows);
    for (int chunk = 0; chunk < 4; ++chunk) {
      std::string big_rows;
      for (int i = 0; i < 500; ++i) {
        const int id = chunk * 500 + i;
        big_rows += (i ? "," : "");
        big_rows += "(" + std::to_string(id % 200) + ", " +
                    std::to_string(id) + ")";
      }
      MustExecute("INSERT INTO big VALUES " + big_rows);
    }
    MustExecute("ANALYZE");
  }

  SqlEngine plain_;
};

TEST_F(CostBasedPlanningTest, ExplainCarriesEstimates) {
  MustExecute("CREATE TABLE t (a INTEGER, b VARCHAR)");
  MustExecute("INSERT INTO t VALUES (1,'x'), (2,'y'), (3,'z'), (4,'w')");
  MustExecute("ANALYZE t");
  const std::string plan = Plan("EXPLAIN SELECT b FROM t WHERE a = 2");
  // Pushdown put the filter on the scan; est_rows reflects 1/NDV(a) = 1/4
  // selectivity on 4 rows, est_cost the raw scan size.
  EXPECT_NE(plan.find("est_rows=1"), std::string::npos) << plan;
  EXPECT_NE(plan.find("est_cost=4"), std::string::npos) << plan;

  // An engine that never analyzed t keeps the estimate-free goldens.
  EXPECT_EQ(Plan("EXPLAIN SELECT b FROM t WHERE a = 2", /*plain=*/true)
                .find("est_rows"),
            std::string::npos);
}

TEST_F(CostBasedPlanningTest, ExplainAnalyzeShowsActualsAgainstEstimates) {
  MustExecute("CREATE TABLE t (a INTEGER)");
  MustExecute("INSERT INTO t VALUES (1), (2), (2), (3)");
  MustExecute("ANALYZE t");
  const std::string plan = Plan("EXPLAIN ANALYZE SELECT a FROM t WHERE a = 2");
  // Both the estimate and the observed count are on the same line.
  EXPECT_NE(plan.find("est_rows="), std::string::npos) << plan;
  EXPECT_NE(plan.find("rows=2"), std::string::npos) << plan;
}

// Every hash join builds over its right input, so a two-input join plans
// the same operators with or without ANALYZE: statistics only annotate the
// plan. On the skewed pair the output bytes must match the FROM-order
// baseline on every executor.
TEST_F(CostBasedPlanningTest, SkewedJoinIdenticalAcrossExecutors) {
  SetUpSkew();
  const std::string query =
      "SELECT small.tag, big.v FROM small, big WHERE small.k = big.k";

  const std::regex estimates(" est_(rows|cost)=[0-9]+");
  const std::string plan = Plan("EXPLAIN " + query);
  EXPECT_NE(plan.find("est_rows="), std::string::npos) << plan;
  const std::string baseline_plan = Plan("EXPLAIN " + query, /*plain=*/true);
  EXPECT_EQ(std::regex_replace(plan, estimates, ""), baseline_plan)
      << plan << "vs\n" << baseline_plan;
  const std::string baseline = Dump(MustExecutePlain(query));
  ASSERT_FALSE(baseline.empty());

  // Columnar, row scan (a budget that never spills), spilled, threaded: all
  // byte-identical to the FROM-order baseline.
  engine_.set_memory_limit(-1);
  EXPECT_EQ(Dump(MustExecute(query)), baseline) << "analyzed columnar";
  engine_.set_memory_limit(std::numeric_limits<int64_t>::max());
  EXPECT_EQ(Dump(MustExecute(query)), baseline) << "analyzed row scan";
  engine_.set_memory_limit(1024);
  EXPECT_EQ(Dump(MustExecute(query)), baseline) << "analyzed spilled";
  engine_.set_memory_limit(-1);
  engine_.set_num_threads(4);
  EXPECT_EQ(Dump(MustExecute(query)), baseline) << "analyzed threaded";
  engine_.set_num_threads(1);
}

// Three tables listed worst-first: the plan from statistics reorders the
// joins, then restores the canonical output order bit for bit.
TEST_F(CostBasedPlanningTest, ReordersJoinsWithoutChangingResults) {
  MustExecute("CREATE TABLE facts (k INTEGER, m INTEGER)");
  MustExecute("CREATE TABLE dim1 (k INTEGER, a VARCHAR)");
  MustExecute("CREATE TABLE dim2 (m INTEGER, b VARCHAR)");
  std::string facts;
  for (int i = 0; i < 1000; ++i) {
    facts += (i ? "," : "");
    facts += "(" + std::to_string(i % 23) + "," + std::to_string(i % 17) + ")";
  }
  MustExecute("INSERT INTO facts VALUES " + facts);
  std::string dims1;
  std::string dims2;
  for (int i = 0; i < 23; ++i) {
    dims1 += (i ? "," : "");
    dims1 += "(" + std::to_string(i) + ",'a" + std::to_string(i) + "')";
  }
  for (int i = 0; i < 17; ++i) {
    dims2 += (i ? "," : "");
    dims2 += "(" + std::to_string(i) + ",'b" + std::to_string(i) + "')";
  }
  MustExecute("INSERT INTO dim1 VALUES " + dims1);
  MustExecute("INSERT INTO dim2 VALUES " + dims2);
  MustExecute("ANALYZE");

  // facts × facts first would be the canonical order's cross-join disaster:
  // the two copies of facts only connect through the dims.
  const std::string query =
      "SELECT f1.k, d1.a, d2.b FROM facts f1, facts f2, dim1 d1, dim2 d2 "
      "WHERE f1.k = d1.k AND f2.m = d2.m AND f1.m = f2.m AND d1.k < 3";

  const std::string baseline = Dump(MustExecutePlain(query));
  ASSERT_FALSE(baseline.empty());

  // The reorder really happens: the restore machinery (hidden row numbers +
  // final sort) is in the plan, and the first joined table is not f1.
  const std::string plan = Plan("EXPLAIN " + query);
  EXPECT_NE(plan.find("RowNumber"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Sort (#rid0"), std::string::npos) << plan;

  EXPECT_EQ(Dump(MustExecute(query)), baseline);
  engine_.set_num_threads(4);
  EXPECT_EQ(Dump(MustExecute(query)), baseline);
  engine_.set_num_threads(1);
}

// Observed cardinalities override the formula estimates on the next
// planning of the same shape.
TEST_F(CostBasedPlanningTest, FeedbackOverridesEstimates) {
  MustExecute("CREATE TABLE t (a INTEGER, b INTEGER)");
  // b = 0 for every row: the formula estimate (rows/NDV) is badly wrong for
  // `b = 0` (NDV is 1, but a selective-looking filter could fool it the
  // other way around with a skewed column); what matters here is only that
  // the second plan uses the observed count.
  std::string rows;
  for (int i = 0; i < 100; ++i) {
    rows += (i ? "," : "");
    rows += "(" + std::to_string(i) + ", " + std::to_string(i % 4) + ")";
  }
  MustExecute("INSERT INTO t VALUES " + rows);
  MustExecute("ANALYZE t");

  // Formula estimate: 100 / NDV(b) = 100 / 4 = 25.
  const std::string before = Plan("EXPLAIN SELECT a FROM t WHERE b = 3");
  EXPECT_NE(before.find("est_rows=25"), std::string::npos) << before;

  // Execute: 25 rows actually match; feedback stores the observation keyed
  // by (table version, filter), so the estimate snaps to the actual.
  MustExecute("SELECT a FROM t WHERE b = 3");
  const std::string after = Plan("EXPLAIN SELECT a FROM t WHERE b = 3");
  EXPECT_NE(after.find("est_rows=25"), std::string::npos) << after;

  // DML bumps the table version: the stale observation no longer matches
  // and planning falls back to the formula path.
  MustExecute("INSERT INTO t VALUES (100, 3)");
  MustExecute("SELECT a FROM t WHERE b = 3");  // re-observe: 26 rows
  const std::string refreshed = Plan("EXPLAIN SELECT a FROM t WHERE b = 3");
  EXPECT_NE(refreshed.find("est_rows=26"), std::string::npos) << refreshed;
}

// The planner's rule: statistics belong to the table object ANALYZE saw. A
// dropped-and-recreated table of the same name plans in FROM order, alone
// or joined to an analyzed table, until the next ANALYZE.
TEST_F(CostBasedPlanningTest, RecreatedTablePlansWithoutStatisticsUntilAnalyzed) {
  MustExecute("CREATE TABLE t (a INTEGER)");
  MustExecute("CREATE TABLE u (a INTEGER)");
  MustExecute("INSERT INTO t VALUES (1), (2), (3), (4)");
  MustExecute("INSERT INTO u VALUES (1), (2)");
  MustExecute("ANALYZE");
  const std::string single = "EXPLAIN SELECT a FROM t WHERE a = 2";
  const std::string join = "EXPLAIN SELECT t.a FROM t, u WHERE t.a = u.a";
  EXPECT_NE(Plan(single).find("est_rows="), std::string::npos);
  EXPECT_NE(Plan(join).find("est_rows="), std::string::npos);

  MustExecute("DROP TABLE t");
  MustExecute("CREATE TABLE t (a INTEGER)");
  MustExecute("INSERT INTO t VALUES (1), (2), (3), (4)");
  EXPECT_EQ(engine_.statistics()->Lookup(*MustTable("t")), nullptr);
  EXPECT_EQ(Plan(single), Plan(single, /*plain=*/true));
  EXPECT_EQ(Plan(join), Plan(join, /*plain=*/true));
  EXPECT_EQ(Plan(join).find("est_rows"), std::string::npos);

  MustExecute("ANALYZE t");
  EXPECT_NE(Plan(single).find("est_rows="), std::string::npos);
  EXPECT_NE(Plan(join).find("est_rows="), std::string::npos);
}

// Appends fold into the analyzed entry, so the table stays planned from
// statistics and the estimates follow the new rows without another ANALYZE.
TEST_F(CostBasedPlanningTest, AppendsKeepTablePlannedFromStatistics) {
  MustExecute("CREATE TABLE t (a INTEGER)");
  MustExecute("INSERT INTO t VALUES (1), (2), (3), (4)");
  MustExecute("ANALYZE t");
  const std::string query = "EXPLAIN SELECT a FROM t WHERE a < 100";
  EXPECT_NE(Plan(query).find("est_cost=4"), std::string::npos) << Plan(query);

  MustExecute("INSERT INTO t VALUES (5), (6), (7), (8)");
  const std::string appended = Plan(query);
  EXPECT_NE(appended.find("est_cost=8"), std::string::npos) << appended;
  const TableStats* stats = engine_.statistics()->Lookup(*MustTable("t"));
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->row_count, 8);
  EXPECT_EQ(stats->columns[0].max_value.AsInteger(), 8);
}

// LIMIT stops execution early, so observed counts would be undercounts:
// statements with LIMIT must record no feedback at all.
TEST_F(CostBasedPlanningTest, LimitRecordsNoFeedback) {
  MustExecute("CREATE TABLE t (a INTEGER)");
  MustExecute("INSERT INTO t VALUES (1), (2), (3), (4), (5)");
  MustExecute("ANALYZE t");
  MustExecute("SELECT a FROM t LIMIT 2");
  EXPECT_EQ(engine_.feedback()->size(), 0u);
  MustExecute("SELECT a FROM t");
  EXPECT_GT(engine_.feedback()->size(), 0u);
}

// A WHERE conjunct may be evaluated on any row of the input it references
// (DESIGN.md §14), in every plan. So `10 / s.z > 0` divides by zero on s's
// row (3, 0) whether or not that row joins, and the statement's outcome —
// the same Status, or the same rows — cannot depend on whether ANALYZE ran.
TEST_F(CostBasedPlanningTest, SingleInputConjunctOutcomeIndependentOfAnalyze) {
  MustExecute("CREATE TABLE t (a INTEGER, b INTEGER)");
  MustExecute("INSERT INTO t VALUES (1, 10), (2, 20)");
  MustExecute("CREATE TABLE s (a INTEGER, z INTEGER)");
  MustExecute("INSERT INTO s VALUES (1, 5), (3, 0)");
  const std::vector<std::string> queries = {
      "SELECT t.b FROM t, s WHERE t.a = s.a AND 10 / s.z > 0",
      "SELECT t.b FROM t, s WHERE t.a = s.a AND 10 / (s.z + 1) > 0",
      "SELECT t.b FROM s, t WHERE t.a = s.a AND 10 / s.z > 0",
  };
  std::vector<Result<QueryResult>> before;
  for (const std::string& query : queries) {
    before.push_back(engine_.Execute(query));
  }
  MustExecute("ANALYZE");
  for (size_t i = 0; i < queries.size(); ++i) {
    Result<QueryResult> after = engine_.Execute(queries[i]);
    ASSERT_EQ(after.ok(), before[i].ok()) << queries[i];
    if (!after.ok()) {
      EXPECT_EQ(after.status(), before[i].status()) << queries[i];
      EXPECT_NE(after.status().message().find("division by zero"),
                std::string::npos)
          << after.status();
      continue;
    }
    EXPECT_EQ(Dump(after.value()), Dump(before[i].value())) << queries[i];
    EXPECT_EQ(Dump(after.value()), "10|\n") << queries[i];
  }
}

// A join over analyzed tables runs the subtrees the FROM-order join runs:
// the right input always, the left only when some right row has a key. So
// a failing conjunct on one side fails, or is skipped, alike with and
// without ANALYZE: `10 / big.z` fails on big's z = 0 row although small's
// filtered side is empty, and `10 / small.d` is never evaluated when big's
// filtered side is empty.
TEST_F(CostBasedPlanningTest, JoinOutcomeIndependentOfAnalyze) {
  MustExecute("CREATE TABLE small (k INTEGER, tag VARCHAR, d INTEGER)");
  MustExecute("CREATE TABLE big (k INTEGER, z INTEGER)");
  std::string small_rows;
  for (int i = 0; i < 200; ++i) {
    small_rows += (i ? "," : "");
    small_rows += "(" + std::to_string(i) + ", 'tag" + std::to_string(i % 7) +
                  "', " + std::to_string(i) + ")";
  }
  MustExecute("INSERT INTO small VALUES " + small_rows);
  std::string big_rows;
  for (int i = 0; i < 4000; ++i) {
    big_rows += (i ? "," : "");
    big_rows += "(" + std::to_string(i % 200) + ", " + (i ? "1" : "0") + ")";
  }
  MustExecute("INSERT INTO big VALUES " + big_rows);
  const std::vector<std::string> queries = {
      "SELECT COUNT(*) FROM small, big WHERE small.k = big.k "
      "AND small.tag = 'none' AND 10 / big.z > 0",
      "SELECT COUNT(*) FROM small, big WHERE small.k = big.k "
      "AND 10 / small.d > 0 AND big.z + 0 > 5",
  };
  std::vector<Result<QueryResult>> before;
  for (const std::string& query : queries) {
    before.push_back(engine_.Execute(query));
  }
  MustExecute("ANALYZE");
  for (size_t i = 0; i < queries.size(); ++i) {
    for (int threads : {1, 4}) {
      engine_.set_num_threads(threads);
      Result<QueryResult> after = engine_.Execute(queries[i]);
      ASSERT_EQ(after.ok(), before[i].ok()) << queries[i];
      if (!after.ok()) {
        EXPECT_EQ(after.status(), before[i].status()) << queries[i];
        continue;
      }
      EXPECT_EQ(Dump(after.value()), Dump(before[i].value())) << queries[i];
    }
    engine_.set_num_threads(1);
  }
  EXPECT_FALSE(before[0].ok());
  ASSERT_TRUE(before[1].ok());
  EXPECT_EQ(Dump(before[1].value()), "0|\n");
}

// Planning from statistics changes plans, never results: spot-check a grab
// bag of query shapes against the FROM-order plans of an engine that never
// analyzed.
TEST_F(CostBasedPlanningTest, DifferentialAgainstSyntacticPlanner) {
  SetUpSkew();
  const std::vector<std::string> queries = {
      "SELECT k, tag FROM small WHERE k < 50 ORDER BY k",
      "SELECT small.tag, COUNT(*) FROM small, big WHERE small.k = big.k "
      "GROUP BY small.tag ORDER BY small.tag",
      "SELECT s1.k FROM small s1, small s2 WHERE s1.k = s2.k AND s2.k < 10",
      "SELECT small.k, big.v FROM small, big WHERE small.k = big.k "
      "AND big.v < 100 ORDER BY big.v LIMIT 7",
      "SELECT COUNT(*) FROM big",
  };
  for (const std::string& query : queries) {
    const std::string baseline = Dump(MustExecutePlain(query));
    EXPECT_EQ(Dump(MustExecute(query)), baseline) << query;
  }
}

}  // namespace
}  // namespace minerule::sql
