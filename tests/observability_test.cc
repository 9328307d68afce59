// The observability layer end to end: EXPLAIN / EXPLAIN ANALYZE plan
// rendering, per-operator statistics threaded into MiningRunStats, per-pass
// mining counters, the phase spans and the run-stats JSON export.

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/trace.h"
#include "datagen/retail_gen.h"
#include "engine/data_mining_system.h"

namespace minerule {
namespace {

class ObservabilityTest : public ::testing::Test {
 protected:
  // Plans are pinned below, and the memory budget selects the scan path,
  // so every test starts unbudgeted regardless of MINERULE_MEMORY_LIMIT.
  ObservabilityTest() : system_(&catalog_) {
    system_.sql_engine()->set_memory_limit(-1);
  }

  sql::QueryResult MustSql(const std::string& sql) {
    auto result = system_.ExecuteSql(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    return result.ok() ? std::move(result).value() : sql::QueryResult{};
  }

  // Joins the one-column EXPLAIN result back into a plan text.
  std::string Plan(const std::string& sql) {
    sql::QueryResult result = MustSql(sql);
    EXPECT_EQ(result.schema.num_columns(), 1u);
    std::string plan;
    for (const Row& row : result.rows) {
      plan += row[0].AsString();
      plan += '\n';
    }
    return plan;
  }

  void SetUpSmallTables() {
    MustSql("CREATE TABLE t (a INTEGER, b VARCHAR)");
    MustSql("INSERT INTO t VALUES (1,'x'), (2,'y'), (3,'z')");
    MustSql("CREATE TABLE s (a INTEGER, c DOUBLE)");
    MustSql("INSERT INTO s VALUES (1, 1.5), (2, 2.5)");
  }

  // Non-ANALYZE EXPLAIN output carries no timings or row counts, so it is
  // deterministic — pinned here as golden plans. A conjunct on one input
  // filters that input below the join (DESIGN.md §14).
  void ExpectGoldenPlans() {
    SetUpSmallTables();
    EXPECT_EQ(Plan("EXPLAIN SELECT t.b, s.c FROM t, s WHERE t.a = s.a AND "
                   "s.c > 1 ORDER BY t.b LIMIT 2"),
              "Limit (2)\n"
              "  -> Sort (b)\n"
              "    -> Project (t.b, s.c)\n"
              "      -> HashJoin (t.a = s.a)\n"
              "        -> TableScan (t)\n"
              "        -> Filter ((s.c > 1))\n"
              "          -> TableScan (s)\n");
    EXPECT_EQ(Plan("EXPLAIN SELECT a, COUNT(*) FROM t GROUP BY a "
                   "HAVING COUNT(*) > 0"),
              "Project (a, COUNT(*))\n"
              "  -> Filter ((COUNT(*) > 0))\n"
              "    -> HashAggregate (keys=1 aggs=1 by a)\n"
              "      -> TableScan (t)\n");
    // A single-table predicate is a Filter over the TableScan.
    EXPECT_EQ(Plan("EXPLAIN SELECT b FROM t WHERE a >= 2"),
              "Project (b)\n"
              "  -> Filter ((a >= 2))\n"
              "    -> TableScan (t)\n");
  }

  Catalog catalog_;
  mr::DataMiningSystem system_;
};

// The plan does not depend on the memory budget (DESIGN.md §12). Under a
// budget (here one that never spills) the TableScan and Filter run on rows.
TEST_F(ObservabilityTest, ExplainGoldenPlan) {
  system_.sql_engine()->set_memory_limit(std::numeric_limits<int64_t>::max());
  ExpectGoldenPlans();
}

// Unbudgeted (the default), the same TableScan and Filter run on the
// table's columnar image and print the same plan.
TEST_F(ObservabilityTest, ExplainGoldenPlanVectorized) {
  ExpectGoldenPlans();
}

// Q8's shape: a conjunct on a view input stays a Filter over the view's
// plan, and runs on batches — comparison kernels compiled once over the
// scan's columns, which the view's column-reference Project passes through. EXPLAIN
// ANALYZE shows the batches on every operator of the pipeline.
TEST_F(ObservabilityTest, ExplainGoldenPlanFilterOverView) {
  MustSql("CREATE TABLE msb (Gid INTEGER, Cid INTEGER, Bid INTEGER, "
          "price DOUBLE)");
  MustSql("INSERT INTO msb VALUES (1, 1, 1, 150.0), (1, 2, 2, 50.0), "
          "(2, 3, 1, 120.0), (2, 4, 3, 80.0)");
  MustSql("CREATE VIEW msh AS (SELECT Gid, Cid, Bid AS Hid, price FROM msb)");
  const std::string sql =
      "SELECT S1.Gid, S2.Hid FROM msb AS S1, msh AS S2 WHERE "
      "S1.Gid = S2.Gid AND S1.Bid <> S2.Hid AND S1.price >= 100 AND "
      "S2.price < 100";
  EXPECT_EQ(Plan("EXPLAIN " + sql),
            "Project (S1.Gid, S2.Hid)\n"
            "  -> HashJoin (S1.Gid = S2.Gid AND (S1.Bid <> S2.Hid))\n"
            "    -> Filter ((S1.price >= 100))\n"
            "      -> TableScan (msb)\n"
            "    -> Filter ((S2.price < 100))\n"
            "      -> Project (Gid, Cid, Bid, price)\n"
            "        -> TableScan (msb)\n");
  const std::string analyzed = Plan("EXPLAIN ANALYZE " + sql);
  EXPECT_NE(analyzed.find("Filter ((S2.price < 100)) rows=2"),
            std::string::npos)
      << analyzed;
  EXPECT_NE(analyzed.find("HashJoin (S1.Gid = S2.Gid AND (S1.Bid <> S2.Hid)) "
                          "rows=2"),
            std::string::npos)
      << analyzed;
  for (const char* op : {"Project (S1.Gid", "HashJoin", "Filter ((S2",
                         "Project (Gid"}) {
    const size_t line = analyzed.find(op);
    ASSERT_NE(line, std::string::npos) << op << "\n" << analyzed;
    const std::string text =
        analyzed.substr(line, analyzed.find('\n', line) - line);
    EXPECT_NE(text.find("batches=1"), std::string::npos) << text;
  }
}

// Conjuncts that span both inputs of a join are the join's residual: the
// hash join renders it after its keys, a keyless join as its predicate.
// Single-input conjuncts still filter their own inputs.
TEST_F(ObservabilityTest, ExplainGoldenPlanJoinResidual) {
  SetUpSmallTables();
  EXPECT_EQ(Plan("EXPLAIN SELECT t.b, s.c FROM t, s WHERE t.a = s.a AND "
                 "t.a < s.c AND s.c > 1 AND t.b <> 'q'"),
            "Project (t.b, s.c)\n"
            "  -> HashJoin (t.a = s.a AND (t.a < s.c))\n"
            "    -> Filter ((t.b <> 'q'))\n"
            "      -> TableScan (t)\n"
            "    -> Filter ((s.c > 1))\n"
            "      -> TableScan (s)\n");
  EXPECT_EQ(Plan("EXPLAIN SELECT t.b FROM t, s WHERE t.a <> s.a AND s.c > 2"),
            "Project (t.b)\n"
            "  -> NestedLoopJoin ((t.a <> s.a))\n"
            "    -> TableScan (t)\n"
            "    -> Filter ((s.c > 2))\n"
            "      -> TableScan (s)\n");
}

// The residual's useful/attempted ratio: of the two key matches (1, 1.5)
// and (2, 2.5), only the second has t.a * s.c > 2. Every join path — the
// serial probe, the parallel probe, the budgeted serial join and the spilled
// grace join — counts the same pairs.
TEST_F(ObservabilityTest, ExplainAnalyzeCountsResidualPairs) {
  SetUpSmallTables();
  for (int threads : {1, 4}) {
    for (int64_t budget :
         {int64_t{-1}, std::numeric_limits<int64_t>::max(), int64_t{0}}) {
      system_.sql_engine()->set_num_threads(threads);
      system_.sql_engine()->set_memory_limit(budget);
      const std::string plan = Plan(
          "EXPLAIN ANALYZE SELECT t.b FROM t, s WHERE t.a = s.a AND "
          "t.a * s.c > 2");
      const size_t at = plan.find("HashJoin (t.a = s.a AND ((t.a * s.c) > 2))");
      ASSERT_NE(at, std::string::npos) << plan;
      const std::string line = plan.substr(at, plan.find('\n', at) - at);
      EXPECT_NE(line.find(" rows=1"), std::string::npos) << line;
      EXPECT_NE(line.find("residual_checked=2"), std::string::npos)
          << threads << " threads, budget " << budget << ": " << line;
      EXPECT_NE(line.find("residual_passed=1"), std::string::npos)
          << threads << " threads, budget " << budget << ": " << line;
      EXPECT_EQ(line.find("spill_partitions=") != std::string::npos,
                budget == 0)
          << line;
    }
  }
  // A pure equi-join has no residual to count.
  system_.sql_engine()->set_memory_limit(-1);
  const std::string plain =
      Plan("EXPLAIN ANALYZE SELECT t.b FROM t, s WHERE t.a = s.a");
  EXPECT_EQ(plain.find("residual_checked"), std::string::npos) << plain;
}

TEST_F(ObservabilityTest, ExplainAnalyzeVectorizedBatchCounters) {
  SetUpSmallTables();
  // The text of the plan line that starts with `op`.
  auto line_of = [](const std::string& plan, const std::string& op) {
    const size_t at = plan.find(op);
    if (at == std::string::npos) return std::string();
    return plan.substr(at, plan.find('\n', at) - at);
  };
  const std::string plan = Plan("EXPLAIN ANALYZE SELECT b FROM t WHERE a >= 2");
  // 3 input rows fit one batch; 2 survive -> density 100*2/3 = 66.
  const std::string filter = line_of(plan, "Filter ((a >= 2))");
  EXPECT_NE(filter.find(" rows=2"), std::string::npos) << plan;
  EXPECT_NE(filter.find("batches=1"), std::string::npos) << plan;
  EXPECT_NE(filter.find("sel_vector_density=66"), std::string::npos) << plan;
  // The scan reports the bytes of the columnar image its batches borrow.
  const std::string scan = line_of(plan, "TableScan (t)");
  EXPECT_NE(scan.find(" rows=3"), std::string::npos) << plan;
  EXPECT_NE(scan.find("est_bytes="), std::string::npos) << plan;
  EXPECT_EQ(scan.find("est_bytes=0"), std::string::npos) << plan;

  // Under a budget the image is never built, so there are no image bytes.
  system_.sql_engine()->set_memory_limit(std::numeric_limits<int64_t>::max());
  const std::string budgeted =
      Plan("EXPLAIN ANALYZE SELECT b FROM t WHERE a >= 2");
  EXPECT_EQ(line_of(budgeted, "TableScan (t)").find("est_bytes="),
            std::string::npos)
      << budgeted;
  system_.sql_engine()->set_memory_limit(-1);

  // Hash operators over the scans keep their own counters, and each
  // TableScan accounts the rows it fed them.
  const std::string join =
      Plan("EXPLAIN ANALYZE SELECT t.b FROM t, s WHERE t.a = s.a");
  EXPECT_NE(join.find("HashJoin (t.a = s.a) rows=2"), std::string::npos)
      << join;
  EXPECT_NE(join.find("build_rows=2"), std::string::npos) << join;
  EXPECT_NE(join.find("buckets="), std::string::npos) << join;
  EXPECT_NE(join.find("TableScan (t) rows=3"), std::string::npos) << join;
  EXPECT_NE(join.find("TableScan (s) rows=2"), std::string::npos) << join;

  const std::string agg =
      Plan("EXPLAIN ANALYZE SELECT a, COUNT(*) FROM t GROUP BY a");
  EXPECT_NE(agg.find("HashAggregate (keys=1 aggs=1 by a) rows=3"),
            std::string::npos)
      << agg;
  EXPECT_NE(agg.find("groups=3"), std::string::npos) << agg;
  EXPECT_NE(agg.find("TableScan (t) rows=3"), std::string::npos) << agg;
}

TEST_F(ObservabilityTest, ExplainAnalyzeReportsRowsAndTime) {
  SetUpSmallTables();
  // Default (columnar) and budgeted (row) plans report the same counts.
  for (int64_t budget : {int64_t{-1}, std::numeric_limits<int64_t>::max()}) {
    system_.sql_engine()->set_memory_limit(budget);
    const std::string plan =
        Plan("EXPLAIN ANALYZE SELECT b FROM t WHERE a >= 2");
    EXPECT_NE(plan.find("Filter ((a >= 2)) rows=2"), std::string::npos)
        << plan;
    EXPECT_NE(plan.find("Scan (t) rows=3"), std::string::npos) << plan;
    EXPECT_NE(plan.find("time="), std::string::npos) << plan;
  }
}

TEST_F(ObservabilityTest, ExplainAnalyzeHashJoinCounters) {
  SetUpSmallTables();
  const std::string plan =
      Plan("EXPLAIN ANALYZE SELECT t.b FROM t, s WHERE t.a = s.a");
  EXPECT_NE(plan.find("build_rows=2"), std::string::npos) << plan;
  EXPECT_NE(plan.find("buckets="), std::string::npos) << plan;
}

// The hash operators report which KeyIndex path their keys took: integer
// keys encode, string keys go to the Row-keyed fallback (DESIGN.md §12).
TEST_F(ObservabilityTest, ExplainAnalyzeReportsKeyIndexPath) {
  SetUpSmallTables();
  MustSql("INSERT INTO t VALUES (1,'x'), (2,'y')");
  auto line = [](const std::string& plan, const std::string& op) {
    const size_t at = plan.find(op);
    EXPECT_NE(at, std::string::npos) << plan;
    if (at == std::string::npos) return std::string();
    return plan.substr(at, plan.find('\n', at) - at);
  };

  const std::string ints = line(
      Plan("EXPLAIN ANALYZE SELECT DISTINCT a FROM t"), "Distinct");
  EXPECT_NE(ints.find("kept_rows=3"), std::string::npos) << ints;
  EXPECT_NE(ints.find("est_bytes="), std::string::npos) << ints;
  EXPECT_NE(ints.find("encoded_keys=3"), std::string::npos) << ints;
  EXPECT_NE(ints.find("generic_keys=0"), std::string::npos) << ints;

  const std::string strings = line(
      Plan("EXPLAIN ANALYZE SELECT DISTINCT b FROM t"), "Distinct");
  EXPECT_NE(strings.find("kept_rows=3"), std::string::npos) << strings;
  EXPECT_NE(strings.find("encoded_keys=0"), std::string::npos) << strings;
  EXPECT_NE(strings.find("generic_keys=3"), std::string::npos) << strings;

  const std::string join = line(
      Plan("EXPLAIN ANALYZE SELECT t.b FROM t, s WHERE t.a = s.a"),
      "HashJoin");
  EXPECT_NE(join.find("encoded_keys=2"), std::string::npos) << join;
  EXPECT_NE(join.find("generic_keys=0"), std::string::npos) << join;

  const std::string agg = line(
      Plan("EXPLAIN ANALYZE SELECT b, COUNT(*) FROM t GROUP BY b"),
      "HashAggregate");
  EXPECT_NE(agg.find("encoded_keys=0"), std::string::npos) << agg;
  EXPECT_NE(agg.find("generic_keys=3"), std::string::npos) << agg;

  const std::string int_agg = line(
      Plan("EXPLAIN ANALYZE SELECT a, COUNT(*) FROM t GROUP BY a"),
      "HashAggregate");
  EXPECT_NE(int_agg.find("encoded_keys=3"), std::string::npos) << int_agg;
  EXPECT_NE(int_agg.find("generic_keys=0"), std::string::npos) << int_agg;
}

// ANALYZE on a side-effecting statement profiles the SELECT only: the
// insert must not happen.
TEST_F(ObservabilityTest, ExplainAnalyzeInsertAppliesNoSideEffects) {
  SetUpSmallTables();
  const std::string plan =
      Plan("EXPLAIN ANALYZE INSERT INTO t (SELECT a + 10, b FROM t)");
  EXPECT_NE(plan.find("rows=3"), std::string::npos) << plan;
  sql::QueryResult count = MustSql("SELECT COUNT(*) FROM t");
  EXPECT_EQ(count.rows[0][0].AsInteger(), 3);
}

TEST_F(ObservabilityTest, ExplainRejectsUnsupportedStatements) {
  SetUpSmallTables();
  auto result = system_.ExecuteSql("EXPLAIN DROP TABLE t");
  ASSERT_FALSE(result.ok());
  auto nested = system_.ExecuteSql("EXPLAIN EXPLAIN SELECT a FROM t");
  ASSERT_FALSE(nested.ok());
}

mr::MiningRunStats MustMine(mr::DataMiningSystem* system,
                            const std::string& statement) {
  auto stats = system->ExecuteMineRule(statement);
  EXPECT_TRUE(stats.ok()) << stats.status();
  return stats.ok() ? std::move(stats).value() : mr::MiningRunStats{};
}

const char* kSimpleStatement =
    "MINE RULE Basket AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS "
    "HEAD, SUPPORT, CONFIDENCE FROM Purchase GROUP BY customer "
    "EXTRACTING RULES WITH SUPPORT: 0.15, CONFIDENCE: 0.3";

class MiningObservabilityTest : public ObservabilityTest {
 protected:
  void SetUpRetail() {
    datagen::RetailParams params;
    params.num_customers = 40;
    params.num_items = 40;
    auto table =
        datagen::GenerateRetailTable(&catalog_, "Purchase", params);
    ASSERT_TRUE(table.ok()) << table.status();
  }
};

// Every generated query's operator profile must agree with the query-level
// row count: the root operator saw exactly the rows the query returned or
// inserted.
TEST_F(MiningObservabilityTest, OperatorRowCountsMatchQueryTotals) {
  SetUpRetail();
  mr::MiningRunStats stats = MustMine(&system_, kSimpleStatement);
  int profiled = 0;
  for (const auto* queries :
       {&stats.preprocess_queries, &stats.postprocess_queries}) {
    for (const mr::QueryStat& q : *queries) {
      if (q.operators.empty()) continue;  // DDL has no plan
      ++profiled;
      EXPECT_EQ(q.operators.front().depth, 0) << q.sql;
      EXPECT_EQ(q.operators.front().rows, q.rows) << q.sql;
    }
  }
  EXPECT_GE(profiled, 5);
}

TEST_F(MiningObservabilityTest, PerPassCountersArePopulated) {
  SetUpRetail();
  SpanTracer& tracer = GlobalTracer();
  tracer.Clear();
  tracer.Enable(true);
  mr::MiningRunStats stats = MustMine(&system_, kSimpleStatement);
  tracer.Enable(false);
  EXPECT_FALSE(stats.core.used_general);
  // The default simple-core member is the paper's gid-list scheme.
  EXPECT_EQ(stats.core.algorithm, "gidlist");
  EXPECT_GE(stats.core.simple.passes, 1);
  ASSERT_FALSE(stats.core.simple.candidates_per_level.empty());
  ASSERT_FALSE(stats.core.simple.large_per_level.empty());
  // Level 1 candidates are the frequent-item candidates: at least as many
  // as survived.
  EXPECT_GE(stats.core.simple.candidates_per_level[0],
            stats.core.simple.large_per_level[0]);
  EXPECT_GT(stats.core.rules_found, 0);

  // The hand-off of the encoded tables is timed as a part of the core.
  EXPECT_GT(stats.handoff_seconds, 0);
  EXPECT_LE(stats.handoff_seconds, stats.core_seconds);

  // The tracer's phase spans cover all four phases, in pipeline order, and
  // the core carries one span each for the hand-off, the transaction index
  // and the rule derivation.
  std::vector<std::string> spans;
  std::map<std::string, int> core_spans;
  for (const SpanEvent& event : tracer.Snapshot()) {
    if (std::string(event.category) == "phase") spans.push_back(event.name);
    if (std::string(event.category) == "core") ++core_spans[event.name];
  }
  tracer.Clear();
  EXPECT_EQ(spans, (std::vector<std::string>{"translate", "preprocess",
                                             "core", "postprocess"}));
  EXPECT_EQ(core_spans["core.handoff"], 1);
  EXPECT_EQ(core_spans["core.transactions"], 1);
  EXPECT_EQ(core_spans["core.rules"], 1);

  // Pool usage: per-worker vectors sized to the pool, totals consistent.
  EXPECT_GE(stats.pool.workers, 1);
  EXPECT_EQ(stats.pool.per_worker_busy_micros.size(),
            static_cast<size_t>(stats.pool.workers));
}

TEST_F(MiningObservabilityTest, ToJsonRoundTripsThroughValidator) {
  SetUpRetail();
  mr::MiningRunStats stats = MustMine(&system_, kSimpleStatement);
  const std::string json = stats.ToJson();
  Status valid = ValidateJson(json);
  EXPECT_TRUE(valid.ok()) << valid << "\n" << json;
  for (const char* key :
       {"\"directives\"", "\"phases\"", "\"handoff_seconds\"",
        "\"preprocess_queries\"", "\"postprocess_queries\"", "\"core\"",
        "\"thread_pool\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // Phase spans belong to the tracer alone; the JSON carries no copy.
  EXPECT_EQ(json.find("\"trace\""), std::string::npos);
}

TEST_F(MiningObservabilityTest, DhpCountersSurfaceThroughRunStats) {
  SetUpRetail();
  mr::MiningOptions options;
  options.algorithm = mining::SimpleAlgorithm::kDhp;
  auto stats = system_.ExecuteMineRule(kSimpleStatement, options);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats.value().core.algorithm, "dhp");
  // The hash filter saw the raw pair space and kept a subset.
  EXPECT_GT(stats.value().core.simple.dhp_unfiltered_pairs, 0);
  EXPECT_LE(stats.value().core.simple.dhp_filtered_pairs,
            stats.value().core.simple.dhp_unfiltered_pairs);
}

TEST_F(MiningObservabilityTest, PartitionSliceSizesSurfaceThroughRunStats) {
  SetUpRetail();
  mr::MiningOptions options;
  options.algorithm = mining::SimpleAlgorithm::kPartition;
  auto stats = system_.ExecuteMineRule(kSimpleStatement, options);
  ASSERT_TRUE(stats.ok()) << stats.status();
  const auto& sizes = stats.value().core.simple.partition_slice_sizes;
  ASSERT_EQ(sizes.size(), 4u);
  int64_t total = 0;
  for (int64_t s : sizes) total += s;
  // The slices cover every group that has at least one frequent item.
  EXPECT_GT(total, 0);
  EXPECT_LE(total, stats.value().total_groups);
}

}  // namespace
}  // namespace minerule
