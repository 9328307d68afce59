// Differential tests of morsel-driven parallel execution (DESIGN.md §9):
// every query result must be BIT-identical — same rows in the same order —
// at every thread count. Covers the randomized SELECT surface (joins,
// aggregation, DISTINCT, ORDER BY, HAVING, LIMIT, subqueries), the NEXTVAL
// serial gate, full MINE RULE runs (preprocessor Q0..Q11 + postprocessor
// over identical catalogs), and the workers/morsels observability counters.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "datagen/retail_gen.h"
#include "engine/data_mining_system.h"
#include "sql/engine.h"

namespace minerule {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

std::vector<std::string> RenderRows(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) {
    std::string line;
    for (const Value& v : row) {
      line += v.ToString();
      line += '|';
    }
    out.push_back(std::move(line));
  }
  return out;
}

/// Serializes every table in the catalog — names, schemas, and all rows in
/// stored order — so two catalogs compare byte-identical.
std::string DumpCatalog(Catalog* catalog) {
  std::vector<std::string> names = catalog->TableNames();
  std::sort(names.begin(), names.end());
  std::string dump;
  for (const std::string& name : names) {
    auto table = catalog->GetTable(name);
    if (!table.ok()) continue;
    dump += "== " + name + "\n";
    for (const Column& col : table.value()->schema().columns()) {
      dump += col.name + ":" + std::to_string(static_cast<int>(col.type)) + ",";
    }
    dump += "\n";
    for (const std::string& line : RenderRows(table.value()->rows())) {
      dump += line + "\n";
    }
  }
  return dump;
}

class SqlParallelDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  SqlParallelDifferentialTest() : engine_(&catalog_) {}

  void GenerateTables(uint64_t seed) {
    Random rng(seed);
    auto big = catalog_.CreateTable(
        "L", Schema({{"k", DataType::kInteger}, {"v", DataType::kInteger}}));
    auto small = catalog_.CreateTable(
        "R", Schema({{"k", DataType::kInteger}, {"w", DataType::kInteger}}));
    auto empty = catalog_.CreateTable(
        "E", Schema({{"k", DataType::kInteger}, {"w", DataType::kInteger}}));
    ASSERT_TRUE(big.ok());
    ASSERT_TRUE(small.ok());
    ASSERT_TRUE(empty.ok());
    // > kMorselRows rows so parallel runs span several morsels; ~5% NULL
    // keys to exercise null-join and null-group semantics.
    for (int i = 0; i < 3000; ++i) {
      Value key = rng.NextBool(0.05) ? Value::Null()
                                     : Value::Integer(rng.NextInt(0, 200));
      big.value()->AppendUnchecked(
          {key, Value::Integer(rng.NextInt(0, 999))});
    }
    for (int i = 0; i < 500; ++i) {
      Value key = rng.NextBool(0.05) ? Value::Null()
                                     : Value::Integer(rng.NextInt(0, 200));
      small.value()->AppendUnchecked(
          {key, Value::Integer(rng.NextInt(0, 999))});
    }
  }

  /// Runs `sql` at every thread count and requires the results to be
  /// row-for-row identical to the serial (threads == 1) baseline.
  void ExpectIdenticalAcrossThreadCounts(const std::string& sql) {
    std::vector<std::string> baseline;
    for (int threads : kThreadCounts) {
      engine_.set_num_threads(threads);
      auto result = engine_.Execute(sql);
      ASSERT_TRUE(result.ok()) << sql << " -> " << result.status();
      std::vector<std::string> rendered = RenderRows(result.value().rows);
      if (threads == 1) {
        baseline = std::move(rendered);
        continue;
      }
      EXPECT_EQ(rendered, baseline)
          << sql << " diverged at " << threads << " threads";
    }
    engine_.set_num_threads(1);
  }

  Catalog catalog_;
  sql::SqlEngine engine_;
};

TEST_P(SqlParallelDifferentialTest, QuerySweepBitIdentical) {
  GenerateTables(GetParam());
  const char* queries[] = {
      // Fused scan+filter+project.
      "SELECT v, v * 2 + 1 FROM L WHERE v > 500",
      // Hash join: parallel partitioned build + morsel probe.
      "SELECT L.k, L.v, R.w FROM L, R WHERE L.k = R.k",
      // Join with residual predicate.
      "SELECT L.v, R.w FROM L, R WHERE L.k = R.k AND L.v < R.w",
      // Empty build side: probe-side scan skipped.
      "SELECT L.v, E.w FROM L, E WHERE L.k = E.k",
      // Merge-exact aggregates: parallel with deterministic group order.
      "SELECT k, COUNT(*), MIN(v), MAX(v) FROM L GROUP BY k",
      "SELECT k, COUNT(DISTINCT v) FROM L GROUP BY k",
      "SELECT COUNT(*), MIN(v), MAX(v) FROM L",
      // SUM/AVG are order-sensitive: serial fallback, still identical.
      "SELECT k, SUM(v), AVG(v) FROM L GROUP BY k",
      // DISTINCT keeps the serial first-seen order.
      "SELECT DISTINCT k FROM L",
      "SELECT DISTINCT k, v / 100 FROM L",
      // Sort (parallel key evaluation, serial stable sort).
      "SELECT k, v FROM L ORDER BY k DESC, v",
      // Aggregation over a join, HAVING, ORDER BY.
      "SELECT L.k, COUNT(*) FROM L, R WHERE L.k = R.k GROUP BY L.k "
      "HAVING COUNT(*) > 2 ORDER BY L.k",
      // LIMIT stays serial; the rows it sees arrive in scan order.
      "SELECT k, v FROM L WHERE v >= 0 LIMIT 37",
      // Subquery materialization.
      "SELECT v FROM (SELECT v FROM L WHERE k < 100) AS sub WHERE v < 900",
  };
  for (const char* sql : queries) {
    ExpectIdenticalAcrossThreadCounts(sql);
  }
}

TEST_P(SqlParallelDifferentialTest, MemoryBudgetKeepsThreadCountInvariance) {
  GenerateTables(GetParam());
  // With a one-byte budget every buffering operator spills (DESIGN.md §13)
  // and the scans run row-at-a-time; the disk-backed paths must preserve the
  // bit-identity guarantee across thread counts, and match the unbudgeted
  // (columnar) serial baseline exactly.
  const char* queries[] = {
      "SELECT k, v FROM L ORDER BY k DESC, v",
      "SELECT L.k, L.v, R.w FROM L, R WHERE L.k = R.k",
      "SELECT k, SUM(v), AVG(v) FROM L GROUP BY k",
      "SELECT L.k, COUNT(*) FROM L, R WHERE L.k = R.k GROUP BY L.k "
      "HAVING COUNT(*) > 2 ORDER BY L.k",
  };
  for (const char* sql : queries) {
    engine_.set_memory_limit(-1);
    auto base = engine_.Execute(sql);
    ASSERT_TRUE(base.ok()) << sql << " -> " << base.status();
    std::vector<std::string> baseline = RenderRows(base.value().rows);
    engine_.set_memory_limit(1);
    for (int threads : kThreadCounts) {
      engine_.set_num_threads(threads);
      auto result = engine_.Execute(sql);
      ASSERT_TRUE(result.ok()) << sql << " -> " << result.status();
      EXPECT_EQ(RenderRows(result.value().rows), baseline)
          << sql << " diverged under budget at " << threads << " threads";
    }
    engine_.set_memory_limit(-1);
    engine_.set_num_threads(1);
  }
}

TEST_P(SqlParallelDifferentialTest, NextValForcesSerialAndStaysCorrect) {
  GenerateTables(GetParam());
  // NEXTVAL mutates the catalog, so any operator evaluating it must stay on
  // the serial path; the numbering must come out in scan order regardless
  // of the thread knob.
  std::vector<std::string> baseline;
  for (int threads : kThreadCounts) {
    (void)engine_.Execute("DROP SEQUENCE IF EXISTS seq");
    ASSERT_TRUE(engine_.Execute("CREATE SEQUENCE seq START WITH 1").ok());
    engine_.set_num_threads(threads);
    auto result =
        engine_.Execute("SELECT seq.NEXTVAL, v FROM L WHERE v > 100");
    ASSERT_TRUE(result.ok()) << result.status();
    std::vector<std::string> rendered = RenderRows(result.value().rows);
    if (threads == 1) {
      baseline = std::move(rendered);
      continue;
    }
    EXPECT_EQ(rendered, baseline) << "NEXTVAL diverged at " << threads;
  }
  engine_.set_num_threads(1);
}

TEST_P(SqlParallelDifferentialTest, ShuffleInvarianceOfAggregates) {
  GenerateTables(GetParam());
  // Shuffle L into L2: first-seen group order changes, but the set of
  // (group, aggregates) rows must not — at any thread count.
  auto source = catalog_.GetTable("L");
  ASSERT_TRUE(source.ok());
  std::vector<Row> rows = source.value()->rows();
  Random rng(GetParam() ^ 0x5eedu);
  for (size_t i = rows.size(); i > 1; --i) {
    std::swap(rows[i - 1],
              rows[static_cast<size_t>(rng.NextInt(0, static_cast<int64_t>(i) - 1))]);
  }
  auto shuffled = catalog_.CreateTable("L2", source.value()->schema());
  ASSERT_TRUE(shuffled.ok());
  for (Row& row : rows) shuffled.value()->AppendUnchecked(std::move(row));

  const std::string agg = ", COUNT(*), COUNT(DISTINCT v), MIN(v), MAX(v)";
  for (int threads : kThreadCounts) {
    engine_.set_num_threads(threads);
    auto original = engine_.Execute("SELECT k" + agg + " FROM L GROUP BY k");
    auto reordered = engine_.Execute("SELECT k" + agg + " FROM L2 GROUP BY k");
    ASSERT_TRUE(original.ok()) << original.status();
    ASSERT_TRUE(reordered.ok()) << reordered.status();
    std::vector<std::string> a = RenderRows(original.value().rows);
    std::vector<std::string> b = RenderRows(reordered.value().rows);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "shuffle variance at " << threads << " threads";
  }
  engine_.set_num_threads(1);
  ASSERT_TRUE(catalog_.DropTable("L2").ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlParallelDifferentialTest,
                         ::testing::Values(1u, 7u, 42u, 99991u));

class ParallelCountersTest : public ::testing::Test {
 protected:
  ParallelCountersTest() : engine_(&catalog_) {}

  const sql::OperatorProfile* FindOp(const std::vector<sql::OperatorProfile>& ops,
                                     const std::string& name) {
    for (const sql::OperatorProfile& op : ops) {
      if (op.name == name) return &op;
    }
    return nullptr;
  }

  int64_t Counter(const sql::OperatorProfile& op, const std::string& key) {
    for (const auto& [k, v] : op.counters) {
      if (k == key) return v;
    }
    return -1;
  }

  Catalog catalog_;
  sql::SqlEngine engine_;
};

TEST_F(ParallelCountersTest, WorkersAndMorselsSurfaceInAnalyzeProfile) {
  auto table = catalog_.CreateTable(
      "T", Schema({{"k", DataType::kInteger}, {"v", DataType::kInteger}}));
  ASSERT_TRUE(table.ok());
  const size_t kRows = 5000;
  for (size_t i = 0; i < kRows; ++i) {
    table.value()->AppendUnchecked(
        {Value::Integer(static_cast<int64_t>(i % 97)),
         Value::Integer(static_cast<int64_t>(i))});
  }

  // Under a memory budget (one that never spills here) the TableScan
  // encodes each morsel's rows, and it and the Filter are both morsel
  // sources.
  engine_.set_memory_limit(std::numeric_limits<int64_t>::max());
  engine_.set_num_threads(8);
  auto result =
      engine_.Execute("EXPLAIN ANALYZE SELECT v FROM T WHERE v >= 1000");
  ASSERT_TRUE(result.ok()) << result.status();
  const auto& profile = result.value().profile;

  const sql::OperatorProfile* scan = FindOp(profile, "TableScan");
  ASSERT_NE(scan, nullptr);
  // The scan produced every input row, split over the fixed morsel count.
  EXPECT_EQ(scan->rows, static_cast<int64_t>(kRows));
  EXPECT_EQ(Counter(*scan, "morsels"),
            static_cast<int64_t>(MorselCount(kRows, sql::kMorselRows)));
  EXPECT_GE(Counter(*scan, "workers"), 1);

  const sql::OperatorProfile* filter = FindOp(profile, "Filter");
  ASSERT_NE(filter, nullptr);
  EXPECT_EQ(filter->rows, static_cast<int64_t>(kRows - 1000));
  EXPECT_EQ(Counter(*filter, "morsels"), Counter(*scan, "morsels"));

  // Serial run of the same query reports no parallel counters.
  engine_.set_num_threads(1);
  auto serial =
      engine_.Execute("EXPLAIN ANALYZE SELECT v FROM T WHERE v >= 1000");
  ASSERT_TRUE(serial.ok()) << serial.status();
  const sql::OperatorProfile* serial_scan =
      FindOp(serial.value().profile, "TableScan");
  ASSERT_NE(serial_scan, nullptr);
  EXPECT_EQ(Counter(*serial_scan, "morsels"), -1);

  // Unbudgeted, the same Filter is the morsel source over the scan's
  // columnar image, and the TableScan accounts every row it served.
  engine_.set_memory_limit(-1);
  engine_.set_num_threads(8);
  auto columnar =
      engine_.Execute("EXPLAIN ANALYZE SELECT v FROM T WHERE v >= 1000");
  ASSERT_TRUE(columnar.ok()) << columnar.status();
  const sql::OperatorProfile* columnar_filter =
      FindOp(columnar.value().profile, "Filter");
  ASSERT_NE(columnar_filter, nullptr);
  EXPECT_EQ(columnar_filter->rows, static_cast<int64_t>(kRows - 1000));
  EXPECT_EQ(Counter(*columnar_filter, "morsels"),
            static_cast<int64_t>(MorselCount(kRows, sql::kMorselRows)));
  EXPECT_GE(Counter(*columnar_filter, "workers"), 1);
  const sql::OperatorProfile* columnar_scan =
      FindOp(columnar.value().profile, "TableScan");
  ASSERT_NE(columnar_scan, nullptr);
  EXPECT_EQ(columnar_scan->rows, static_cast<int64_t>(kRows));
  EXPECT_GT(Counter(*columnar_scan, "est_bytes"), 0);
  engine_.set_num_threads(1);
}

TEST_F(ParallelCountersTest, EmptyBuildSkipsProbeSideScan) {
  auto probe = catalog_.CreateTable(
      "P", Schema({{"k", DataType::kInteger}, {"v", DataType::kInteger}}));
  auto build = catalog_.CreateTable(
      "B", Schema({{"k", DataType::kInteger}, {"w", DataType::kInteger}}));
  ASSERT_TRUE(probe.ok());
  ASSERT_TRUE(build.ok());
  for (int i = 0; i < 2000; ++i) {
    probe.value()->AppendUnchecked(
        {Value::Integer(i % 7), Value::Integer(i)});
  }

  engine_.set_memory_limit(-1);
  for (int threads : {1, 8}) {
    engine_.set_num_threads(threads);
    auto result = engine_.Execute(
        "EXPLAIN ANALYZE SELECT P.v, B.w FROM P, B WHERE P.k = B.k");
    ASSERT_TRUE(result.ok()) << result.status();
    const sql::OperatorProfile* join =
        FindOp(result.value().profile, "HashJoin");
    ASSERT_NE(join, nullptr);
    EXPECT_EQ(join->rows, 0);
    EXPECT_EQ(Counter(*join, "probe_skipped"), 1) << threads << " threads";
    // The probe-side scan (the first TableScan in plan order) never ran:
    // no rows pulled.
    const sql::OperatorProfile* scan =
        FindOp(result.value().profile, "TableScan");
    ASSERT_NE(scan, nullptr);
    EXPECT_EQ(scan->rows, 0);
  }
  engine_.set_num_threads(1);
}

// Full MINE RULE runs over identical source data must leave byte-identical
// catalogs (every preprocessor Q0..Q11 intermediate kept via
// keep_encoded_tables, the rule tables, and the postprocessor output) at
// every thread count.
TEST(MineRuleParallelTest, WholePipelineBitIdenticalAcrossThreadCounts) {
  const char* statements[] = {
      "MINE RULE S AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD "
      "FROM Purchase GROUP BY customer EXTRACTING RULES WITH SUPPORT: 0.05, "
      "CONFIDENCE: 0.3",
      "MINE RULE G AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, "
      "SUPPORT, CONFIDENCE WHERE BODY.price >= 100 AND HEAD.price < 100 "
      "FROM Purchase GROUP BY customer CLUSTER BY date HAVING BODY.date < "
      "HEAD.date EXTRACTING RULES WITH SUPPORT: 0.05, CONFIDENCE: 0.3",
  };
  for (const char* text : statements) {
    std::string baseline;
    int baseline_threads = 0;
    for (int threads : kThreadCounts) {
      Catalog catalog;
      mr::DataMiningSystem system(&catalog);
      datagen::RetailParams params;
      params.num_customers = 120;
      params.num_items = 40;
      ASSERT_TRUE(
          datagen::GenerateRetailTable(&catalog, "Purchase", params).ok());
      mr::MiningOptions options;
      options.num_threads = threads;
      options.keep_encoded_tables = true;
      auto stats = system.ExecuteMineRule(text, options);
      ASSERT_TRUE(stats.ok()) << stats.status();
      EXPECT_EQ(stats.value().engine_threads, ResolveThreadCount(threads));
      std::string dump = DumpCatalog(&catalog);
      if (baseline_threads == 0) {
        baseline = std::move(dump);
        baseline_threads = threads;
        continue;
      }
      EXPECT_EQ(dump, baseline)
          << "catalog diverged between " << baseline_threads << " and "
          << threads << " threads for: " << text;
    }
  }
}

}  // namespace
}  // namespace minerule
