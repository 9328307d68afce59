// Differential tests of disk-backed execution under a memory budget
// (DESIGN.md §13): every query must produce BIT-identical results — same
// rows in the same order, or the same error — with the budget off, at a
// budget of zero (everything spills), one byte, and a mid-sized budget, at
// every thread count. The unbudgeted baseline runs batches over the scans'
// columnar images while any budget keeps the images unbuilt and a serial
// plan on rows (DESIGN.md §12), so every comparison here is also columnar
// against row. Also covers the spill
// observability counters, the MINERULE_MEMORY_LIMIT seeding,
// MiningOptions::memory_limit plumbing, the all-NULL-build-key estimate,
// error propagation mid-spill, and the no-leaked-temp-files guarantee.

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "datagen/retail_gen.h"
#include "engine/data_mining_system.h"
#include "sql/engine.h"

namespace minerule {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};
// -1 restates the baseline; 0 spills everything; 1 spills everything past
// the first row; 64 KiB exercises the buffer-then-overflow transition.
constexpr int64_t kBudgets[] = {-1, 0, 1, 64 * 1024};

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

int CountDirEntries(const std::string& dir) {
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return -1;
  int n = 0;
  while (dirent* entry = readdir(d)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") ++n;
  }
  closedir(d);
  return n;
}

class SpillDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  SpillDifferentialTest() : engine_(&catalog_) {}

  void GenerateTables(uint64_t seed) {
    Random rng(seed);
    auto big = catalog_.CreateTable(
        "L", Schema({{"k", DataType::kInteger}, {"v", DataType::kInteger}}));
    auto small = catalog_.CreateTable(
        "R", Schema({{"k", DataType::kInteger}, {"w", DataType::kInteger}}));
    auto empty = catalog_.CreateTable(
        "E", Schema({{"k", DataType::kInteger}, {"w", DataType::kInteger}}));
    auto null_keys = catalog_.CreateTable(
        "N", Schema({{"k", DataType::kInteger}, {"w", DataType::kInteger}}));
    ASSERT_TRUE(big.ok());
    ASSERT_TRUE(small.ok());
    ASSERT_TRUE(empty.ok());
    ASSERT_TRUE(null_keys.ok());
    // > kMorselRows rows with ~5% NULL keys; string payloads vary record
    // width so the sampled-width estimates see real variance.
    for (int i = 0; i < 3000; ++i) {
      Value key = rng.NextBool(0.05) ? Value::Null()
                                     : Value::Integer(rng.NextInt(0, 200));
      big.value()->AppendUnchecked({key, Value::Integer(rng.NextInt(0, 999))});
    }
    for (int i = 0; i < 500; ++i) {
      Value key = rng.NextBool(0.05) ? Value::Null()
                                     : Value::Integer(rng.NextInt(0, 200));
      small.value()->AppendUnchecked(
          {key, Value::Integer(rng.NextInt(0, 999))});
    }
    // Every build key NULL: the join builds an empty table and must still
    // report a sane memory estimate (the consumed-row fallback).
    for (int i = 0; i < 50; ++i) {
      null_keys.value()->AppendUnchecked({Value::Null(), Value::Integer(i)});
    }
  }

  /// Runs `sql` with the budget off on one thread as the baseline, then at
  /// every budget x thread-count combination, requiring identical rows.
  void ExpectIdenticalAcrossBudgets(const std::string& sql) {
    engine_.set_memory_limit(-1);
    engine_.set_num_threads(1);
    auto base = engine_.Execute(sql);
    ASSERT_TRUE(base.ok()) << sql << " -> " << base.status();
    const std::vector<std::string> baseline = RenderRows(base.value().rows);
    for (int64_t budget : kBudgets) {
      for (int threads : kThreadCounts) {
        engine_.set_memory_limit(budget);
        engine_.set_num_threads(threads);
        auto result = engine_.Execute(sql);
        ASSERT_TRUE(result.ok()) << sql << " failed at budget " << budget
                                 << "@" << threads << ": " << result.status();
        EXPECT_EQ(RenderRows(result.value().rows), baseline)
            << sql << " diverged at budget " << budget << "@" << threads;
      }
    }
    engine_.set_memory_limit(-1);
    engine_.set_num_threads(1);
  }

  const sql::OperatorProfile* FindOp(
      const std::vector<sql::OperatorProfile>& ops, const std::string& name) {
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

TEST_P(SpillDifferentialTest, QuerySweepBitIdenticalAcrossBudgets) {
  GenerateTables(GetParam());
  const char* queries[] = {
      // External merge sort: several runs at budget 0, multi-key order.
      "SELECT k, v FROM L ORDER BY k DESC, v",
      "SELECT v, v * 2 + 1 FROM L WHERE v > 100 ORDER BY v DESC, k",
      // Grace hash join, with and without a residual predicate.
      "SELECT L.k, L.v, R.w FROM L, R WHERE L.k = R.k",
      "SELECT L.v, R.w FROM L, R WHERE L.k = R.k AND L.v < R.w",
      // Empty and all-NULL build sides under a budget.
      "SELECT L.v, E.w FROM L, E WHERE L.k = E.k",
      "SELECT L.v, N.w FROM L, N WHERE L.k = N.k",
      // Partitioned aggregation; SUM/AVG are order-sensitive, so the leaf
      // accumulation order must reproduce the serial order bit-for-bit.
      "SELECT k, COUNT(*), MIN(v), MAX(v) FROM L GROUP BY k",
      "SELECT k, SUM(v), AVG(v) FROM L GROUP BY k",
      "SELECT COUNT(*), MIN(v), MAX(v) FROM L",
      "SELECT k, COUNT(DISTINCT v) FROM L GROUP BY k",
      // First-seen group emission order survives the spill round trip.
      "SELECT DISTINCT k FROM L",
      // All three spilling operators stacked in one plan.
      "SELECT L.k, COUNT(*) FROM L, R WHERE L.k = R.k GROUP BY L.k "
      "HAVING COUNT(*) > 2 ORDER BY L.k",
      "SELECT k, v FROM L ORDER BY v, k LIMIT 37",
      "SELECT v FROM (SELECT v FROM L WHERE k < 100) AS sub ORDER BY v",
  };
  for (const char* sql : queries) {
    ExpectIdenticalAcrossBudgets(sql);
  }
}

TEST_P(SpillDifferentialTest, NextValStaysInMemoryUnderBudget) {
  GenerateTables(GetParam());
  // NEXTVAL makes the plan impure: the buffering operators must keep their
  // in-memory path (no spill) and the numbering must still come out in scan
  // order at every budget.
  std::vector<std::string> baseline;
  bool have_baseline = false;
  for (int64_t budget : kBudgets) {
    for (int threads : kThreadCounts) {
      (void)engine_.Execute("DROP SEQUENCE IF EXISTS seq");
      ASSERT_TRUE(engine_.Execute("CREATE SEQUENCE seq START WITH 1").ok());
      engine_.set_memory_limit(budget);
      engine_.set_num_threads(threads);
      auto result =
          engine_.Execute("SELECT seq.NEXTVAL, v FROM L WHERE v > 100");
      ASSERT_TRUE(result.ok()) << result.status();
      std::vector<std::string> rendered = RenderRows(result.value().rows);
      if (!have_baseline) {
        baseline = std::move(rendered);
        have_baseline = true;
        continue;
      }
      EXPECT_EQ(rendered, baseline)
          << "NEXTVAL diverged at budget " << budget << "@" << threads;
    }
  }
  engine_.set_memory_limit(-1);
  engine_.set_num_threads(1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpillDifferentialTest,
                         ::testing::Values(1u, 7u, 42u, 99991u));

class SpillCountersTest : public SpillDifferentialTest {};

TEST_P(SpillCountersTest, SpillMetricsSurfaceInProfileAndRegistry) {
  GenerateTables(GetParam());
  struct Case {
    const char* sql;
    const char* op;
    const char* metric_prefix;
  };
  const Case cases[] = {
      {"SELECT k, v FROM L ORDER BY k DESC, v", "Sort", "sql.sort"},
      {"SELECT L.k, R.w FROM L, R WHERE L.k = R.k", "HashJoin", "sql.join"},
      {"SELECT k, SUM(v) FROM L GROUP BY k", "HashAggregate",
       "sql.aggregate"},
  };
  for (const Case& c : cases) {
    minerule::Counter* bytes_metric = GlobalMetrics().GetCounter(
        std::string(c.metric_prefix) + ".spill_bytes");
    minerule::Counter* parts_metric = GlobalMetrics().GetCounter(
        std::string(c.metric_prefix) + ".spill_partitions");
    const int64_t bytes_before = bytes_metric->Value();
    const int64_t parts_before = parts_metric->Value();

    // Unlimited run: no spill counters in the profile.
    engine_.set_memory_limit(-1);
    auto base = engine_.Execute(c.sql);
    ASSERT_TRUE(base.ok()) << base.status();
    auto unlimited =
        engine_.Execute(std::string("EXPLAIN ANALYZE ") + c.sql);
    ASSERT_TRUE(unlimited.ok()) << unlimited.status();
    const sql::OperatorProfile* op =
        FindOp(unlimited.value().profile, c.op);
    ASSERT_NE(op, nullptr) << c.sql;
    EXPECT_EQ(Counter(*op, "spill_bytes"), -1) << c.sql;

    // Budget 0: everything spills, and the rows still match.
    engine_.set_memory_limit(0);
    auto spilled = engine_.Execute(c.sql);
    ASSERT_TRUE(spilled.ok()) << spilled.status();
    EXPECT_EQ(RenderRows(spilled.value().rows), RenderRows(base.value().rows))
        << c.sql;
    auto budgeted = engine_.Execute(std::string("EXPLAIN ANALYZE ") + c.sql);
    ASSERT_TRUE(budgeted.ok()) << budgeted.status();
    op = FindOp(budgeted.value().profile, c.op);
    ASSERT_NE(op, nullptr) << c.sql;
    EXPECT_GT(Counter(*op, "spill_bytes"), 0) << c.sql;
    EXPECT_GT(Counter(*op, "spill_partitions"), 0) << c.sql;
    EXPECT_GT(bytes_metric->Value(), bytes_before) << c.sql;
    EXPECT_GT(parts_metric->Value(), parts_before) << c.sql;
  }
  engine_.set_memory_limit(-1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpillCountersTest, ::testing::Values(42u));

class SpillErrorTest : public SpillDifferentialTest {};

TEST_P(SpillErrorTest, ErrorMidSpillPropagatesAndLeaksNothing) {
  GenerateTables(GetParam());
  // A dedicated spill directory we can inspect: spill files are unlinked at
  // creation, so it must stay empty even while queries run or fail.
  const std::string dir = ::testing::TempDir() + "/minerule_spill_test";
  mkdir(dir.c_str(), 0755);
  ASSERT_EQ(CountDirEntries(dir), 0) << "stale files in " << dir;
  engine_.set_spill_dir(dir);

  // The sort key divides by zero on the row where v == 500; L almost surely
  // has one, but make it certain.
  auto table = catalog_.GetTable("L");
  ASSERT_TRUE(table.ok());
  table.value()->AppendUnchecked({Value::Integer(0), Value::Integer(500)});

  const std::string poison = "SELECT v FROM L ORDER BY 1 / (v - 500)";
  engine_.set_memory_limit(-1);
  auto base = engine_.Execute(poison);
  ASSERT_FALSE(base.ok());

  for (int64_t budget : {int64_t{0}, int64_t{1024}}) {
    engine_.set_memory_limit(budget);
    auto result = engine_.Execute(poison);
    ASSERT_FALSE(result.ok()) << "budget " << budget;
    // Same failure as the in-memory path: the keys are evaluated in input
    // order on both, so the first failing row is the same.
    EXPECT_EQ(result.status().ToString(), base.status().ToString())
        << "budget " << budget;
    EXPECT_EQ(CountDirEntries(dir), 0) << "leak at budget " << budget;

    // The engine stays healthy: the next spilling query succeeds.
    auto next = engine_.Execute("SELECT k, v FROM L ORDER BY k DESC, v");
    ASSERT_TRUE(next.ok()) << next.status();
  }
  EXPECT_EQ(CountDirEntries(dir), 0);
  engine_.set_memory_limit(-1);
  engine_.set_spill_dir("");
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpillErrorTest, ::testing::Values(7u));

TEST(SpillConfigTest, EnvironmentVariableSeedsTheEngineBudget) {
  Catalog catalog;
  ASSERT_EQ(setenv("MINERULE_MEMORY_LIMIT", "2048", 1), 0);
  {
    sql::SqlEngine engine(&catalog);
    EXPECT_EQ(engine.memory_limit(), 2048);
  }
  // Unparsable values are ignored, not misread.
  ASSERT_EQ(setenv("MINERULE_MEMORY_LIMIT", "lots", 1), 0);
  {
    sql::SqlEngine engine(&catalog);
    EXPECT_EQ(engine.memory_limit(), -1);
  }
  ASSERT_EQ(unsetenv("MINERULE_MEMORY_LIMIT"), 0);
  {
    sql::SqlEngine engine(&catalog);
    EXPECT_EQ(engine.memory_limit(), -1);
  }
}

// A full MINE RULE run with a tiny budget must leave a byte-identical
// catalog: the generated preprocessing/postprocessing queries all run
// through the spilling operators.
TEST(MineRuleSpillTest, WholePipelineBitIdenticalUnderBudget) {
  const char* text =
      "MINE RULE S AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD "
      "FROM Purchase GROUP BY customer EXTRACTING RULES WITH SUPPORT: 0.05, "
      "CONFIDENCE: 0.3";
  std::string baseline;
  bool have_baseline = false;
  // An explicit -1 baseline keeps the columnar side in the comparison even
  // when MINERULE_MEMORY_LIMIT seeds the engine with a budget.
  for (int64_t budget : {int64_t{-1}, int64_t{0}, int64_t{4096}}) {
    for (int threads : {1, 8}) {
      Catalog catalog;
      mr::DataMiningSystem system(&catalog);
      datagen::RetailParams params;
      params.num_customers = 120;
      params.num_items = 40;
      ASSERT_TRUE(
          datagen::GenerateRetailTable(&catalog, "Purchase", params).ok());
      mr::MiningOptions options;
      options.num_threads = threads;
      options.memory_limit = budget;
      options.keep_encoded_tables = true;
      auto stats = system.ExecuteMineRule(text, options);
      ASSERT_TRUE(stats.ok()) << stats.status();

      std::string dump;
      std::vector<std::string> names = catalog.TableNames();
      std::sort(names.begin(), names.end());
      for (const std::string& name : names) {
        auto table = catalog.GetTable(name);
        if (!table.ok()) continue;
        dump += "== " + name + "\n";
        for (const std::string& line :
             RenderRows(table.value()->rows())) {
          dump += line + "\n";
        }
      }
      if (!have_baseline) {
        baseline = std::move(dump);
        have_baseline = true;
        continue;
      }
      EXPECT_EQ(dump, baseline)
          << "catalog diverged at budget " << budget << "@" << threads;
    }
  }
}

}  // namespace
}  // namespace minerule
