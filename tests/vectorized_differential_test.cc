// Differential tests of the columnar scan path (DESIGN.md §12): every query
// must produce BIT-identical results — same rows in the same order, or the
// same error — on the default batches over the scans' columnar images and
// on the row path, where the same TableScan/Filter run on rows, at every
// thread count. The row path is the reference;
// an explicit memory budget that never spills selects it (the one selection
// rule), and both sides set their budget explicitly so MINERULE_MEMORY_LIMIT
// in the environment never changes what is compared. Covers the
// Q0..Q11-shaped SELECT surface (scan+filter, hash join over columnar
// inputs with probe skip, aggregation, DISTINCT, ORDER BY, HAVING, LIMIT,
// subqueries), every filter-kernel kind (int/int, int/double, double/double,
// dictionary, constant verdicts) plus the row-path fallbacks, randomized
// queries, DML through SELECT, and full MINE RULE runs compared by catalog
// dump.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "datagen/retail_gen.h"
#include "engine/data_mining_system.h"
#include "sql/engine.h"
#include "storage/storage_manager.h"

namespace minerule {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

/// Memory budgets selecting the two scan paths: none (columnar, the
/// default) and one no working set reaches (row, nothing spills).
constexpr int64_t kColumnar = -1;
constexpr int64_t kRowPath = std::numeric_limits<int64_t>::max();
constexpr int64_t kScanPaths[] = {kRowPath, kColumnar};

const char* ScanPathName(int64_t budget) {
  return budget == kColumnar ? "columnar" : "row";
}

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

class VectorizedDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  VectorizedDifferentialTest() : engine_(&catalog_) {}

  /// Tables covering every column encoding: F spans int64 (with NULLs),
  /// double, dictionary and date columns; D is a small int-keyed dimension;
  /// E is empty (probe-skip path); M has an INTEGER-declared column holding
  /// a mix of Integer / integral Double / fractional Double values, so the
  /// generic encoding and the canonical-int64 key split both get exercised.
  void GenerateTables(uint64_t seed) {
    StreamRng root(seed);
    auto facts = catalog_.CreateTable(
        "F", Schema({{"id", DataType::kInteger},
                     {"k", DataType::kInteger},
                     {"d", DataType::kDouble},
                     {"s", DataType::kString},
                     {"dt", DataType::kDate}}));
    auto dim = catalog_.CreateTable(
        "D", Schema({{"k", DataType::kInteger}, {"name", DataType::kString}}));
    auto empty = catalog_.CreateTable(
        "E", Schema({{"k", DataType::kInteger}, {"name", DataType::kString}}));
    auto mixed = catalog_.CreateTable(
        "M", Schema({{"a", DataType::kInteger}, {"b", DataType::kString}}));
    ASSERT_TRUE(facts.ok());
    ASSERT_TRUE(dim.ok());
    ASSERT_TRUE(empty.ok());
    ASSERT_TRUE(mixed.ok());

    // > kMorselRows rows so both the morsel scheduler and the batch loop
    // cross several boundaries; ~5% NULLs in every nullable column.
    Random f = root.Stream("facts");
    for (int i = 0; i < 3000; ++i) {
      Value k = f.NextBool(0.05) ? Value::Null()
                                 : Value::Integer(f.NextInt(0, 200));
      Value d = f.NextBool(0.05)
                    ? Value::Null()
                    : Value::Double(static_cast<double>(f.NextInt(0, 4000)) /
                                    8.0);
      Value s = f.NextBool(0.05)
                    ? Value::Null()
                    : Value::String("item_" + std::to_string(f.NextInt(0, 24)));
      Value dt = f.NextBool(0.05)
                     ? Value::Null()
                     : Value::Date(static_cast<int32_t>(f.NextInt(9000, 9365)));
      facts.value()->AppendUnchecked(
          {Value::Integer(i), std::move(k), std::move(d), std::move(s),
           std::move(dt)});
    }
    Random g = root.Stream("dim");
    for (int i = 0; i < 300; ++i) {
      Value k = g.NextBool(0.05) ? Value::Null()
                                 : Value::Integer(g.NextInt(0, 200));
      dim.value()->AppendUnchecked(
          {std::move(k), Value::String("d" + std::to_string(i % 40))});
    }
    Random m = root.Stream("mixed");
    for (int i = 0; i < 1500; ++i) {
      Value a;
      switch (m.NextBounded(4)) {
        case 0: a = Value::Integer(m.NextInt(0, 50)); break;
        case 1: a = Value::Double(static_cast<double>(m.NextInt(0, 50))); break;
        case 2: a = Value::Double(static_cast<double>(m.NextInt(0, 50)) + 0.5); break;
        default: a = Value::Null(); break;
      }
      mixed.value()->AppendUnchecked(
          {std::move(a), Value::String("m" + std::to_string(i % 15))});
    }
  }

  /// Runs `sql` on the row and the columnar scan path at every thread count
  /// and requires the outcome — rows in order, or the error — to be
  /// identical to the row-path serial baseline.
  void ExpectIdenticalAcrossModes(const std::string& sql) {
    engine_.set_memory_limit(kRowPath);
    engine_.set_num_threads(1);
    auto base = engine_.Execute(sql);
    std::vector<std::string> baseline_rows;
    std::string baseline_error;
    if (base.ok()) {
      baseline_rows = RenderRows(base.value().rows);
    } else {
      baseline_error = base.status().ToString();
    }
    for (int64_t budget : kScanPaths) {
      for (int threads : kThreadCounts) {
        engine_.set_memory_limit(budget);
        engine_.set_num_threads(threads);
        auto result = engine_.Execute(sql);
        const char* mode = ScanPathName(budget);
        if (base.ok()) {
          ASSERT_TRUE(result.ok())
              << sql << " failed on " << mode << "@" << threads << ": "
              << result.status();
          EXPECT_EQ(RenderRows(result.value().rows), baseline_rows)
              << sql << " diverged on " << mode << "@" << threads;
        } else {
          ASSERT_FALSE(result.ok())
              << sql << " unexpectedly succeeded on " << mode << "@" << threads;
          EXPECT_EQ(result.status().ToString(), baseline_error)
              << sql << " error diverged on " << mode << "@" << threads;
        }
      }
    }
    engine_.set_memory_limit(kColumnar);
    engine_.set_num_threads(1);
  }

  Catalog catalog_;
  sql::SqlEngine engine_;
};

TEST_P(VectorizedDifferentialTest, QuerySweepBitIdentical) {
  GenerateTables(GetParam());
  const char* queries[] = {
      // Fused scan+filter with an int64/int64 kernel.
      "SELECT id, k, d, s, dt FROM F WHERE k > 50",
      // Conjunction of kernels: two int kernels + a double kernel.
      "SELECT id FROM F WHERE k >= 10 AND k < 150 AND d > 2.5",
      // double/double kernel; <= keeps boundary rows.
      "SELECT id, d FROM F WHERE d <= 250.0",
      // Double column vs integer literal (exact-compare kernel).
      "SELECT id FROM F WHERE d < 100",
      // Integer column vs fractional double literal (truncation + tie sign).
      "SELECT id FROM F WHERE k > 3.5",
      "SELECT id FROM F WHERE k <= 199.25",
      // Integer column vs out-of-range / non-finite double: constant verdict.
      "SELECT id FROM F WHERE k < 1e300",
      "SELECT id FROM F WHERE k > 1e300",
      // Dictionary kernels: equality, range, inequality.
      "SELECT id, s FROM F WHERE s = 'item_3'",
      "SELECT id FROM F WHERE s >= 'item_2' AND s <> 'item_7'",
      "SELECT id FROM F WHERE s < 'item_12'",
      // Date kernels: DATE literal and coerced string literal.
      "SELECT id, dt FROM F WHERE dt >= DATE '1995-01-01'",
      "SELECT id FROM F WHERE dt < '1995-03-15'",
      // Non-kernelizable predicates fall back to row evaluation inside the
      // batch loop: arithmetic on the column, OR, IS NULL.
      "SELECT id FROM F WHERE k + 1 > 50",
      "SELECT id FROM F WHERE k > 150 OR d < 10",
      "SELECT id FROM F WHERE k IS NULL",
      // Int-keyed hash join over columnar inputs (NULL keys never match)
      // and join + filter.
      "SELECT F.id, D.name FROM F, D WHERE F.k = D.k",
      "SELECT F.id, D.name FROM F, D WHERE F.k = D.k AND F.d > 100",
      // Join with a residual predicate.
      "SELECT F.id FROM F, D WHERE F.k = D.k AND F.id < D.k",
      // Empty build side: probe scan skipped on both paths.
      "SELECT F.id, E.name FROM F, E WHERE F.k = E.k",
      // Int-keyed aggregation over a columnar scan.
      "SELECT k, COUNT(*), MIN(d), MAX(k) FROM F GROUP BY k",
      "SELECT k, SUM(d), AVG(d) FROM F GROUP BY k",
      "SELECT k, COUNT(d), SUM(k) FROM F GROUP BY k",
      // Global aggregate and aggregate over an empty input.
      "SELECT COUNT(*), SUM(k), AVG(d), MIN(s) FROM F",
      "SELECT COUNT(*), MIN(k) FROM E",
      // DISTINCT aggregates and string group keys.
      "SELECT k, COUNT(DISTINCT s) FROM F GROUP BY k",
      "SELECT s, COUNT(*), SUM(d) FROM F GROUP BY s",
      // Aggregation over a join, HAVING, ORDER BY, LIMIT.
      "SELECT D.k, COUNT(*), SUM(F.d) FROM F, D WHERE F.k = D.k GROUP BY D.k "
      "HAVING COUNT(*) > 2 ORDER BY D.k",
      "SELECT k, d FROM F WHERE d >= 0 ORDER BY k DESC, id LIMIT 37",
      "SELECT DISTINCT k FROM F",
      // Subquery: inner filter fuses with the scan, outer filter does not.
      "SELECT v FROM (SELECT k AS v FROM F WHERE k > 10) AS sub WHERE v < 100",
      // Mixed-type INTEGER column: canonical int64 vs generic key split.
      "SELECT a, COUNT(*) FROM M GROUP BY a",
      "SELECT F.id, M.b FROM F, M WHERE F.k = M.a",
      // Error parity: the dictionary column compared to an integer literal
      // raises the same per-row type error on both paths.
      "SELECT id FROM F WHERE s > 5",
  };
  for (const char* sql : queries) {
    ExpectIdenticalAcrossModes(sql);
  }
}

TEST_P(VectorizedDifferentialTest, RandomizedQueriesBitIdentical) {
  GenerateTables(GetParam());
  StreamRng root(GetParam());
  Random rng = root.Stream("queries");
  static const char* kOps[] = {"=", "<>", "<", "<=", ">", ">="};
  auto predicate = [&rng]() -> std::string {
    const char* op = kOps[rng.NextBounded(6)];
    switch (rng.NextBounded(6)) {
      case 0:
        return "F.k " + std::string(op) + " " +
               std::to_string(rng.NextInt(0, 200));
      case 1:
        return "F.k " + std::string(op) + " " +
               std::to_string(rng.NextInt(0, 200)) + "." +
               std::to_string(rng.NextInt(0, 9));
      case 2:
        return "F.d " + std::string(op) + " " +
               std::to_string(rng.NextInt(0, 500)) + ".5";
      case 3:
        return "F.d " + std::string(op) + " " +
               std::to_string(rng.NextInt(0, 500));
      case 4:
        return "F.s " + std::string(op) + " 'item_" +
               std::to_string(rng.NextInt(0, 30)) + "'";
      default:
        return "F.dt " + std::string(op) + " DATE '1995-0" +
               std::to_string(rng.NextInt(1, 6)) + "-15'";
    }
  };
  auto where = [&rng, &predicate]() -> std::string {
    std::string out = predicate();
    for (uint64_t extra = rng.NextBounded(3); extra > 0; --extra) {
      out += " AND " + predicate();
    }
    return out;
  };
  for (int i = 0; i < 40; ++i) {
    std::string sql;
    switch (rng.NextBounded(4)) {
      case 0:
        sql = "SELECT F.id, F.k, F.d FROM F WHERE " + where();
        break;
      case 1:
        sql = "SELECT F.id, D.name FROM F, D WHERE F.k = D.k AND " + where();
        break;
      case 2:
        sql = "SELECT F.k, COUNT(*), SUM(F.d), MIN(F.k), MAX(F.d) FROM F "
              "WHERE " + where() + " GROUP BY F.k";
        break;
      default:
        sql = "SELECT D.k, COUNT(*), AVG(F.d) FROM F, D WHERE F.k = D.k AND " +
              where() + " GROUP BY D.k";
        break;
    }
    ExpectIdenticalAcrossModes(sql);
  }
}

TEST_P(VectorizedDifferentialTest, MemoryBudgetDisablesVectorizedSubstitution) {
  GenerateTables(GetParam());
  // The columnar image has no spill story, so under a budget the scan never
  // builds it and the spill operators read rows (DESIGN.md §13); with every
  // working set spilled, results must still match the columnar baseline
  // bit for bit.
  const char* queries[] = {
      "SELECT id, k, d FROM F WHERE k > 50",
      "SELECT F.id, D.name FROM F, D WHERE F.k = D.k",
      "SELECT k, SUM(d), AVG(d) FROM F GROUP BY k",
      "SELECT k, d FROM F WHERE d >= 0 ORDER BY k DESC, id LIMIT 37",
  };
  for (const char* sql : queries) {
    engine_.set_memory_limit(kColumnar);
    auto base = engine_.Execute(sql);
    ASSERT_TRUE(base.ok()) << sql << " -> " << base.status();
    std::vector<std::string> baseline = RenderRows(base.value().rows);
    engine_.set_memory_limit(0);
    for (int threads : kThreadCounts) {
      engine_.set_num_threads(threads);
      auto result = engine_.Execute(sql);
      ASSERT_TRUE(result.ok()) << sql << " -> " << result.status();
      EXPECT_EQ(RenderRows(result.value().rows), baseline)
          << sql << " diverged under budget at " << threads;
    }
    engine_.set_memory_limit(kColumnar);
    engine_.set_num_threads(1);
  }
}

TEST_P(VectorizedDifferentialTest, DmlThroughSelectMatches) {
  GenerateTables(GetParam());
  // CREATE TABLE AS SELECT and INSERT ... SELECT funnel columnar-scan
  // results into stored tables; the stored bytes must match the row path.
  std::string baseline;
  bool have_baseline = false;
  for (int64_t budget : kScanPaths) {
    for (int threads : kThreadCounts) {
      (void)engine_.Execute("DROP TABLE IF EXISTS agg_out");
      engine_.set_memory_limit(budget);
      engine_.set_num_threads(threads);
      ASSERT_TRUE(engine_
                      .Execute("CREATE TABLE agg_out AS SELECT k, COUNT(*) AS "
                               "c, SUM(d) AS s FROM F GROUP BY k")
                      .ok());
      ASSERT_TRUE(engine_
                      .Execute("INSERT INTO agg_out SELECT D.k, COUNT(*), "
                               "SUM(F.d) FROM F, D WHERE F.k = D.k GROUP BY "
                               "D.k")
                      .ok());
      auto table = catalog_.GetTable("agg_out");
      ASSERT_TRUE(table.ok());
      std::string dump;
      for (const std::string& line : RenderRows(table.value()->rows())) {
        dump += line + "\n";
      }
      if (!have_baseline) {
        baseline = std::move(dump);
        have_baseline = true;
        continue;
      }
      EXPECT_EQ(dump, baseline) << "DML diverged on " << ScanPathName(budget)
                                << "@" << threads;
    }
  }
  engine_.set_memory_limit(kColumnar);
  engine_.set_num_threads(1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorizedDifferentialTest,
                         ::testing::Values(1u, 7u, 42u, 99991u));

// Differential tests of the batch operators (DESIGN.md §12): Project, the
// hash-join probe, DISTINCT and GROUP BY run on typed batches in every
// unbudgeted plan, and on Rows under a memory budget. Each query runs on
// batches at every thread count and on the row path (a budget that never
// spills), and the outcomes — rows in order, the error, or the stored
// table of an INSERT — must be byte-identical. Random tables carry NULLs in
// every INTEGER, DOUBLE, VARCHAR and DATE column.
class BatchDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  BatchDifferentialTest() : engine_(&catalog_) {}

  void GenerateTables(uint64_t seed) {
    StreamRng root(seed);
    Random size = root.Stream("sizes");
    auto p = catalog_.CreateTable(
        "P", Schema({{"id", DataType::kInteger},
                     {"k", DataType::kInteger},
                     {"d", DataType::kDouble},
                     {"s", DataType::kString},
                     {"dt", DataType::kDate}}));
    auto q = catalog_.CreateTable(
        "Q", Schema({{"k", DataType::kInteger},
                     {"j", DataType::kInteger},
                     {"name", DataType::kString},
                     {"w", DataType::kDouble}}));
    auto r = catalog_.CreateTable(
        "R", Schema({{"j", DataType::kInteger},
                     {"tag", DataType::kString},
                     {"dt", DataType::kDate}}));
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(q.ok());
    ASSERT_TRUE(r.ok());
    auto maybe_null = [](Random* rng, Value v) {
      return rng->NextBool(0.08) ? Value::Null() : std::move(v);
    };
    Random pr = root.Stream("P");
    const int64_t p_rows = size.NextInt(2200, 3600);
    for (int64_t i = 0; i < p_rows; ++i) {
      p.value()->AppendUnchecked(
          {Value::Integer(i),
           maybe_null(&pr, Value::Integer(pr.NextInt(0, 120))),
           maybe_null(&pr, Value::Double(
                               static_cast<double>(pr.NextInt(0, 800)) / 4.0)),
           maybe_null(&pr, Value::String("s" + std::to_string(pr.NextInt(0, 30)))),
           maybe_null(&pr, Value::Date(static_cast<int32_t>(
                               pr.NextInt(9000, 9100))))});
    }
    Random qr = root.Stream("Q");
    const int64_t q_rows = size.NextInt(150, 400);
    for (int64_t i = 0; i < q_rows; ++i) {
      q.value()->AppendUnchecked(
          {maybe_null(&qr, Value::Integer(qr.NextInt(0, 120))),
           maybe_null(&qr, Value::Integer(qr.NextInt(0, 40))),
           maybe_null(&qr, Value::String("s" + std::to_string(qr.NextInt(0, 40)))),
           maybe_null(&qr, Value::Double(static_cast<double>(qr.NextInt(0, 200))))});
    }
    Random rr = root.Stream("R");
    const int64_t r_rows = size.NextInt(30, 90);
    for (int64_t i = 0; i < r_rows; ++i) {
      r.value()->AppendUnchecked(
          {maybe_null(&rr, Value::Integer(rr.NextInt(0, 40))),
           maybe_null(&rr, Value::String("t" + std::to_string(rr.NextInt(0, 6)))),
           maybe_null(&rr, Value::Date(static_cast<int32_t>(
                               rr.NextInt(9000, 9100))))});
    }
    // A column-reference view and an aggregating view as join inputs.
    ASSERT_TRUE(engine_.Execute("CREATE VIEW QV AS (SELECT k, j, name, w "
                                "FROM Q)")
                    .ok());
    ASSERT_TRUE(engine_.Execute("CREATE VIEW RV AS (SELECT j, COUNT(*) AS "
                                "c, MIN(dt) AS first FROM R GROUP BY j)")
                    .ok());
  }

  /// The outcome of `sql` on one path: its rows rendered, or its error.
  /// `setup` runs first (on the same path), `dump` names a table whose
  /// stored rows are the outcome instead of the result set.
  std::string Outcome(const std::string& sql, int64_t budget, int threads,
                      const std::vector<std::string>& setup,
                      const std::string& dump) {
    engine_.set_memory_limit(budget);
    engine_.set_num_threads(threads);
    for (const std::string& statement : setup) {
      auto done = engine_.Execute(statement);
      if (!done.ok()) return "setup error: " + done.status().ToString();
    }
    auto result = engine_.Execute(sql);
    if (!result.ok()) return "error: " + result.status().ToString();
    std::string out;
    const std::vector<Row>* rows = &result.value().rows;
    std::shared_ptr<Table> table;
    if (!dump.empty()) {
      auto found = catalog_.GetTable(dump);
      if (!found.ok()) return "no table " + dump;
      table = std::move(found).value();
      rows = &table->rows();
    }
    for (const std::string& line : RenderRows(*rows)) out += line + "\n";
    return out;
  }

  /// Runs `sql` on the row path (serial baseline, and at 8 threads) and on
  /// batches at every thread count, requiring identical outcomes.
  void ExpectSame(const std::string& sql,
                  const std::vector<std::string>& setup = {},
                  const std::string& dump = "") {
    const std::string baseline = Outcome(sql, kRowPath, 1, setup, dump);
    EXPECT_EQ(Outcome(sql, kRowPath, 8, setup, dump), baseline)
        << sql << " diverged on row@8";
    for (int threads : kThreadCounts) {
      EXPECT_EQ(Outcome(sql, kColumnar, threads, setup, dump), baseline)
          << sql << " diverged on batches@" << threads;
    }
    engine_.set_memory_limit(kColumnar);
    engine_.set_num_threads(1);
  }

  /// One statement of a transcript: its result (rows, affected count or
  /// error) is recorded, then the stored rows of `dump` when named.
  struct Step {
    std::string sql;  // empty: checkpoint the catalog and restore it
    int64_t budget = kColumnar;  // the batch side's path for this step
    std::string dump;
    bool stores_columns = false;  // the batch side leaves `dump` so
  };

  /// Runs `steps` in order at `threads`: all on rows (`side` kRowPath),
  /// or each on its step's budget. Checks that `dump` is column-stored
  /// exactly where a batch-side step says so.
  std::string Transcript(int64_t side, int threads,
                         const std::vector<Step>& steps) {
    engine_.set_num_threads(threads);
    std::string out;
    for (const Step& step : steps) {
      engine_.set_memory_limit(side == kRowPath ? kRowPath : step.budget);
      out += "> " + (step.sql.empty() ? "checkpoint" : step.sql) + "\n";
      Catalog restored;
      Catalog* read = &catalog_;
      if (step.sql.empty()) {
        out += CheckpointAndRestore(&restored);
        read = &restored;
      } else {
        auto result = engine_.Execute(step.sql);
        if (!result.ok()) {
          out += "error: " + result.status().ToString() + "\n";
        } else {
          out += "affected " + std::to_string(result.value().affected_rows) +
                 "\n";
          for (const std::string& line : RenderRows(result.value().rows)) {
            out += line + "\n";
          }
        }
      }
      if (step.dump.empty()) continue;
      auto table = read->GetTable(step.dump);
      if (!table.ok()) {
        out += "no table " + step.dump + "\n";
        continue;
      }
      EXPECT_EQ(table.value()->column_stored(),
                side == kColumnar && step.stores_columns)
          << step.sql << " on " << ScanPathName(side) << "@" << threads;
      out += "== " + step.dump + "\n";
      for (const std::string& line : RenderRows(table.value()->rows())) {
        out += line + "\n";
      }
    }
    engine_.set_memory_limit(kColumnar);
    engine_.set_num_threads(1);
    return out;
  }

  /// Checkpoints catalog_ into the test's directory and restores it into
  /// `restored`; returns "" or the error.
  std::string CheckpointAndRestore(Catalog* restored) {
    std::string test =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(test.begin(), test.end(), '/', '_');
    const std::string dir =
        ::testing::TempDir() + "/minerule_batch_differential_" + test;
    // A clean slate, so the restore sees this checkpoint alone.
    std::remove((dir + "/minerule.cat").c_str());
    Status status = Status::OK();
    {
      auto manager = storage::StorageManager::Open(dir);
      status = manager.ok() ? manager.value()->Checkpoint(catalog_)
                            : manager.status();
    }
    if (status.ok()) {
      auto manager = storage::StorageManager::Open(dir);
      status = manager.ok() ? manager.value()->Restore(restored)
                            : manager.status();
    }
    return status.ok() ? "" : "error: " + status.ToString() + "\n";
  }

  /// Runs `steps` on rows (serially, the reference, and at 8 threads) and
  /// on each step's path at every thread count, requiring one transcript.
  /// A divergence reports its first differing line: transcripts run to
  /// thousands of lines, too many for a full diff.
  void ExpectSameTranscript(const std::vector<Step>& steps) {
    const std::string baseline = Transcript(kRowPath, 1, steps);
    EXPECT_EQ(FirstDifference(baseline, Transcript(kRowPath, 8, steps)), "")
        << "row@8";
    for (int threads : kThreadCounts) {
      EXPECT_EQ(
          FirstDifference(baseline, Transcript(kColumnar, threads, steps)),
          "")
          << "batches@" << threads;
    }
  }

  /// "" when `actual` equals `expected`, else their first differing line.
  static std::string FirstDifference(const std::string& expected,
                                     const std::string& actual) {
    if (actual == expected) return "";
    size_t begin = 0;
    size_t line = 1;
    while (begin < expected.size() && begin < actual.size()) {
      const size_t end = std::min(expected.find('\n', begin), expected.size());
      const size_t got = std::min(actual.find('\n', begin), actual.size());
      if (expected.compare(begin, end - begin, actual, begin, got - begin) !=
          0) {
        return "line " + std::to_string(line) + ": expected \"" +
               expected.substr(begin, end - begin) + "\", got \"" +
               actual.substr(begin, got - begin) + "\"";
      }
      begin = end + 1;
      ++line;
    }
    return "line " + std::to_string(line) + ": one transcript ends early";
  }

  Catalog catalog_;
  sql::SqlEngine engine_;
};

TEST_P(BatchDifferentialTest, ProjectionsWithExpressionsAndNextval) {
  GenerateTables(GetParam());
  const std::vector<std::string> fresh_sequence = {
      "DROP SEQUENCE IF EXISTS seq", "CREATE SEQUENCE seq"};
  const char* queries[] = {
      "SELECT id, k * 2 + 1, d / 4, s || '_x', dt FROM P",
      "SELECT k - id, -d, UPPER(s) FROM P WHERE k > 60",
      "SELECT id, k IS NULL, d BETWEEN 10 AND 90, k IN (1, 5, 9) FROM P",
      "SELECT seq.NEXTVAL, id, s FROM P WHERE d < 100",
      "SELECT seq.NEXTVAL AS a, seq.NEXTVAL AS b, k FROM P",
      "SELECT seq.NEXTVAL, V.* FROM (SELECT k, COUNT(*) AS c FROM P "
      "GROUP BY k) AS V",
      "SELECT P.id, seq.NEXTVAL, Q.name FROM P, Q WHERE P.k = Q.k",
      // NEXTVAL in the build key: P (the build side) spans several morsels
      // and numbers its rows serially, so the join is P.k = Q.k again.
      "SELECT P.id, Q.name FROM Q, P WHERE Q.k = P.k + seq.NEXTVAL - P.id - 1",
      // NEXTVAL in two stacked operators draws row by row across both.
      "SELECT S.id FROM (SELECT id, seq.NEXTVAL AS n FROM P) AS S "
      "WHERE S.n + 1 = seq.NEXTVAL",
      "SELECT P.id, Q.name FROM P, Q WHERE P.k + seq.NEXTVAL = Q.k + P.id "
      "AND P.d < Q.w + seq.NEXTVAL - 2 * P.id",
      "SELECT S.n, Q.name FROM (SELECT id, k, seq.NEXTVAL AS n FROM P) AS S, "
      "Q WHERE S.k + S.n + 1 - seq.NEXTVAL = Q.k",
      "SELECT V.k, MAX(V.n + seq.NEXTVAL), COUNT(*) FROM (SELECT k, "
      "seq.NEXTVAL AS n FROM P) AS V GROUP BY V.k",
      // Errors surface identically: the first failing row in row order.
      "SELECT id, 100 / (k - 50) FROM P",
      "SELECT id FROM P WHERE s > 5",
      // Filters the scan kernels cannot compile, over a subquery and HAVING.
      "SELECT S.id, S.s FROM (SELECT id, k, s FROM P) AS S "
      "WHERE S.k * 2 > 60 OR S.s = 's3'",
      "SELECT k, COUNT(*) FROM P GROUP BY k HAVING COUNT(*) * 2 > 40",
  };
  for (const char* sql : queries) ExpectSame(sql, fresh_sequence);
}

TEST_P(BatchDifferentialTest, HashJoinsWithResidualsAndViewInputs) {
  GenerateTables(GetParam());
  const char* queries[] = {
      "SELECT P.id, Q.name, Q.w FROM P, Q WHERE P.k = Q.k",
      "SELECT P.id, Q.j FROM P, Q WHERE P.k = Q.k AND P.d < Q.w",
      "SELECT P.id, Q.name FROM P, Q WHERE P.k = Q.k AND P.s <> Q.name",
      "SELECT P.id, Q.name, R.tag FROM P, Q, R WHERE P.k = Q.k AND Q.j = R.j",
      "SELECT P.id, R.tag FROM P, Q, R WHERE P.k = Q.k AND Q.j = R.j "
      "AND P.dt < R.dt AND P.s <> R.tag",
      "SELECT P.id, QV.name FROM P, QV WHERE P.k = QV.k AND QV.w > 50 "
      "AND P.d <> QV.w",
      "SELECT P.id, RV.c, RV.first FROM P, QV, RV WHERE P.k = QV.k "
      "AND QV.j = RV.j AND P.dt < RV.first",
      "SELECT S.id, Q.name FROM (SELECT id, k, d FROM P WHERE d > 20) AS S, "
      "Q WHERE S.k = Q.k AND S.d < Q.w",
      // String keys take the fallback path; the build side has NULL keys.
      "SELECT P.id, Q.k FROM P, Q WHERE P.s = Q.name",
      "SELECT P.id, R.j FROM P, R WHERE P.dt = R.dt AND P.k <> R.j",
      // Expression keys on both sides.
      "SELECT P.id, Q.j FROM P, Q WHERE P.k + 1 = Q.k * 2",
      // A DATE key never meets an INTEGER key of the same number.
      "SELECT P.id, Q.j FROM P, Q WHERE P.dt = Q.k + 9000",
  };
  for (const char* sql : queries) ExpectSame(sql);
}

TEST_P(BatchDifferentialTest, DistinctAndGroupByWithEveryAggregate) {
  GenerateTables(GetParam());
  const char* queries[] = {
      "SELECT DISTINCT k FROM P",
      "SELECT DISTINCT s, dt FROM P",
      "SELECT DISTINCT k, d FROM P WHERE d > 30",
      "SELECT DISTINCT Q.j, P.k FROM P, Q WHERE P.k = Q.k",
      "SELECT k, COUNT(*), COUNT(d), COUNT(DISTINCT s), SUM(d), AVG(d), "
      "MIN(s), MAX(dt) FROM P GROUP BY k",
      "SELECT s, COUNT(*), SUM(k), AVG(k), MIN(d), MAX(d) FROM P GROUP BY s",
      "SELECT dt, k, COUNT(DISTINCT d), MIN(id), MAX(id) FROM P "
      "GROUP BY dt, k",
      "SELECT COUNT(*), COUNT(k), SUM(d), AVG(k), MIN(s), MAX(dt), "
      "COUNT(DISTINCT k) FROM P",
      "SELECT k * 2, COUNT(*) FROM P GROUP BY k * 2",
      "SELECT Q.j, COUNT(*), SUM(P.d), MAX(Q.name) FROM P, Q "
      "WHERE P.k = Q.k GROUP BY Q.j HAVING COUNT(*) > 3",
      "SELECT COUNT(*) FROM (SELECT DISTINCT k, s FROM P) AS D",
      "SELECT DISTINCT c FROM RV",
  };
  for (const char* sql : queries) ExpectSame(sql);
}

TEST_P(BatchDifferentialTest, InsertSelectWithReorderedColumns) {
  GenerateTables(GetParam());
  const std::vector<std::string> fresh_table = {
      "DROP TABLE IF EXISTS T_out",
      "CREATE TABLE T_out (a INTEGER, b VARCHAR, c DOUBLE, e DATE)",
      "DROP SEQUENCE IF EXISTS seq", "CREATE SEQUENCE seq"};
  const char* statements[] = {
      "INSERT INTO T_out (c, a, e) SELECT P.d, P.k, P.dt FROM P",
      "INSERT INTO T_out (e, b) SELECT DISTINCT R.dt, R.tag FROM R",
      "INSERT INTO T_out (b, a, c) SELECT Q.name, seq.NEXTVAL, P.d "
      "FROM P, Q WHERE P.k = Q.k AND P.d < Q.w",
      "INSERT INTO T_out (c, b) SELECT SUM(P.d), P.s FROM P GROUP BY P.s",
      // INTEGER into a DOUBLE column widens; a type error aborts alike.
      "INSERT INTO T_out (c) SELECT k FROM P",
      "INSERT INTO T_out (a) SELECT s FROM P",
  };
  for (const char* sql : statements) ExpectSame(sql, fresh_table, "T_out");
}

// INSERT ... SELECT into an empty table stores the produced columns on the
// batch path: every typed encoding with NULLs, unnamed columns left NULL,
// NEXTVAL numbering, aggregate and join outputs. Each target is then read
// back — scanned, filtered under a budget, aggregated, limited, joined after
// ANALYZE, checkpointed and restored, deleted from and appended to — and
// every transcript must equal the never-spilling row path's, where no
// INSERT stores columns.
TEST_P(BatchDifferentialTest, InsertSelectStoresColumnsOfEveryType) {
  GenerateTables(GetParam());
  const char* inserts[] = {
      "INSERT INTO T_all SELECT k, d, s, dt, k > 60 FROM P",
      "INSERT INTO T_all (dt, s) SELECT P.dt, P.s FROM P WHERE P.d > 50",
      "INSERT INTO T_all (i, s, d) SELECT seq.NEXTVAL, s, d FROM P "
      "WHERE k < 90",
      "INSERT INTO T_all (s, i, d, dt) SELECT P.s, COUNT(*), AVG(P.d), "
      "MAX(P.dt) FROM P GROUP BY P.s",
      "INSERT INTO T_all (i, s, dt, b) SELECT P.id, Q.name, P.dt, "
      "P.d < Q.w FROM P, Q WHERE P.k = Q.k",
  };
  for (const char* insert : inserts) {
    SCOPED_TRACE(insert);
    ExpectSameTranscript({
        {"DROP TABLE IF EXISTS T_all"},
        {"CREATE TABLE T_all (i INTEGER, d DOUBLE, s VARCHAR, dt DATE, "
         "b BOOLEAN)"},
        {"DROP SEQUENCE IF EXISTS seq"},
        {"CREATE SEQUENCE seq"},
        {insert, kColumnar, "T_all", true},
        {"SELECT * FROM T_all"},
        {"SELECT i, s, dt FROM T_all WHERE d > 20 OR b ORDER BY i, s, dt",
         kRowPath},
        {"SELECT s, COUNT(*), COUNT(b), SUM(d), MIN(dt), MAX(i) FROM T_all "
         "GROUP BY s"},
        {"SELECT * FROM T_all LIMIT 5"},
        {"ANALYZE T_all", kColumnar, "T_all", true},
        {"SELECT T_all.i, Q.name, R.tag FROM T_all, Q, R "
         "WHERE T_all.i = Q.k AND Q.j = R.j AND T_all.s <> R.tag"},
        {"", kColumnar, "T_all"},
        {"DELETE FROM T_all WHERE d < 30 OR s = 's3'", kColumnar, "T_all"},
        {"INSERT INTO T_all (i, s) SELECT id, s FROM P WHERE id < 100",
         kColumnar, "T_all"},
    });
  }
}

// Where Append would store something else, or more than the batches, the
// sink keeps the row path: an INTEGER widened into a DOUBLE column, a
// non-empty target, VALUES, a type error, and an INSERT of no rows, which
// leaves the target empty for the next one to store columns.
TEST_P(BatchDifferentialTest, InsertSelectStoresColumnsOnlyWhereAppendWould) {
  GenerateTables(GetParam());
  const std::vector<Step> fresh = {
      {"DROP TABLE IF EXISTS T_all"},
      {"CREATE TABLE T_all (i INTEGER, d DOUBLE, s VARCHAR, dt DATE, "
       "b BOOLEAN)"},
  };
  const std::vector<std::vector<Step>> cases = {
      {{"INSERT INTO T_all (d, i) SELECT k, id FROM P", kColumnar, "T_all"},
       {"SELECT d, i FROM T_all WHERE d > 100"}},
      {{"INSERT INTO T_all VALUES (-1, 2.5, 'x', NULL, TRUE)", kColumnar,
        "T_all"},
       {"INSERT INTO T_all SELECT k, d, s, dt, k > 60 FROM P", kColumnar,
        "T_all"}},
      {{"INSERT INTO T_all (i) SELECT s FROM P", kColumnar, "T_all"}},
      {{"INSERT INTO T_all SELECT k, d, s, dt, k > 60 FROM P WHERE id < 0",
        kColumnar, "T_all"},
       {"INSERT INTO T_all SELECT k, d, s, dt, k > 60 FROM P WHERE id < 1500",
        kColumnar, "T_all", true},
       {"INSERT INTO T_all SELECT k, d, s, dt, k > 60 FROM P WHERE id < 5",
        kColumnar, "T_all"}},
  };
  for (const std::vector<Step>& steps : cases) {
    SCOPED_TRACE(steps.front().sql);
    std::vector<Step> transcript = fresh;
    transcript.insert(transcript.end(), steps.begin(), steps.end());
    ExpectSameTranscript(transcript);
  }
}

TEST_P(BatchDifferentialTest, LimitEvaluatesOnlyTheRowsItTakes) {
  GenerateTables(GetParam());
  // L's one k = 50 row sits inside the first morsel but past every LIMIT
  // below: a select list evaluated ahead of the limit divides by zero.
  auto l = catalog_.CreateTable(
      "L", Schema({{"id", DataType::kInteger}, {"k", DataType::kInteger}}));
  auto m = catalog_.CreateTable("M", Schema({{"id", DataType::kInteger}}));
  ASSERT_TRUE(l.ok());
  ASSERT_TRUE(m.ok());
  for (int64_t i = 0; i < 3000; ++i) {
    l.value()->AppendUnchecked(
        {Value::Integer(i), Value::Integer(i == 700 ? 50 : i % 7)});
    m.value()->AppendUnchecked({Value::Integer(i)});
  }
  for (const char* sql : {
           "SELECT id, 100 / (k - 50) FROM L LIMIT 5",
           "SELECT L.id, 100 / (L.k - 50) FROM L, M WHERE L.id = M.id "
           "LIMIT 5",
       }) {
    ExpectSame(sql);
    EXPECT_EQ(Outcome(sql, kColumnar, 8, {}, "").find("error"),
              std::string::npos)
        << sql;
  }

  // NEXTVAL advances once per row the limit takes: the next value follows.
  const std::vector<std::string> fresh_sequence = {
      "DROP SEQUENCE IF EXISTS seq", "CREATE SEQUENCE seq"};
  const std::pair<const char*, const char*> counted[] = {
      {"SELECT seq.NEXTVAL, id FROM L LIMIT 3", "4|\n"},
      {"SELECT S.n FROM (SELECT id, seq.NEXTVAL AS n FROM L) AS S "
       "WHERE S.id >= 0 LIMIT 2",
       "3|\n"},
      {"SELECT S.n FROM (SELECT id, seq.NEXTVAL AS n FROM L) AS S, M "
       "WHERE S.id = M.id LIMIT 2",
       "3|\n"},
  };
  for (const auto& [sql, next] : counted) {
    ExpectSame(sql, fresh_sequence);
    std::vector<std::string> setup = fresh_sequence;
    setup.push_back(sql);
    for (int64_t budget : kScanPaths) {
      for (int threads : kThreadCounts) {
        EXPECT_EQ(Outcome("SELECT seq.NEXTVAL", budget, threads, setup, ""),
                  next)
            << sql << " on " << ScanPathName(budget) << "@" << threads;
      }
    }
  }
  engine_.set_memory_limit(kColumnar);
  engine_.set_num_threads(1);
}

// Filters over inputs of more than one morsel whose batches either share
// the scan's columns — a view that passes them through, compiled once — or
// bring their own per batch — a drained Sort or LIMIT subquery, whose
// morsels are encoded afresh (each string column with its own dictionary),
// compiled per batch. Kernels compiled for one batch's columns and applied
// to another's would select the wrong rows.
TEST_P(BatchDifferentialTest, FilterKernelsOverViewsAndDrainedInputs) {
  GenerateTables(GetParam());
  ASSERT_TRUE(engine_.Execute("CREATE VIEW PV AS (SELECT s, id, k, d, dt "
                              "FROM P)")
                  .ok());
  const char* queries[] = {
      // (a) A view whose Project passes the scan's columns through.
      "SELECT PV.id, PV.s FROM PV WHERE PV.s = 's3'",
      "SELECT PV.id, PV.k FROM PV WHERE PV.k > 60 AND PV.d < 100.5",
      "SELECT PV.id FROM PV WHERE PV.s >= 's2' AND PV.k <> 7 "
      "AND PV.dt < '1994-10-15'",
      "SELECT Q.name, PV.id FROM Q, PV WHERE Q.k = PV.k AND PV.s <> 's4' "
      "AND PV.d >= 20",
      // (b) A drained Sort or LIMIT subquery.
      "SELECT S.id, S.s FROM (SELECT id, k, s, d FROM P ORDER BY k, id) AS S "
      "WHERE S.s = 's5' AND S.k > 10",
      "SELECT S.id FROM (SELECT id, k, s, d FROM P ORDER BY s, id) AS S "
      "WHERE S.s < 's2' OR S.d > 150",
      "SELECT L.id, L.d FROM (SELECT id, d, s FROM P ORDER BY d, id "
      "LIMIT 2000) AS L WHERE L.d >= 50 AND L.s <> 's1'",
      "SELECT L.id FROM (SELECT id, k, dt FROM P LIMIT 1900) AS L "
      "WHERE L.k <= 40 AND L.dt >= '1994-09-01'",
  };
  for (const char* sql : queries) ExpectSame(sql);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchDifferentialTest,
                         ::testing::Values(3u, 29u, 2024u));

// Full MINE RULE runs over identical source data must leave byte-identical
// catalogs (every preprocessor Q0..Q11 intermediate kept via
// keep_encoded_tables, the rule tables, and the postprocessor output) on the
// columnar and the row scan path, at every thread count.
TEST(MineRuleVectorizedTest, WholePipelineBitIdenticalAcrossEngines) {
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
    bool have_baseline = false;
    for (int64_t budget : kScanPaths) {
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
        options.memory_limit = budget;
        options.keep_encoded_tables = true;
        auto stats = system.ExecuteMineRule(text, options);
        ASSERT_TRUE(stats.ok()) << stats.status();
        EXPECT_EQ(stats.value().engine_threads, ResolveThreadCount(threads));
        std::string dump = DumpCatalog(&catalog);
        if (!have_baseline) {
          baseline = std::move(dump);
          have_baseline = true;
          continue;
        }
        EXPECT_EQ(dump, baseline)
            << "catalog diverged on " << ScanPathName(budget) << "@"
            << threads << " threads for: " << text;
      }
    }
  }
}

// The preprocessor's encoded tables are INSERT ... SELECT targets: without
// a budget they stay column-stored up to the core's hand-off, which reads
// their columns; under a budget they are row-stored.
TEST(MineRuleVectorizedTest, EncodedTablesColumnStoredOnlyWithoutABudget) {
  for (int64_t budget : kScanPaths) {
    SCOPED_TRACE(ScanPathName(budget));
    Catalog catalog;
    mr::DataMiningSystem system(&catalog);
    datagen::RetailParams params;
    params.num_customers = 120;
    params.num_items = 40;
    ASSERT_TRUE(
        datagen::GenerateRetailTable(&catalog, "Purchase", params).ok());
    mr::MiningOptions options;
    options.memory_limit = budget;
    options.keep_encoded_tables = true;
    auto stats = system.ExecuteMineRule(
        "MINE RULE S AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD "
        "FROM Purchase GROUP BY customer EXTRACTING RULES WITH SUPPORT: 0.05, "
        "CONFIDENCE: 0.3",
        options);
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_GT(stats.value().output.num_rules, 0);
    for (const char* name : {"Bset", "CodedSource"}) {
      auto table = catalog.GetTable(name);
      ASSERT_TRUE(table.ok()) << name;
      EXPECT_GT(table.value()->num_rows(), 0u) << name;
      EXPECT_EQ(table.value()->column_stored(), budget == kColumnar) << name;
    }
    if (budget != kColumnar) continue;
    // A scan over the stored columns reports their bytes.
    system.sql_engine()->set_memory_limit(kColumnar);
    auto explain = system.ExecuteSql("EXPLAIN ANALYZE SELECT Gid FROM "
                                     "CodedSource");
    ASSERT_TRUE(explain.ok()) << explain.status();
    const auto& profile = explain.value().profile;
    ASSERT_FALSE(profile.empty());
    EXPECT_EQ(profile.back().name, "TableScan");
    EXPECT_EQ(profile.back().Counter("est_bytes"),
              catalog.GetTable("CodedSource").value()->Columnar()->ByteSize());
  }
}

}  // namespace
}  // namespace minerule
