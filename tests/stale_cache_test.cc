// Regression tests for preprocessing reuse vs source-table DML: a MINE
// RULE re-run with reuse_preprocessing must pick up inserts into the source
// table (the cache key carries per-table modification epochs), while a
// re-run with an untouched source still reuses the encoded tables.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "engine/data_mining_system.h"

namespace minerule {
namespace {

const char* kStatement =
    "MINE RULE Basket AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS "
    "HEAD, SUPPORT, CONFIDENCE FROM Purchase GROUP BY tr "
    "EXTRACTING RULES WITH SUPPORT: 0.4, CONFIDENCE: 0.5";

class StaleCacheTest : public ::testing::Test {
 protected:
  StaleCacheTest() : system_(&catalog_) {
    options_.reuse_preprocessing = true;
    options_.keep_encoded_tables = true;
  }

  void MustSql(const std::string& sql) {
    auto result = system_.ExecuteSql(sql);
    ASSERT_TRUE(result.ok()) << sql << " -> " << result.status();
  }

  mr::MiningRunStats MustMine(const std::string& statement) {
    auto stats = system_.ExecuteMineRule(statement, options_);
    EXPECT_TRUE(stats.ok()) << stats.status();
    return stats.ok() ? std::move(stats).value() : mr::MiningRunStats{};
  }

  void SetUpPurchase() {
    MustSql("CREATE TABLE Purchase (tr INTEGER, item VARCHAR)");
    MustSql(
        "INSERT INTO Purchase VALUES "
        "(1, 'a'), (1, 'b'), (2, 'a'), (2, 'b'), (3, 'a')");
  }

  Catalog catalog_;
  mr::DataMiningSystem system_;
  mr::MiningOptions options_;
};

TEST_F(StaleCacheTest, UnchangedSourceReusesPreprocessing) {
  SetUpPurchase();
  mr::MiningRunStats first = MustMine(kStatement);
  EXPECT_FALSE(first.preprocessing_reused);
  mr::MiningRunStats second = MustMine(kStatement);
  EXPECT_TRUE(second.preprocessing_reused);
  EXPECT_EQ(second.total_groups, first.total_groups);
  EXPECT_EQ(second.output.num_rules, first.output.num_rules);
}

// The regression: an INSERT between two runs must invalidate the cached
// encoding. Before the epoch-based cache key this reused the stale encoded
// tables and returned the old rules.
TEST_F(StaleCacheTest, InsertBetweenRunsInvalidatesCache) {
  SetUpPurchase();
  mr::MiningRunStats first = MustMine(kStatement);
  EXPECT_EQ(first.total_groups, 3);

  MustSql(
      "INSERT INTO Purchase VALUES "
      "(4, 'a'), (4, 'b'), (4, 'c'), (5, 'b'), (5, 'c'), (6, 'b'), (6, 'c')");
  mr::MiningRunStats second = MustMine(kStatement);
  EXPECT_FALSE(second.preprocessing_reused);
  EXPECT_EQ(second.total_groups, 6);
  // Item 'c' is frequent now (4 of 6 groups) and pairs {a,b} and {b,c}
  // both clear the thresholds: the rule set grew.
  EXPECT_GT(second.output.num_rules, first.output.num_rules);
}

TEST_F(StaleCacheTest, DeleteBetweenRunsInvalidatesCache) {
  SetUpPurchase();
  mr::MiningRunStats first = MustMine(kStatement);
  EXPECT_EQ(first.total_groups, 3);
  MustSql("DELETE FROM Purchase WHERE tr = 3");
  mr::MiningRunStats second = MustMine(kStatement);
  EXPECT_FALSE(second.preprocessing_reused);
  EXPECT_EQ(second.total_groups, 2);
}

// DML behind a view: the cache key resolves views down to their base
// tables, so the insert is still detected.
TEST_F(StaleCacheTest, InsertBehindViewInvalidatesCache) {
  SetUpPurchase();
  MustSql("CREATE VIEW PurchaseView AS SELECT tr, item FROM Purchase");
  const std::string statement =
      "MINE RULE ViewRules AS SELECT DISTINCT 1..n item AS BODY, 1..1 item "
      "AS HEAD, SUPPORT, CONFIDENCE FROM PurchaseView GROUP BY tr "
      "EXTRACTING RULES WITH SUPPORT: 0.4, CONFIDENCE: 0.5";
  mr::MiningRunStats first = MustMine(statement);
  EXPECT_FALSE(first.preprocessing_reused);

  mr::MiningRunStats reused = MustMine(statement);
  EXPECT_TRUE(reused.preprocessing_reused);

  MustSql("INSERT INTO Purchase VALUES (4, 'a'), (4, 'b')");
  mr::MiningRunStats second = MustMine(statement);
  EXPECT_FALSE(second.preprocessing_reused);
  EXPECT_EQ(second.total_groups, 4);
}

// The core reads the encoded tables the preprocessor left behind on every
// run, reused or not; nothing in between caches them. Edits to an encoded
// table made between a run and its reuse therefore reach the core: a valid
// pair is mined, a value that is not an integer fails the run.
class EncodedTableReadTest : public StaleCacheTest {
 protected:
  std::shared_ptr<Table> MustTable(const std::string& name) {
    auto table = catalog_.GetTable(name);
    EXPECT_TRUE(table.ok()) << table.status();
    return table.ok() ? *table : nullptr;
  }

  /// Supports of the rules in `output`, in table order.
  std::vector<double> Supports(const std::string& output) {
    std::vector<double> supports;
    for (const Row& row : MustTable(output)->rows()) {
      supports.push_back(row[2].AsDouble());
    }
    return supports;
  }

  Status MineStatus(const std::string& statement) {
    return system_.ExecuteMineRule(statement, options_).status();
  }
};

TEST_F(EncodedTableReadTest, NullInCodedSourceFailsTheReusedRun) {
  SetUpPurchase();
  MustMine(kStatement);
  MustSql("INSERT INTO CodedSource VALUES (NULL, 1)");
  const Status status = MineStatus(kStatement);
  EXPECT_EQ(status.ToString(),
            "Internal: encoded table column 0 is not an integer");
}

// The same NULL in a column-stored CodedSource: the hand-off reads its
// columns instead of its rows and fails the run with the same status.
TEST_F(EncodedTableReadTest, NullInColumnStoredCodedSourceFailsTheReusedRun) {
  SetUpPurchase();
  MustMine(kStatement);
  MustSql("CREATE TABLE Edited AS SELECT * FROM CodedSource");
  MustSql("INSERT INTO Edited VALUES (2, 1), (NULL, 1)");
  MustSql("DELETE FROM CodedSource");
  // Unbudgeted, an INSERT ... SELECT into the emptied table stores columns.
  system_.sql_engine()->set_memory_limit(-1);
  MustSql("INSERT INTO CodedSource SELECT * FROM Edited");
  ASSERT_TRUE(MustTable("CodedSource")->column_stored());
  const Status status = MineStatus(kStatement);
  EXPECT_EQ(status.ToString(),
            "Internal: encoded table column 0 is not an integer");
}

TEST_F(EncodedTableReadTest, DoubleInCodedSourceFailsTheReusedRun) {
  SetUpPurchase();
  MustMine(kStatement);
  // SQL INSERT rejects a fractional DOUBLE in an INTEGER column, so put it
  // there below the type check.
  MustTable("CodedSource")
      ->AppendUnchecked({Value::Integer(3), Value::Double(1.5)});
  const Status status = MineStatus(kStatement);
  EXPECT_EQ(status.ToString(),
            "Internal: encoded table column 1 is not an integer");
}

TEST_F(EncodedTableReadTest, NewCodedSourcePairReachesTheReusedRun) {
  SetUpPurchase();
  mr::MiningRunStats first = MustMine(kStatement);
  // {a} => {b} and {b} => {a}, each held by groups 1 and 2 of 3.
  ASSERT_EQ(first.output.num_rules, 2);
  EXPECT_EQ(Supports("Basket"), (std::vector<double>{2.0 / 3, 2.0 / 3}));

  // Group 3 bought only 'a'; give it 'b' too, in the encoded table alone.
  MustSql("INSERT INTO CodedSource (SELECT 3, Bid FROM Bset WHERE item = 'b')");
  mr::MiningRunStats second = MustMine(kStatement);
  EXPECT_TRUE(second.preprocessing_reused);
  ASSERT_EQ(second.output.num_rules, 2);
  EXPECT_EQ(Supports("Basket"), (std::vector<double>{1.0, 1.0}));
}

TEST_F(EncodedTableReadTest, BadValuesInInputRulesLargeFailTheReusedRun) {
  MustSql("CREATE TABLE Purchase (tr INTEGER, item VARCHAR, price INTEGER)");
  MustSql(
      "INSERT INTO Purchase VALUES (1, 'a', 200), (1, 'b', 50), "
      "(2, 'a', 200), (2, 'b', 50), (3, 'a', 200)");
  const std::string statement =
      "MINE RULE Pricey AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS "
      "HEAD, SUPPORT, CONFIDENCE WHERE BODY.price >= 100 AND HEAD.price < "
      "100 FROM Purchase GROUP BY tr "
      "EXTRACTING RULES WITH SUPPORT: 0.4, CONFIDENCE: 0.5";
  mr::MiningRunStats first = MustMine(statement);
  ASSERT_TRUE(first.core.used_general);
  EXPECT_EQ(first.output.num_rules, 1);

  // A valid occurrence copied into group 3 is mined on reuse.
  MustSql(
      "INSERT INTO InputRulesLarge (SELECT 3, Bid, Hid FROM InputRulesLarge "
      "WHERE Gid = 1)");
  mr::MiningRunStats second = MustMine(statement);
  EXPECT_TRUE(second.preprocessing_reused);
  EXPECT_EQ(Supports("Pricey"), (std::vector<double>{1.0}));

  MustSql("INSERT INTO InputRulesLarge VALUES (NULL, 1, 1)");
  EXPECT_EQ(MineStatus(statement).ToString(),
            "Internal: encoded table column 0 is not an integer");
  MustSql("DELETE FROM InputRulesLarge WHERE Gid IS NULL");
  MustTable("InputRulesLarge")
      ->AppendUnchecked(
          {Value::Integer(1), Value::Integer(1), Value::Double(0.5)});
  EXPECT_EQ(MineStatus(statement).ToString(),
            "Internal: encoded table column 2 is not an integer");
}

}  // namespace
}  // namespace minerule
