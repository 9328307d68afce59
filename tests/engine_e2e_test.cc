#include "engine/data_mining_system.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/string_util.h"
#include "datagen/paper_example.h"
#include "datagen/quest_gen.h"
#include "datagen/retail_gen.h"

namespace minerule::mr {
namespace {

class EngineE2eTest : public ::testing::Test {
 protected:
  EngineE2eTest() : system_(&catalog_) {}

  MiningRunStats MustMine(const std::string& text,
                          const MiningOptions& options = {}) {
    Result<MiningRunStats> stats = system_.ExecuteMineRule(text, options);
    EXPECT_TRUE(stats.ok()) << stats.status();
    return stats.ok() ? std::move(stats).value() : MiningRunStats{};
  }

  sql::QueryResult MustQuery(const std::string& sql) {
    Result<sql::QueryResult> result = system_.ExecuteSql(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    return result.ok() ? std::move(result).value() : sql::QueryResult{};
  }

  /// Decoded rules as "{body} => {head}" -> (support, confidence).
  std::map<std::string, std::pair<double, double>> DecodedRules(
      const std::string& out, const std::string& body_col = "item",
      const std::string& head_col = "item") {
    std::map<std::string, std::pair<double, double>> rules;
    sql::QueryResult ids =
        MustQuery("SELECT BodyId, HeadId, SUPPORT, CONFIDENCE FROM " + out);
    std::map<int64_t, std::vector<std::string>> bodies, heads;
    for (const Row& row :
         MustQuery("SELECT BodyId, " + body_col + " FROM " + out + "_Bodies")
             .rows) {
      bodies[row[0].AsInteger()].push_back(row[1].ToString());
    }
    for (const Row& row :
         MustQuery("SELECT HeadId, " + head_col + " FROM " + out + "_Heads")
             .rows) {
      heads[row[0].AsInteger()].push_back(row[1].ToString());
    }
    auto render = [](std::vector<std::string> items) {
      std::sort(items.begin(), items.end());
      return "{" + Join(items, ",") + "}";
    };
    for (const Row& row : ids.rows) {
      rules[render(bodies[row[0].AsInteger()]) + " => " +
            render(heads[row[1].AsInteger()])] = {row[2].AsDouble(),
                                                  row[3].AsDouble()};
    }
    return rules;
  }

  Catalog catalog_;
  DataMiningSystem system_;
};

// ---------------------------------------------------------------------------
// The paper's running example, end to end: Figure 1 table in, the MINE RULE
// statement of §2, Figure 2.b rule table out.
// ---------------------------------------------------------------------------
TEST_F(EngineE2eTest, PaperExampleReproducesFigure2b) {
  ASSERT_TRUE(datagen::MakePaperPurchaseTable(&catalog_).ok());
  MiningRunStats stats = MustMine(datagen::PaperExampleStatement());

  EXPECT_EQ(stats.directives.ToString(), "-WM-CK--");
  EXPECT_EQ(stats.total_groups, 2);
  EXPECT_EQ(stats.min_group_count, 1);  // ceil(0.2 * 2)
  EXPECT_TRUE(stats.core.used_general);
  EXPECT_EQ(stats.output.num_rules, 3);

  auto rules = DecodedRules("FilteredOrderedSets");
  ASSERT_EQ(rules.size(), 3u);
  // Figure 2.b.
  ASSERT_TRUE(rules.count("{brown_boots} => {col_shirts}"));
  EXPECT_DOUBLE_EQ(rules["{brown_boots} => {col_shirts}"].first, 0.5);
  EXPECT_DOUBLE_EQ(rules["{brown_boots} => {col_shirts}"].second, 1.0);
  ASSERT_TRUE(rules.count("{jackets} => {col_shirts}"));
  EXPECT_DOUBLE_EQ(rules["{jackets} => {col_shirts}"].first, 0.5);
  EXPECT_DOUBLE_EQ(rules["{jackets} => {col_shirts}"].second, 0.5);
  ASSERT_TRUE(rules.count("{brown_boots,jackets} => {col_shirts}"));
  EXPECT_DOUBLE_EQ(rules["{brown_boots,jackets} => {col_shirts}"].first, 0.5);
  EXPECT_DOUBLE_EQ(rules["{brown_boots,jackets} => {col_shirts}"].second,
                   1.0);

  // The rendered table shows the same three rules.
  Result<std::string> rendered = system_.RenderRules("FilteredOrderedSets");
  ASSERT_TRUE(rendered.ok()) << rendered.status();
  EXPECT_NE(rendered.value().find("{brown_boots, jackets}"),
            std::string::npos);
}

TEST_F(EngineE2eTest, SimpleRulesOnPurchaseByTransaction) {
  ASSERT_TRUE(datagen::MakePaperPurchaseTable(&catalog_).ok());
  // Classic market-basket per transaction. tr2 = {col_shirts, brown_boots,
  // jackets}, tr4 = {col_shirts, jackets}: jackets=>col_shirts in 2 of 4.
  MiningRunStats stats = MustMine(
      "MINE RULE Basket AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS "
      "HEAD, SUPPORT, CONFIDENCE FROM Purchase GROUP BY tr "
      "EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.9");
  EXPECT_EQ(stats.directives.ToString(), "--------");
  EXPECT_FALSE(stats.core.used_general);
  EXPECT_EQ(stats.total_groups, 4);

  auto rules = DecodedRules("Basket");
  // support >= 0.5 needs 2 of 4 transactions; conf >= 0.9.
  ASSERT_TRUE(rules.count("{jackets} => {col_shirts}") == 0);  // conf 2/3
  ASSERT_TRUE(rules.count("{col_shirts} => {jackets}"));       // conf 2/2
  EXPECT_DOUBLE_EQ(rules["{col_shirts} => {jackets}"].first, 0.5);
}

TEST_F(EngineE2eTest, AllSimpleAlgorithmsAgreeEndToEnd) {
  datagen::QuestParams params;
  params.num_transactions = 150;
  params.num_items = 40;
  params.avg_transaction_size = 6;
  params.num_patterns = 20;
  ASSERT_TRUE(
      datagen::MaterializeQuestTable(&catalog_, "Txns", params).ok());
  const std::string statement =
      "MINE RULE QRules AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS "
      "HEAD, SUPPORT, CONFIDENCE FROM Txns GROUP BY tid "
      "EXTRACTING RULES WITH SUPPORT: 0.05, CONFIDENCE: 0.4";

  std::map<std::string, std::pair<double, double>> baseline;
  for (mining::SimpleAlgorithm algorithm :
       {mining::SimpleAlgorithm::kGidList, mining::SimpleAlgorithm::kApriori,
        mining::SimpleAlgorithm::kAprioriTid, mining::SimpleAlgorithm::kDhp,
        mining::SimpleAlgorithm::kPartition,
        mining::SimpleAlgorithm::kSampling}) {
    MiningOptions options;
    options.algorithm = algorithm;
    MustMine(statement, options);
    auto rules = DecodedRules("QRules");
    if (baseline.empty()) {
      baseline = rules;
      EXPECT_FALSE(baseline.empty());
    } else {
      EXPECT_EQ(rules.size(), baseline.size())
          << mining::SimpleAlgorithmName(algorithm);
      for (const auto& [key, value] : baseline) {
        ASSERT_TRUE(rules.count(key)) << key;
        EXPECT_DOUBLE_EQ(rules[key].first, value.first) << key;
        EXPECT_DOUBLE_EQ(rules[key].second, value.second) << key;
      }
    }
  }
}

TEST_F(EngineE2eTest, GroupHavingFiltersGroups) {
  ASSERT_TRUE(datagen::MakePaperPurchaseTable(&catalog_).ok());
  // Only customers with more than 3 purchase rows qualify (cust2, 5 rows).
  MiningRunStats stats = MustMine(
      "MINE RULE BigCust AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS "
      "HEAD, SUPPORT, CONFIDENCE FROM Purchase GROUP BY customer HAVING "
      "COUNT(*) > 3 EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.5");
  EXPECT_TRUE(stats.directives.G);
  EXPECT_TRUE(stats.directives.R);
  // Total groups (Q1) counts all customers, per the paper's Q1 placement.
  EXPECT_EQ(stats.total_groups, 2);
  auto rules = DecodedRules("BigCust");
  // cust1's exclusive items can never appear.
  for (const auto& [key, value] : rules) {
    EXPECT_EQ(key.find("ski_pants"), std::string::npos) << key;
    EXPECT_EQ(key.find("hiking_boots"), std::string::npos) << key;
  }
}

TEST_F(EngineE2eTest, CrossSchemaRules) {
  ASSERT_TRUE(datagen::MakePaperPurchaseTable(&catalog_).ok());
  // Body = items, head = purchase dates: H directive set.
  MiningRunStats stats = MustMine(
      "MINE RULE WhenBought AS SELECT DISTINCT 1..1 item AS BODY, 1..1 date "
      "AS HEAD, SUPPORT, CONFIDENCE FROM Purchase GROUP BY customer "
      "EXTRACTING RULES WITH SUPPORT: 0.9, CONFIDENCE: 0.9");
  EXPECT_TRUE(stats.directives.H);
  EXPECT_TRUE(stats.core.used_general);
  auto rules = DecodedRules("WhenBought", "item", "date");
  // jackets bought by both customers; 12/18/95 seen by both customers.
  ASSERT_TRUE(rules.count("{jackets} => {12/18/1995}"));
  EXPECT_DOUBLE_EQ(rules["{jackets} => {12/18/1995}"].first, 1.0);
}

TEST_F(EngineE2eTest, MiningConditionWithoutClusters) {
  ASSERT_TRUE(datagen::MakePaperPurchaseTable(&catalog_).ok());
  // Expensive items imply cheap items within the same customer.
  MiningRunStats stats = MustMine(
      "MINE RULE ExpensiveToCheap AS SELECT DISTINCT 1..n item AS BODY, "
      "1..n item AS HEAD, SUPPORT, CONFIDENCE WHERE BODY.price >= 100 AND "
      "HEAD.price < 100 FROM Purchase GROUP BY customer "
      "EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.5");
  EXPECT_TRUE(stats.directives.M);
  EXPECT_FALSE(stats.directives.C);
  EXPECT_TRUE(stats.core.used_general);
  auto rules = DecodedRules("ExpensiveToCheap");
  // Only cust2 buys cheap items (col_shirts): support 0.5 rules from its
  // expensive items.
  ASSERT_TRUE(rules.count("{brown_boots} => {col_shirts}"));
  ASSERT_TRUE(rules.count("{jackets} => {col_shirts}"));
  EXPECT_DOUBLE_EQ(rules["{jackets} => {col_shirts}"].second, 0.5);
  for (const auto& [key, value] : rules) {
    EXPECT_EQ(key.find("=> {jackets}"), std::string::npos) << key;
  }
}

TEST_F(EngineE2eTest, SupportAndConfidenceColumnsAreOptional) {
  ASSERT_TRUE(datagen::MakePaperPurchaseTable(&catalog_).ok());
  MustMine(
      "MINE RULE Bare AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS "
      "HEAD FROM Purchase GROUP BY tr "
      "EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.5");
  sql::QueryResult result = MustQuery("SELECT * FROM Bare");
  EXPECT_EQ(result.schema.num_columns(), 2u);  // BodyId, HeadId only
}

TEST_F(EngineE2eTest, OutputTablesAreQueryableViaSql) {
  ASSERT_TRUE(datagen::MakePaperPurchaseTable(&catalog_).ok());
  MustMine(datagen::PaperExampleStatement());
  // The tight-coupling payoff: join rules with source data in plain SQL.
  sql::QueryResult result = MustQuery(
      "SELECT DISTINCT P.customer FROM FilteredOrderedSets_Bodies B, "
      "Purchase P WHERE B.item = P.item");
  EXPECT_GE(result.rows.size(), 1u);
}

TEST_F(EngineE2eTest, PreprocessingReuseSkipsQueries) {
  ASSERT_TRUE(datagen::MakePaperPurchaseTable(&catalog_).ok());
  MiningOptions options;
  options.reuse_preprocessing = true;
  MiningRunStats first = MustMine(datagen::PaperExampleStatement(), options);
  EXPECT_FALSE(first.preprocessing_reused);

  // Same encoding, different confidence: preprocessing must be reused.
  std::string second_text = datagen::PaperExampleStatement();
  const size_t pos = second_text.rfind("CONFIDENCE: 0.3");
  ASSERT_NE(pos, std::string::npos);
  second_text.replace(pos, 15, "CONFIDENCE: 0.9");
  MiningRunStats second = MustMine(second_text, options);
  EXPECT_TRUE(second.preprocessing_reused);
  EXPECT_EQ(second.output.num_rules, 2);  // conf-1.0 rules only

  // Different support: cache miss.
  std::string third_text = second_text;
  const size_t spos = third_text.rfind("SUPPORT: 0.2");
  ASSERT_NE(spos, std::string::npos);
  third_text.replace(spos, 12, "SUPPORT: 0.6");
  MiningRunStats third = MustMine(third_text, options);
  EXPECT_FALSE(third.preprocessing_reused);
}

TEST_F(EngineE2eTest, DropEncodedTablesOption) {
  ASSERT_TRUE(datagen::MakePaperPurchaseTable(&catalog_).ok());
  MiningOptions options;
  options.keep_encoded_tables = false;
  MustMine(datagen::PaperExampleStatement(), options);
  EXPECT_FALSE(catalog_.HasTable("Bset"));
  EXPECT_FALSE(catalog_.HasTable("MiningSourceB"));
  // Output tables survive.
  EXPECT_TRUE(catalog_.HasTable("FilteredOrderedSets"));
}

TEST_F(EngineE2eTest, RetailWorkloadFindsFollowUpRules) {
  datagen::RetailParams params;
  params.num_customers = 60;
  params.num_items = 20;
  ASSERT_TRUE(
      datagen::GenerateRetailTable(&catalog_, "Purchase", params).ok());
  MiningRunStats stats = MustMine(
      "MINE RULE FollowUps AS SELECT DISTINCT 1..1 item AS BODY, 1..1 item "
      "AS HEAD, SUPPORT, CONFIDENCE WHERE BODY.price >= 100 AND HEAD.price "
      "< 100 FROM Purchase GROUP BY customer CLUSTER BY date HAVING "
      "BODY.date < HEAD.date EXTRACTING RULES WITH SUPPORT: 0.05, "
      "CONFIDENCE: 0.2");
  EXPECT_TRUE(stats.core.used_general);
  EXPECT_GT(stats.output.num_rules, 0);
}

// The planner's rule on generated SQL (DESIGN.md §14). A bare ANALYZE after
// a retail run sees the encoded tables that run left behind, but the next
// run recreates them, so none of its preprocess queries that read one plans
// from statistics. Only queries that read nothing but the analyzed source
// table carry estimates, and the rules equal those of the unanalyzed run.
TEST_F(EngineE2eTest, AnalyzeOfEncodedTablesDoesNotSteerTheNextRun) {
  datagen::RetailParams params;
  params.num_customers = 60;
  params.num_items = 20;
  ASSERT_TRUE(
      datagen::GenerateRetailTable(&catalog_, "Purchase", params).ok());
  const std::string statement =
      "MINE RULE FollowUps AS SELECT DISTINCT 1..1 item AS BODY, 1..1 item "
      "AS HEAD, SUPPORT, CONFIDENCE WHERE BODY.price >= 100 AND HEAD.price "
      "< 100 FROM Purchase GROUP BY customer CLUSTER BY date HAVING "
      "BODY.date < HEAD.date EXTRACTING RULES WITH SUPPORT: 0.05, "
      "CONFIDENCE: 0.2";
  const MiningRunStats before = MustMine(statement);
  const auto rules_before = DecodedRules("FollowUps");
  ASSERT_GT(before.output.num_rules, 0);
  ASSERT_TRUE(catalog_.HasTable("MiningSourceB"));

  const sql::QueryResult analyzed = MustQuery("ANALYZE");
  EXPECT_EQ(analyzed.affected_rows,
            static_cast<int64_t>(catalog_.TableNames().size()));

  const MiningRunStats after = MustMine(statement);
  ASSERT_FALSE(after.preprocess_queries.empty());
  int scratch_readers = 0;
  for (const sql::QueryStat& query : after.preprocess_queries) {
    bool estimated = false;
    bool reads_scratch = false;
    for (const sql::OperatorProfile& op : query.operators) {
      if (op.est_rows >= 0) estimated = true;
      if (op.name.find("Scan") != std::string::npos &&
          !EqualsIgnoreCase(op.detail, "Purchase")) {
        reads_scratch = true;
      }
    }
    if (reads_scratch) {
      ++scratch_readers;
      EXPECT_FALSE(estimated) << query.id << ": " << query.sql;
    }
  }
  EXPECT_GT(scratch_readers, 0);
  EXPECT_EQ(after.output.num_rules, before.output.num_rules);
  EXPECT_EQ(DecodedRules("FollowUps"), rules_before);
}

TEST_F(EngineE2eTest, ZeroRulesWhenSupportTooHigh) {
  ASSERT_TRUE(datagen::MakePaperPurchaseTable(&catalog_).ok());
  MiningRunStats stats = MustMine(
      "MINE RULE NoRules AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS "
      "HEAD, SUPPORT, CONFIDENCE FROM Purchase GROUP BY tr "
      "EXTRACTING RULES WITH SUPPORT: 1.0, CONFIDENCE: 0.5");
  EXPECT_EQ(stats.output.num_rules, 0);
  sql::QueryResult result = MustQuery("SELECT COUNT(*) FROM NoRules");
  EXPECT_EQ(result.rows[0][0].AsInteger(), 0);
}

TEST_F(EngineE2eTest, MiningOverAViewSource) {
  ASSERT_TRUE(datagen::MakePaperPurchaseTable(&catalog_).ok());
  // A view that filters and renames: mining it must equal mining the
  // equivalent inline source condition (the paper's "unrestricted query"
  // extraction, §1).
  MustQuery(
      "CREATE VIEW Recent AS SELECT tr, customer, item, price FROM "
      "Purchase WHERE date >= DATE '1995-12-18'");
  MiningRunStats via_view = MustMine(
      "MINE RULE ViaView AS SELECT DISTINCT 1..n item AS BODY, 1..1 item "
      "AS HEAD, SUPPORT, CONFIDENCE FROM Recent GROUP BY customer "
      "EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.5");
  MiningRunStats direct = MustMine(
      "MINE RULE Direct AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS "
      "HEAD, SUPPORT, CONFIDENCE FROM Purchase WHERE date >= DATE "
      "'1995-12-18' GROUP BY customer "
      "EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.5");
  EXPECT_EQ(via_view.output.num_rules, direct.output.num_rules);
  EXPECT_EQ(via_view.total_groups, direct.total_groups);
  auto view_rules = DecodedRules("ViaView");
  auto direct_rules = DecodedRules("Direct");
  EXPECT_EQ(view_rules, direct_rules);
  EXPECT_FALSE(view_rules.empty());
}

TEST_F(EngineE2eTest, MultiAttributeSimpleClass) {
  ASSERT_TRUE(datagen::MakePaperPurchaseTable(&catalog_).ok());
  // (item, qty) pairs as the shared body/head schema: still the simple
  // class (same attrs, no clusters/conditions), exercising composite item
  // encoding in Q3/Q4.
  MiningRunStats stats = MustMine(
      "MINE RULE Pairs AS SELECT DISTINCT 1..n item, qty AS BODY, 1..1 "
      "item, qty AS HEAD, SUPPORT, CONFIDENCE FROM Purchase GROUP BY "
      "customer EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.5");
  EXPECT_TRUE(stats.directives.IsSimpleClass());
  EXPECT_FALSE(stats.core.used_general);
  // (jackets,1) appears for both customers; so does at least one rule
  // between composite items bought by both.
  sql::QueryResult bodies = MustQuery(
      "SELECT DISTINCT item, qty FROM Pairs_Bodies ORDER BY 1, 2");
  EXPECT_GE(bodies.rows.size(), 1u);
  EXPECT_EQ(bodies.schema.num_columns(), 2u);
}

TEST_F(EngineE2eTest, StaleCacheDetectableViaInvalidate) {
  ASSERT_TRUE(datagen::MakePaperPurchaseTable(&catalog_).ok());
  MiningOptions options;
  options.reuse_preprocessing = true;
  const char* stmt =
      "MINE RULE CacheOut AS SELECT DISTINCT 1..n item AS BODY, 1..1 item "
      "AS HEAD, SUPPORT, CONFIDENCE FROM Purchase GROUP BY tr "
      "EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.9";
  MiningRunStats first = MustMine(stmt, options);
  // Source DML is detected automatically via table epochs in the cache key
  // (tests/stale_cache_test.cc); InvalidateCache remains as an explicit
  // reset and must also force re-encoding.
  MustQuery("DELETE FROM Purchase WHERE item = 'col_shirts'");
  system_.InvalidateCache();
  MiningRunStats second = MustMine(stmt, options);
  EXPECT_FALSE(second.preprocessing_reused);
  EXPECT_NE(first.output.num_rules, second.output.num_rules);
}

TEST_F(EngineE2eTest, MiningConditionWithDistinctHeadSchema) {
  ASSERT_TRUE(datagen::MakePaperPurchaseTable(&catalog_).ok());
  // Body over items (expensive only), head over dates (in 1995 only, i.e.
  // all): H and M together, so Q5 and the materialized MiningSourceH both
  // run and Q8 joins two genuinely different role tables.
  MiningRunStats stats = MustMine(
      "MINE RULE WhenExpensive AS SELECT DISTINCT 1..1 item AS BODY, 1..1 "
      "date AS HEAD, SUPPORT, CONFIDENCE WHERE BODY.price >= 100 AND "
      "HEAD.qty >= 1 FROM Purchase GROUP BY customer "
      "EXTRACTING RULES WITH SUPPORT: 0.9, CONFIDENCE: 0.9");
  EXPECT_TRUE(stats.directives.H);
  EXPECT_TRUE(stats.directives.M);
  auto rules = DecodedRules("WhenExpensive", "item", "date");
  // jackets (expensive) bought by both customers; 12/18/95 visited by both.
  ASSERT_TRUE(rules.count("{jackets} => {12/18/1995}")) << rules.size();
  // No cheap item may appear in any body.
  sql::QueryResult bodies =
      MustQuery("SELECT DISTINCT item FROM WhenExpensive_Bodies");
  for (const Row& row : bodies.rows) {
    EXPECT_NE(row[0].AsString(), "col_shirts");
  }
}

TEST_F(EngineE2eTest, MultiTableJoinSource) {
  ASSERT_TRUE(datagen::MakePaperPurchaseTable(&catalog_).ok());
  MustQuery("CREATE TABLE Product (sku VARCHAR, brand VARCHAR)");
  MustQuery(
      "INSERT INTO Product VALUES ('ski_pants', 'Alpine'), "
      "('hiking_boots', 'Alpine'), ('jackets', 'Urban'), "
      "('col_shirts', 'Urban'), ('brown_boots', 'Alpine')");
  // Mine brand co-occurrence per customer through a two-table join (W).
  MiningRunStats stats = MustMine(
      "MINE RULE Brands AS SELECT DISTINCT 1..1 brand AS BODY, 1..1 brand "
      "AS HEAD, SUPPORT, CONFIDENCE FROM Purchase, Product WHERE item = "
      "sku GROUP BY customer EXTRACTING RULES WITH SUPPORT: 0.9, "
      "CONFIDENCE: 0.9");
  EXPECT_TRUE(stats.directives.W);
  auto rules = DecodedRules("Brands", "brand", "brand");
  // Both customers bought both brands: Alpine<=>Urban both directions.
  EXPECT_EQ(rules.size(), 2u);
  EXPECT_TRUE(rules.count("{Alpine} => {Urban}"));
  EXPECT_TRUE(rules.count("{Urban} => {Alpine}"));
}

TEST_F(EngineE2eTest, EmptySourceTableYieldsNoRules) {
  MustQuery(
      "CREATE TABLE Purchase (tr INTEGER, customer VARCHAR, item VARCHAR, "
      "date DATE, price DOUBLE, qty INTEGER)");
  MiningRunStats stats = MustMine(
      "MINE RULE Empty AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS "
      "HEAD, SUPPORT, CONFIDENCE FROM Purchase GROUP BY customer "
      "EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.5");
  EXPECT_EQ(stats.total_groups, 0);
  EXPECT_EQ(stats.output.num_rules, 0);
  // Output tables exist even when empty (downstream SQL must not break).
  EXPECT_EQ(MustQuery("SELECT COUNT(*) FROM Empty").rows[0][0].AsInteger(),
            0);
}

TEST_F(EngineE2eTest, GroupHavingCanEliminateAllGroups) {
  ASSERT_TRUE(datagen::MakePaperPurchaseTable(&catalog_).ok());
  MiningRunStats stats = MustMine(
      "MINE RULE None AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS "
      "HEAD, SUPPORT, CONFIDENCE FROM Purchase GROUP BY customer HAVING "
      "COUNT(*) > 100 EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1");
  EXPECT_EQ(stats.output.num_rules, 0);
}

TEST_F(EngineE2eTest, AllGeneralDirectivesTogether) {
  ASSERT_TRUE(datagen::MakePaperPurchaseTable(&catalog_).ok());
  // H (head over qty), M (price/qty mining condition), C+K (temporal
  // cluster ordering) in one statement: every general-class query
  // (Q5, Q6, Q7, Q4b x2, Q8..Q11) runs.
  MiningRunStats stats = MustMine(
      "MINE RULE Everything AS SELECT DISTINCT 1..1 item AS BODY, 1..1 qty "
      "AS HEAD, SUPPORT, CONFIDENCE WHERE BODY.price >= 100 AND HEAD.qty "
      ">= 2 FROM Purchase GROUP BY customer CLUSTER BY date HAVING "
      "BODY.date < HEAD.date EXTRACTING RULES WITH SUPPORT: 0.4, "
      "CONFIDENCE: 0.1");
  EXPECT_EQ(stats.directives.ToString(), "H-M-CK--");

  // Hand-derived from Figure 1 (only cust2 has a qualifying couple):
  //   {brown_boots} => {2} and => {3}: support 0.5, confidence 1.0
  //   {jackets}     => {2} and => {3}: support 0.5, confidence 0.5
  //     (jackets is a body item in both groups, hence confidence 1/2).
  auto rules = DecodedRules("Everything", "item", "qty");
  ASSERT_EQ(rules.size(), 4u);
  ASSERT_TRUE(rules.count("{brown_boots} => {2}"));
  ASSERT_TRUE(rules.count("{brown_boots} => {3}"));
  ASSERT_TRUE(rules.count("{jackets} => {2}"));
  ASSERT_TRUE(rules.count("{jackets} => {3}"));
  EXPECT_DOUBLE_EQ(rules["{brown_boots} => {2}"].first, 0.5);
  EXPECT_DOUBLE_EQ(rules["{brown_boots} => {2}"].second, 1.0);
  EXPECT_DOUBLE_EQ(rules["{jackets} => {3}"].first, 0.5);
  EXPECT_DOUBLE_EQ(rules["{jackets} => {3}"].second, 0.5);
}

TEST_F(EngineE2eTest, ErrorsSurfaceCleanly) {
  ASSERT_TRUE(datagen::MakePaperPurchaseTable(&catalog_).ok());
  Result<MiningRunStats> bad_table = system_.ExecuteMineRule(
      "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD FROM "
      "NoSuch GROUP BY customer EXTRACTING RULES WITH SUPPORT: 0.1, "
      "CONFIDENCE: 0.1");
  EXPECT_FALSE(bad_table.ok());
  Result<MiningRunStats> bad_parse =
      system_.ExecuteMineRule("MINE RULE oops");
  EXPECT_FALSE(bad_parse.ok());
  EXPECT_EQ(bad_parse.status().code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace minerule::mr
