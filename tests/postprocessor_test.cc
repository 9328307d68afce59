#include "postprocess/postprocessor.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "datagen/paper_example.h"
#include "minerule/parser.h"

namespace minerule::mr {
namespace {

class PostprocessorTest : public ::testing::Test {
 protected:
  PostprocessorTest() : engine_(&catalog_) {}

  void SetUp() override {
    ASSERT_TRUE(datagen::MakePaperPurchaseTable(&catalog_).ok());
    // Run the preprocessing so Bset exists for decoding.
    auto stmt = ParseMineRule(
        "MINE RULE Out AS SELECT DISTINCT 1..n item AS BODY, 1..n item AS "
        "HEAD, SUPPORT, CONFIDENCE FROM Purchase GROUP BY customer "
        "EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.1");
    ASSERT_TRUE(stmt.ok());
    stmt_ = std::move(stmt).value();
    Translator translator(&catalog_);
    auto translation = translator.Translate(stmt_);
    ASSERT_TRUE(translation.ok()) << translation.status();
    translation_ = std::move(translation).value();
    Preprocessor preprocessor(&engine_);
    auto pre = preprocessor.Run(stmt_, translation_);
    ASSERT_TRUE(pre.ok()) << pre.status();
    pre_ = std::move(pre).value();
  }

  /// Looks up an item's Bid in the encoded Bset.
  mining::ItemId BidOf(const std::string& item) {
    auto result =
        engine_.Execute("SELECT Bid FROM Bset WHERE item = '" + item + "'");
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.value().rows.size(), 1u) << item;
    return static_cast<mining::ItemId>(result.value().rows[0][0].AsInteger());
  }

  Catalog catalog_;
  sql::SqlEngine engine_;
  MineRuleStatement stmt_;
  Translation translation_;
  PreprocessResult pre_;
};

TEST_F(PostprocessorTest, DecodesRulesIntoThreeTables) {
  std::vector<mining::MinedRule> rules(2);
  rules[0].body = {BidOf("jackets")};
  rules[0].head = {BidOf("col_shirts")};
  rules[0].group_count = 1;
  rules[0].body_group_count = 2;
  rules[1].body = {BidOf("jackets"), BidOf("brown_boots")};
  rules[1].head = {BidOf("col_shirts")};
  std::sort(rules[1].body.begin(), rules[1].body.end());
  rules[1].group_count = 1;
  rules[1].body_group_count = 1;

  Postprocessor postprocessor(&engine_);
  auto result = postprocessor.Run(stmt_, translation_, rules,
                                  pre_.total_groups, pre_.program);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().num_rules, 2);
  EXPECT_EQ(result.value().rules_table, "Out");

  // <out>: one row per rule with support/confidence.
  auto out = engine_.Execute("SELECT * FROM Out");
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().rows.size(), 2u);
  EXPECT_EQ(out.value().schema.num_columns(), 4u);
  EXPECT_DOUBLE_EQ(out.value().rows[0][2].AsDouble(), 0.5);   // 1 of 2 groups
  EXPECT_DOUBLE_EQ(out.value().rows[0][3].AsDouble(), 0.5);   // 1 of 2 bodies

  // <out>_Bodies decodes Bids to item names.
  auto bodies = engine_.Execute("SELECT item FROM Out_Bodies ORDER BY 1");
  ASSERT_TRUE(bodies.ok());
  ASSERT_EQ(bodies.value().rows.size(), 3u);  // 1 + 2 items
  EXPECT_EQ(bodies.value().rows[0][0].AsString(), "brown_boots");
  EXPECT_EQ(bodies.value().rows[2][0].AsString(), "jackets");

  auto heads = engine_.Execute("SELECT DISTINCT item FROM Out_Heads");
  ASSERT_TRUE(heads.ok());
  ASSERT_EQ(heads.value().rows.size(), 1u);
  EXPECT_EQ(heads.value().rows[0][0].AsString(), "col_shirts");
}

TEST_F(PostprocessorTest, IdenticalBodiesShareOneBodyId) {
  std::vector<mining::MinedRule> rules(2);
  rules[0].body = {BidOf("jackets")};
  rules[0].head = {BidOf("col_shirts")};
  rules[0].group_count = rules[0].body_group_count = 1;
  rules[1].body = {BidOf("jackets")};
  rules[1].head = {BidOf("brown_boots")};
  rules[1].group_count = rules[1].body_group_count = 1;

  Postprocessor postprocessor(&engine_);
  ASSERT_TRUE(postprocessor
                  .Run(stmt_, translation_, rules, pre_.total_groups,
                       pre_.program)
                  .ok());
  auto distinct_bodies =
      engine_.Execute("SELECT COUNT(DISTINCT BodyId) FROM Out");
  ASSERT_TRUE(distinct_bodies.ok());
  EXPECT_EQ(distinct_bodies.value().rows[0][0].AsInteger(), 1);
  auto body_rows = engine_.Execute("SELECT COUNT(*) FROM OutputBodies");
  ASSERT_TRUE(body_rows.ok());
  EXPECT_EQ(body_rows.value().rows[0][0].AsInteger(), 1);
}

// BodyId and HeadId are each set's rank in lexicographic order, from 1
// (here {x1} < {x1, x3} < {x2}: not ordered by size), whether or not the
// rules arrive sorted by RuleLess; <out> keeps the rules' input order.
TEST_F(PostprocessorTest, IdsAreLexicographicRanks) {
  auto bids = engine_.Execute("SELECT Bid FROM Bset ORDER BY Bid");
  ASSERT_TRUE(bids.ok());
  ASSERT_GE(bids.value().rows.size(), 4u);
  std::vector<int64_t> x;
  for (const Row& row : bids.value().rows) x.push_back(row[0].AsInteger());
  auto set = [&](std::initializer_list<int> positions) {
    mining::Itemset items;
    for (int p : positions) items.push_back(static_cast<mining::ItemId>(x[p]));
    return items;
  };
  // Sorted by RuleLess. Bodies {x2} < {x2, x4} < {x4}; heads {x1} <
  // {x1, x3} < {x2} < {x3}.
  std::vector<mining::MinedRule> sorted = {
      {set({1}), set({0}), 1, 2},       {set({1}), set({0, 2}), 1, 2},
      {set({1}), set({2}), 2, 2},       {set({1, 3}), set({0}), 1, 1},
      {set({1, 3}), set({0, 2}), 1, 1}, {set({3}), set({0, 2}), 1, 2},
      {set({3}), set({1}), 2, 2}};
  const std::vector<std::pair<int64_t, int64_t>> sorted_ids = {
      {1, 1}, {1, 2}, {1, 4}, {2, 1}, {2, 2}, {3, 2}, {3, 3}};
  const std::vector<std::pair<int64_t, int64_t>> expected_bodies = {
      {1, x[1]}, {2, x[1]}, {2, x[3]}, {3, x[3]}};
  const std::vector<std::pair<int64_t, int64_t>> expected_heads = {
      {1, x[0]}, {2, x[0]}, {2, x[2]}, {3, x[1]}, {4, x[2]}};

  auto pairs_of = [&](const std::string& sql) {
    std::vector<std::pair<int64_t, int64_t>> pairs;
    auto result = engine_.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    if (!result.ok()) return pairs;
    for (const Row& row : result.value().rows) {
      pairs.emplace_back(row[0].AsInteger(), row[1].AsInteger());
    }
    return pairs;
  };
  const std::vector<size_t> shuffled_order = {4, 0, 6, 2, 5, 1, 3};
  for (bool shuffle : {false, true}) {
    SCOPED_TRACE(shuffle ? "shuffled" : "sorted");
    std::vector<mining::MinedRule> rules;
    std::vector<std::pair<int64_t, int64_t>> ids;
    for (size_t i = 0; i < sorted.size(); ++i) {
      const size_t r = shuffle ? shuffled_order[i] : i;
      rules.push_back(sorted[r]);
      ids.push_back(sorted_ids[r]);
    }
    Postprocessor postprocessor(&engine_);
    auto result = postprocessor.Run(stmt_, translation_, rules,
                                    pre_.total_groups, pre_.program);
    ASSERT_TRUE(result.ok()) << result.status();
    // Table order is insertion order: no ORDER BY, so the rows are
    // compared exactly as written.
    EXPECT_EQ(pairs_of("SELECT BodyId, HeadId FROM Out"), ids);
    EXPECT_EQ(pairs_of("SELECT * FROM OutputBodies"), expected_bodies);
    EXPECT_EQ(pairs_of("SELECT * FROM OutputHeads"), expected_heads);
    auto out = engine_.Execute("SELECT SUPPORT, CONFIDENCE FROM Out");
    ASSERT_TRUE(out.ok());
    for (size_t i = 0; i < rules.size(); ++i) {
      EXPECT_DOUBLE_EQ(out.value().rows[i][0].AsDouble(),
                       rules[i].Support(pre_.total_groups));
      EXPECT_DOUBLE_EQ(out.value().rows[i][1].AsDouble(),
                       rules[i].Confidence());
    }
  }
}

TEST_F(PostprocessorTest, EmptyRuleSetProducesEmptyTables) {
  Postprocessor postprocessor(&engine_);
  auto result = postprocessor.Run(stmt_, translation_, {}, pre_.total_groups,
                                  pre_.program);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().num_rules, 0);
  auto out = engine_.Execute("SELECT COUNT(*) FROM Out");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().rows[0][0].AsInteger(), 0);
}

TEST_F(PostprocessorTest, RerunReplacesOutputTables) {
  std::vector<mining::MinedRule> rules(1);
  rules[0].body = {BidOf("jackets")};
  rules[0].head = {BidOf("col_shirts")};
  rules[0].group_count = rules[0].body_group_count = 1;
  Postprocessor postprocessor(&engine_);
  ASSERT_TRUE(postprocessor
                  .Run(stmt_, translation_, rules, pre_.total_groups,
                       pre_.program)
                  .ok());
  ASSERT_TRUE(postprocessor
                  .Run(stmt_, translation_, {}, pre_.total_groups,
                       pre_.program)
                  .ok());
  auto out = engine_.Execute("SELECT COUNT(*) FROM Out");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().rows[0][0].AsInteger(), 0);
}

}  // namespace
}  // namespace minerule::mr
