#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <string>

#include "common/random.h"
#include "mining/apriori.h"
#include "mining/partition.h"
#include "mining/reference_miner.h"
#include "mining/simple_miner.h"

namespace minerule::mining {
namespace {

TransactionDb SmallDb() {
  // Groups: {1,2,3}, {1,2}, {2,3}, {1,3}, {1,2,3}.
  return TransactionDb::FromTransactions(
      {{1, 2, 3}, {1, 2}, {2, 3}, {1, 3}, {1, 2, 3}}, 5);
}

std::vector<FrequentItemset> MustMine(FrequentItemsetMiner* miner,
                                      const TransactionDb& db,
                                      int64_t min_count,
                                      int64_t max_size = -1,
                                      SimpleMinerStats* stats = nullptr) {
  auto result = miner->Mine(db, min_count, max_size, stats);
  EXPECT_TRUE(result.ok()) << miner->name() << ": " << result.status();
  return result.ok() ? std::move(result).value()
                     : std::vector<FrequentItemset>{};
}

TEST(ItemsetTest, CanonicalizeSortsAndDedupes) {
  Itemset items = {3, 1, 2, 3, 1};
  Canonicalize(&items);
  EXPECT_EQ(items, (Itemset{1, 2, 3}));
  EXPECT_TRUE(IsCanonical(items));
  EXPECT_FALSE(IsCanonical(Itemset{2, 1}));
  EXPECT_FALSE(IsCanonical(Itemset{1, 1}));
}

TEST(ItemsetTest, SubsetChecks) {
  EXPECT_TRUE(IsSubset({}, {1, 2}));
  EXPECT_TRUE(IsSubset({2}, {1, 2, 3}));
  EXPECT_TRUE(IsSubset({1, 3}, {1, 2, 3}));
  EXPECT_FALSE(IsSubset({1, 4}, {1, 2, 3}));
  EXPECT_FALSE(IsSubset({1, 2}, {2}));
}

TEST(ItemsetTest, WithItemInsertsInOrder) {
  EXPECT_EQ(WithItem({1, 3}, 2), (Itemset{1, 2, 3}));
  EXPECT_EQ(WithItem({1, 3}, 0), (Itemset{0, 1, 3}));
  EXPECT_EQ(WithItem({1, 3}, 9), (Itemset{1, 3, 9}));
  EXPECT_EQ(WithItem({}, 5), (Itemset{5}));
}

TEST(GidListTest, Intersection) {
  EXPECT_EQ(IntersectPositionLists({1, 3, 5, 7}, {2, 3, 5, 8}),
            (PositionList{3, 5}));
  EXPECT_EQ(IntersectPositionLists({}, {1}), PositionList{});
  EXPECT_EQ(IntersectPositionLists({1, 2, 3}, {1, 2, 3}),
            (PositionList{1, 2, 3}));
  EXPECT_EQ(IntersectPositionLists({1, 2}, {3, 4}), PositionList{});
}

TEST(TransactionDbTest, FromPairsBuildsBothLayouts) {
  TransactionDb db = TransactionDb::FromPairs(
      {{10, 1}, {10, 2}, {20, 2}, {20, 1}, {30, 3}, {10, 1}}, 4);
  EXPECT_EQ(db.num_transactions(), 3u);
  EXPECT_EQ(db.total_groups(), 4);
  EXPECT_EQ(db.items(), (std::vector<ItemId>{1, 2, 3}));
  EXPECT_EQ(db.gids(), (std::vector<Gid>{10, 20, 30}));
  EXPECT_EQ(db.positions(1), (PositionList{0, 1}));
  EXPECT_EQ(db.positions(2), (PositionList{0, 1}));
  EXPECT_EQ(db.positions(3), (PositionList{2}));
  EXPECT_EQ(db.positions(99), PositionList{});
  // Duplicate pair (10,1) deduplicated.
  EXPECT_EQ(db.transactions()[0], (Itemset{1, 2}));
}

// FromPairs against a std::map reference: gids ascending, each
// transaction the sorted distinct items of its gid, items ascending, and
// each item's position list, mapped through gids(), the ascending gids
// holding it.
void ExpectFromPairsMatchesReference(
    const std::vector<std::pair<Gid, ItemId>>& pairs) {
  std::map<Gid, std::set<ItemId>> groups;
  std::map<ItemId, std::set<Gid>> lists;
  for (const auto& [gid, item] : pairs) {
    groups[gid].insert(item);
    lists[item].insert(gid);
  }
  TransactionDb db = TransactionDb::FromPairs(pairs, 7);
  EXPECT_EQ(db.total_groups(), 7);
  std::vector<Gid> gids;
  std::vector<Itemset> transactions;
  for (const auto& [gid, items] : groups) {
    gids.push_back(gid);
    transactions.emplace_back(items.begin(), items.end());
  }
  EXPECT_EQ(db.gids(), gids);
  EXPECT_EQ(db.transactions(), transactions);
  std::vector<ItemId> items;
  for (const auto& [item, list] : lists) {
    items.push_back(item);
    std::vector<Gid> holding;
    for (uint32_t position : db.positions(item)) {
      holding.push_back(db.gids()[position]);
    }
    EXPECT_EQ(holding, std::vector<Gid>(list.begin(), list.end())) << item;
  }
  EXPECT_EQ(db.items(), items);
}

TEST(TransactionDbTest, FromPairsMatchesReference) {
  constexpr Gid kMin = std::numeric_limits<int32_t>::min();
  constexpr Gid kMax = std::numeric_limits<int32_t>::max();
  const std::vector<std::pair<Gid, ItemId>> extremes = {
      {kMax, kMin}, {kMin, kMax}, {-1, -1}, {0, 0},   {kMin, kMin},
      {-1, 0},      {kMax, kMax}, {0, -1},  {kMin, -7}, {-65536, 65535},
      {65536, -65537}};
  std::vector<std::pair<Gid, ItemId>> sorted = extremes;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::pair<Gid, ItemId>> reversed(sorted.rbegin(),
                                               sorted.rend());
  std::vector<std::pair<Gid, ItemId>> duplicates(50, {-3, kMax});

  // Wide random values exercise every 16-bit radix pass; dense small
  // values leave the upper digits constant, so their passes are skipped.
  Random rng(20);
  std::vector<std::pair<Gid, ItemId>> wide;
  std::vector<std::pair<Gid, ItemId>> dense;
  for (int i = 0; i < 20000; ++i) {
    wide.emplace_back(
        static_cast<Gid>(rng.NextInt(kMin, kMax) / (1 + i % 3)),
        static_cast<ItemId>(rng.NextInt(kMin, kMax) % 1000));
    dense.emplace_back(static_cast<Gid>(rng.NextInt(0, 999)),
                       static_cast<ItemId>(rng.NextInt(0, 49)));
  }

  const std::vector<std::pair<const char*,
                              std::vector<std::pair<Gid, ItemId>>>>
      inputs = {{"extremes", extremes}, {"sorted", sorted},
                {"reverse_sorted", reversed}, {"all_duplicates", duplicates},
                {"empty", {}}, {"one_pair", {{kMin, kMax}}},
                {"wide_random", wide}, {"dense_random", dense}};
  for (const auto& [name, pairs] : inputs) {
    SCOPED_TRACE(name);
    ExpectFromPairsMatchesReference(pairs);
  }
}

TEST(TransactionDbTest, SliceRestrictsTransactions) {
  TransactionDb db = SmallDb();
  TransactionDb slice = db.Slice(1, 4);
  EXPECT_EQ(slice.num_transactions(), 3u);
  EXPECT_EQ(slice.total_groups(), 3);
  EXPECT_EQ(slice.transactions()[0], (Itemset{1, 2}));
}

TEST(SimpleMinerTest, MinGroupCountRounding) {
  EXPECT_EQ(MinGroupCount(0.2, 10), 2);
  EXPECT_EQ(MinGroupCount(0.25, 10), 3);  // ceil(2.5)
  EXPECT_EQ(MinGroupCount(0.0, 10), 1);
  EXPECT_EQ(MinGroupCount(1.0, 10), 10);
  EXPECT_EQ(MinGroupCount(0.001, 10), 1);
  EXPECT_EQ(MinGroupCount(0.3, 10), 3);  // exact boundary stays 3
}

TEST(GenerateCandidatesTest, JoinAndPrune) {
  // L2 = {1,2},{1,3},{2,3},{2,4}: join gives {1,2,3} (kept: all subsets
  // present) and {2,3,4} (pruned: {3,4} missing).
  std::vector<Itemset> level = {{1, 2}, {1, 3}, {2, 3}, {2, 4}};
  auto candidates = GenerateCandidates(level);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0], (Itemset{1, 2, 3}));
}

TEST(AprioriTest, KnownCountsOnSmallDb) {
  AprioriMiner miner;
  SimpleMinerStats stats;
  auto itemsets = MustMine(&miner, SmallDb(), 3, -1, &stats);
  // Counts: 1:4, 2:4, 3:4, {1,2}:3, {1,3}:3, {2,3}:3, {1,2,3}:2.
  ASSERT_EQ(itemsets.size(), 6u);
  for (const FrequentItemset& fi : itemsets) {
    if (fi.items.size() == 1) {
      EXPECT_EQ(fi.group_count, 4) << fi.items[0];
    }
    if (fi.items.size() == 2) {
      EXPECT_EQ(fi.group_count, 3);
    }
  }
  EXPECT_GE(stats.passes, 3);  // levels 1..3 attempted
}

TEST(AprioriTest, MaxSizeCapsLevels) {
  AprioriMiner miner;
  auto itemsets = MustMine(&miner, SmallDb(), 1, 1);
  for (const FrequentItemset& fi : itemsets) {
    EXPECT_EQ(fi.items.size(), 1u);
  }
}

TEST(ReferenceMinerTest, RefusesWideDatabases) {
  std::vector<Itemset> txns(1);
  for (ItemId i = 0; i < 25; ++i) txns[0].push_back(i);
  TransactionDb db = TransactionDb::FromTransactions(std::move(txns), 1);
  ReferenceMiner miner;
  auto result = miner.Mine(db, 1, -1, nullptr);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(RuleBuilderTest, PaperStyleRules) {
  // Itemsets over items {1=A, 2=B}: A:4, B:4, AB:3 of 5 groups.
  std::vector<FrequentItemset> itemsets = {
      {{1}, 4}, {{2}, 4}, {{1, 2}, 3}};
  auto rules = BuildRulesFromItemsets(itemsets, 1, 0.5, {1, -1}, {1, 1});
  // A=>B and B=>A, both confidence 3/4.
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0].body, (Itemset{1}));
  EXPECT_EQ(rules[0].head, (Itemset{2}));
  EXPECT_DOUBLE_EQ(rules[0].Confidence(), 0.75);
  EXPECT_DOUBLE_EQ(rules[0].Support(5), 0.6);
}

TEST(RuleBuilderTest, ConfidenceFilter) {
  std::vector<FrequentItemset> itemsets = {
      {{1}, 10}, {{2}, 2}, {{1, 2}, 2}};
  // 1=>2: conf 0.2; 2=>1: conf 1.0.
  auto rules = BuildRulesFromItemsets(itemsets, 1, 0.5, {1, -1}, {1, 1});
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0].body, (Itemset{2}));
}

TEST(RuleBuilderTest, CardinalityConstraints) {
  std::vector<FrequentItemset> itemsets = {
      {{1}, 5}, {{2}, 5}, {{3}, 5}, {{1, 2}, 5}, {{1, 3}, 5},
      {{2, 3}, 5}, {{1, 2, 3}, 5}};
  // Body exactly 2, head exactly 1.
  auto rules = BuildRulesFromItemsets(itemsets, 1, 0.0, {2, 2}, {1, 1});
  ASSERT_EQ(rules.size(), 3u);
  for (const MinedRule& rule : rules) {
    EXPECT_EQ(rule.body.size(), 2u);
    EXPECT_EQ(rule.head.size(), 1u);
  }
}

// Rule derivation against a brute force over random itemset families: for
// each itemset L and each non-empty proper subset H, the rule (L−H) ⇒ H if
// both sides fit their cardinalities, L−H is in the family and the rule is
// confident; sorted by RuleLess. The families are the exact frequent
// itemsets of random databases, so closed under subsets, in shuffled
// order; a copy with random members dropped has heads (and bodies) outside
// the family.
struct RuleBuilderCase {
  const char* name;
  CardinalityConstraint body_card;
  CardinalityConstraint head_card;
  int num_threads;
};

// Without a printer gtest shows the case as raw bytes, `name`'s address
// among them, so the listed test names would change from run to run.
void PrintTo(const RuleBuilderCase& c, std::ostream* os) {
  *os << c.name << " threads " << c.num_threads;
}

class RuleBuilderTest : public ::testing::TestWithParam<RuleBuilderCase> {};

std::vector<MinedRule> BruteForceRules(
    const std::vector<FrequentItemset>& itemsets, int64_t min_group_count,
    double min_confidence, const CardinalityConstraint& body_card,
    const CardinalityConstraint& head_card) {
  std::map<Itemset, int64_t> counts;
  for (const FrequentItemset& fi : itemsets) counts[fi.items] = fi.group_count;
  std::vector<MinedRule> rules;
  for (const FrequentItemset& fi : itemsets) {
    const size_t k = fi.items.size();
    if (k < 2 || fi.group_count < min_group_count) continue;
    for (uint32_t mask = 1; mask + 1 < (1u << k); ++mask) {
      MinedRule rule;
      for (size_t i = 0; i < k; ++i) {
        ((mask >> i) & 1 ? rule.head : rule.body).push_back(fi.items[i]);
      }
      if (!body_card.Allows(rule.body.size()) ||
          !head_card.Allows(rule.head.size())) {
        continue;
      }
      auto body = counts.find(rule.body);
      if (body == counts.end()) continue;
      rule.group_count = fi.group_count;
      rule.body_group_count = body->second;
      if (rule.Confidence() + 1e-12 < min_confidence) continue;
      rules.push_back(std::move(rule));
    }
  }
  std::sort(rules.begin(), rules.end(), RuleLess);
  return rules;
}

TEST_P(RuleBuilderTest, MatchesBruteForce) {
  const RuleBuilderCase& c = GetParam();
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Random rng(seed);
    std::vector<Itemset> txns;
    for (int t = 0; t < 60; ++t) {
      Itemset items;
      for (ItemId item = 0; item < 10; ++item) {
        if (rng.NextBool(0.5)) items.push_back(item);
      }
      txns.push_back(std::move(items));
    }
    const TransactionDb db = TransactionDb::FromTransactions(txns, 60);
    ReferenceMiner miner;
    std::vector<FrequentItemset> closed = MustMine(&miner, db, 4);
    // Enough itemsets for several morsels of rule derivation.
    ASSERT_GT(closed.size(), 200u) << closed.size();
    std::shuffle(closed.begin(), closed.end(), std::mt19937_64(seed));
    std::vector<FrequentItemset> gapped;
    for (const FrequentItemset& fi : closed) {
      if (!rng.NextBool(0.2)) gapped.push_back(fi);
    }
    for (const auto* family : {&closed, &gapped}) {
      for (double confidence : {0.0, 0.6}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + (family == &closed
                                                          ? " closed"
                                                          : " gapped") +
                     " confidence " + std::to_string(confidence));
        const std::vector<MinedRule> expected = BruteForceRules(
            *family, 5, confidence, c.body_card, c.head_card);
        const std::vector<MinedRule> actual =
            BuildRulesFromItemsets(*family, 5, confidence, c.body_card,
                                   c.head_card, c.num_threads);
        ASSERT_EQ(actual.size(), expected.size());
        if (family == &closed && confidence == 0.0) {
          EXPECT_FALSE(actual.empty());
        }
        for (size_t i = 0; i < expected.size(); ++i) {
          EXPECT_EQ(actual[i].body, expected[i].body) << i;
          EXPECT_EQ(actual[i].head, expected[i].head) << i;
          EXPECT_EQ(actual[i].group_count, expected[i].group_count) << i;
          EXPECT_EQ(actual[i].body_group_count, expected[i].body_group_count)
              << i;
        }
      }
    }
  }
}

std::vector<RuleBuilderCase> RuleBuilderCases() {
  std::vector<RuleBuilderCase> cases;
  for (int threads : {1, 2, 8}) {
    cases.push_back({"b1n_h11", {1, -1}, {1, 1}, threads});
    cases.push_back({"b23_h12", {2, 3}, {1, 2}, threads});
    cases.push_back({"b11_h2n", {1, 1}, {2, -1}, threads});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Cardinalities, RuleBuilderTest, ::testing::ValuesIn(RuleBuilderCases()),
    [](const ::testing::TestParamInfo<RuleBuilderCase>& info) {
      return std::string(info.param.name) + "_t" +
             std::to_string(info.param.num_threads);
    });

// ---------------------------------------------------------------------------
// Pool equivalence: every algorithm must produce the same frequent itemsets
// as the brute-force reference, across randomized databases and thresholds.
// ---------------------------------------------------------------------------

struct PoolCase {
  SimpleAlgorithm algorithm;
  uint64_t seed;
  double support;
};

// gtest lists a case as its raw bytes, and the 4 padding bytes after
// `algorithm` hold whatever the stack held, so two listings of one binary
// differ. Printing a copy whose padding is zeroed, in gtest's own format,
// keeps the listed names as they were and makes them stable.
void PrintTo(const PoolCase& c, std::ostream* os) {
  unsigned char bytes[sizeof(PoolCase)];
  std::memcpy(bytes, &c, sizeof bytes);
  constexpr size_t kEnd =
      offsetof(PoolCase, algorithm) + sizeof(SimpleAlgorithm);
  std::memset(bytes + kEnd, 0, offsetof(PoolCase, seed) - kEnd);
  ::testing::internal::PrintBytesInObjectTo(bytes, sizeof bytes, os);
}

class PoolEquivalenceTest : public ::testing::TestWithParam<PoolCase> {};

TransactionDb RandomDb(uint64_t seed, size_t num_groups, int num_items,
                       double density) {
  Random rng(seed);
  std::vector<Itemset> txns;
  txns.reserve(num_groups);
  for (size_t g = 0; g < num_groups; ++g) {
    Itemset txn;
    for (ItemId item = 1; item <= num_items; ++item) {
      if (rng.NextBool(density)) txn.push_back(item);
    }
    txns.push_back(std::move(txn));
  }
  return TransactionDb::FromTransactions(std::move(txns),
                                         static_cast<int64_t>(num_groups));
}

TEST_P(PoolEquivalenceTest, MatchesReferenceMiner) {
  const PoolCase& param = GetParam();
  TransactionDb db = RandomDb(param.seed, 60, 12, 0.35);
  const int64_t min_count = MinGroupCount(param.support, db.total_groups());

  ReferenceMiner reference;
  auto expected = MustMine(&reference, db, min_count);

  SimpleMinerOptions options;
  options.partition_count = 3;
  options.sample_rate = 0.4;
  options.seed = param.seed + 1;
  auto miner = CreateMiner(param.algorithm, options);
  auto actual = MustMine(miner.get(), db, min_count);

  ASSERT_EQ(actual.size(), expected.size())
      << miner->name() << " support=" << param.support;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].items, expected[i].items) << i;
    EXPECT_EQ(actual[i].group_count, expected[i].group_count)
        << ItemsetToString(expected[i].items);
  }
}

std::vector<PoolCase> PoolCases() {
  std::vector<PoolCase> cases;
  for (SimpleAlgorithm algorithm :
       {SimpleAlgorithm::kApriori, SimpleAlgorithm::kAprioriTid,
        SimpleAlgorithm::kGidList, SimpleAlgorithm::kDhp,
        SimpleAlgorithm::kPartition, SimpleAlgorithm::kSampling}) {
    for (uint64_t seed : {7u, 21u, 99u}) {
      for (double support : {0.05, 0.15, 0.3}) {
        cases.push_back({algorithm, seed, support});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, PoolEquivalenceTest, ::testing::ValuesIn(PoolCases()),
    [](const ::testing::TestParamInfo<PoolCase>& info) {
      return std::string(SimpleAlgorithmName(info.param.algorithm)) + "_s" +
             std::to_string(info.param.seed) + "_sup" +
             std::to_string(static_cast<int>(info.param.support * 100));
    });

// Rule-level equivalence across the pool.
class RulePoolTest : public ::testing::TestWithParam<SimpleAlgorithm> {};

TEST_P(RulePoolTest, SameRulesAsGidList) {
  TransactionDb db = RandomDb(1234, 80, 10, 0.4);
  SimpleMinerOptions options;
  options.sample_rate = 0.5;
  auto baseline = MineSimpleRules(db, 0.1, 0.4, {1, -1}, {1, 1},
                                  SimpleAlgorithm::kGidList, options);
  ASSERT_TRUE(baseline.ok());
  auto other =
      MineSimpleRules(db, 0.1, 0.4, {1, -1}, {1, 1}, GetParam(), options);
  ASSERT_TRUE(other.ok());
  ASSERT_EQ(other.value().size(), baseline.value().size());
  for (size_t i = 0; i < baseline.value().size(); ++i) {
    EXPECT_EQ(other.value()[i].body, baseline.value()[i].body);
    EXPECT_EQ(other.value()[i].head, baseline.value()[i].head);
    EXPECT_EQ(other.value()[i].group_count, baseline.value()[i].group_count);
    EXPECT_EQ(other.value()[i].body_group_count,
              baseline.value()[i].body_group_count);
  }
}

INSTANTIATE_TEST_SUITE_P(Pool, RulePoolTest,
                         ::testing::Values(SimpleAlgorithm::kApriori,
                                           SimpleAlgorithm::kAprioriTid,
                                           SimpleAlgorithm::kDhp,
                                           SimpleAlgorithm::kPartition,
                                           SimpleAlgorithm::kSampling),
                         [](const auto& info) {
                           return SimpleAlgorithmName(info.param);
                         });

TEST(PoolEquivalenceTest2, EmptyGroupsInDenominator) {
  // CodedSource only carries groups with at least one large item, so
  // total_groups can exceed the transaction count. Every algorithm must
  // count thresholds against total_groups, not the transaction count.
  TransactionDb db = TransactionDb::FromTransactions(
      {{1, 2}, {1, 2}, {1}, {2}}, /*total_groups=*/10);
  // support 0.2 of 10 groups = 2 groups.
  const int64_t min_count = MinGroupCount(0.2, db.total_groups());
  EXPECT_EQ(min_count, 2);
  for (SimpleAlgorithm algorithm :
       {SimpleAlgorithm::kApriori, SimpleAlgorithm::kAprioriTid,
        SimpleAlgorithm::kGidList, SimpleAlgorithm::kDhp,
        SimpleAlgorithm::kPartition, SimpleAlgorithm::kSampling}) {
    SimpleMinerOptions options;
    options.sample_rate = 1.0;  // deterministic for this tiny input
    auto miner = CreateMiner(algorithm, options);
    auto itemsets = MustMine(miner.get(), db, min_count);
    // Lexicographic order: {1}: 3 groups, {1,2}: 2 groups, {2}: 3 groups.
    ASSERT_EQ(itemsets.size(), 3u) << miner->name();
    EXPECT_EQ(itemsets[1].items, (Itemset{1, 2})) << miner->name();
    EXPECT_EQ(itemsets[1].group_count, 2) << miner->name();
  }
  // At support 0.4 (4 groups) nothing survives.
  for (SimpleAlgorithm algorithm :
       {SimpleAlgorithm::kGidList, SimpleAlgorithm::kPartition}) {
    auto miner = CreateMiner(algorithm);
    auto itemsets = MustMine(miner.get(), db, MinGroupCount(0.4, 10));
    EXPECT_TRUE(itemsets.empty()) << miner->name();
  }
}

// Level-extension edge cases of the gid-list miner, each checked against
// the reference miner at 1, 2 and 8 threads: max_size stopping after level
// 1 or 2, a level with a single member, a threshold equal to a list's full
// length, and an item in every transaction (the densest bitmap, over 130
// transactions so it spans three words with a partial last one).
TEST(GidListTest, LevelExtensionEdgeCases) {
  struct EdgeCase {
    const char* what;
    TransactionDb db;
    int64_t min_count;
    int64_t max_size;
  };
  std::vector<Itemset> dense_txns;
  Random rng(3);
  for (int t = 0; t < 130; ++t) {
    Itemset txn = {1};
    for (ItemId item = 2; item <= 6; ++item) {
      if (rng.NextBool(0.5)) txn.push_back(item);
    }
    dense_txns.push_back(std::move(txn));
  }
  std::vector<EdgeCase> cases;
  cases.push_back({"max_size 1", RandomDb(8, 60, 10, 0.4), 5, 1});
  cases.push_back({"max_size 2", RandomDb(8, 60, 10, 0.4), 5, 2});
  cases.push_back({"single frequent item",
                   TransactionDb::FromTransactions({{1, 2}, {1}, {1, 3}}, 3),
                   2, -1});
  cases.push_back(
      {"single frequent pair",
       TransactionDb::FromTransactions({{1, 2}, {1, 2, 3}, {3}, {4}}, 4), 2,
       -1});
  // {1}, {2} and {1,2} each occur in exactly the 3 groups min_count asks
  // for: the child list equals both parents' full lists.
  cases.push_back(
      {"threshold equals full list",
       TransactionDb::FromTransactions({{1, 2, 3}, {1, 2}, {1, 2, 3}, {4}}, 4),
       3, -1});
  cases.push_back({"item in every transaction",
                   TransactionDb::FromTransactions(dense_txns, 130), 30, -1});
  cases.push_back({"item in every transaction, threshold n",
                   TransactionDb::FromTransactions(dense_txns, 130), 130, -1});

  ReferenceMiner reference;
  for (const EdgeCase& c : cases) {
    auto expected = MustMine(&reference, c.db, c.min_count, c.max_size);
    ASSERT_FALSE(expected.empty()) << c.what;
    for (int threads : {1, 2, 8}) {
      SimpleMinerOptions options;
      options.num_threads = threads;
      auto miner = CreateMiner(SimpleAlgorithm::kGidList, options);
      SimpleMinerStats stats;
      auto actual = MustMine(miner.get(), c.db, c.min_count, c.max_size,
                             &stats);
      ASSERT_EQ(actual.size(), expected.size())
          << c.what << " threads=" << threads;
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(actual[i].items, expected[i].items) << c.what;
        EXPECT_EQ(actual[i].group_count, expected[i].group_count)
            << c.what << " " << ItemsetToString(expected[i].items);
      }
      if (c.max_size >= 0) {
        // No level past max_size is generated.
        EXPECT_EQ(stats.large_per_level.size(),
                  static_cast<size_t>(c.max_size))
            << c.what;
      }
    }
  }
}

TEST(SamplingMinerTest, DeterministicForFixedSeed) {
  TransactionDb db = RandomDb(5, 100, 10, 0.3);
  SimpleMinerOptions options;
  options.sample_rate = 0.3;
  options.seed = 17;
  auto a = CreateMiner(SimpleAlgorithm::kSampling, options);
  auto b = CreateMiner(SimpleAlgorithm::kSampling, options);
  auto ra = MustMine(a.get(), db, 10);
  auto rb = MustMine(b.get(), db, 10);
  ASSERT_EQ(ra.size(), rb.size());
}

TEST(PartitionMinerTest, MorePartitionsThanTransactions) {
  TransactionDb db = SmallDb();
  PartitionMiner miner(64);
  auto itemsets = MustMine(&miner, db, 3);
  EXPECT_EQ(itemsets.size(), 6u);
}

TEST(PartitionMinerTest, OversizedPartitionCountClampsToTransactions) {
  // Regression: partition_count far above the transaction count must clamp
  // to one transaction per slice (never an empty slice, whose threshold-1
  // local pass would blow up the candidate set) and still agree with the
  // reference miner — at every thread count.
  TransactionDb db = RandomDb(31, 7, 6, 0.5);
  ReferenceMiner reference;
  auto expected = MustMine(&reference, db, 2);
  for (int partition_count : {8, 1000}) {
    for (int threads : {1, 4}) {
      PartitionMiner miner(partition_count, threads);
      SimpleMinerStats stats;
      auto itemsets = MustMine(&miner, db, 2, -1, &stats);
      EXPECT_EQ(stats.passes, 2) << partition_count;
      ASSERT_EQ(itemsets.size(), expected.size())
          << "partitions=" << partition_count << " threads=" << threads;
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(itemsets[i].items, expected[i].items);
        EXPECT_EQ(itemsets[i].group_count, expected[i].group_count);
      }
      // Phase 2 counted at most the candidates 7 one-transaction slices can
      // propose; an unclamped slice count would not change correctness but
      // this pins the clamp's candidate accounting.
      ASSERT_EQ(stats.candidates_per_level.size(), 1u);
      EXPECT_GE(stats.candidates_per_level[0],
                static_cast<int64_t>(itemsets.size()));
    }
  }
}

TEST(PartitionMinerTest, SingleTransactionAndSingletonSlices) {
  // One transaction, many partitions: clamps to one slice.
  TransactionDb one = TransactionDb::FromTransactions({{1, 2, 3}}, 1);
  PartitionMiner miner(16);
  auto itemsets = MustMine(&miner, one, 1);
  EXPECT_EQ(itemsets.size(), 7u);  // all non-empty subsets of {1,2,3}
}

TEST(SimpleMinerTest, EmptyDatabaseYieldsNothing) {
  TransactionDb db = TransactionDb::FromTransactions({}, 0);
  for (SimpleAlgorithm algorithm :
       {SimpleAlgorithm::kApriori, SimpleAlgorithm::kAprioriTid,
        SimpleAlgorithm::kGidList, SimpleAlgorithm::kDhp,
        SimpleAlgorithm::kPartition, SimpleAlgorithm::kSampling}) {
    auto miner = CreateMiner(algorithm);
    auto itemsets = MustMine(miner.get(), db, 1);
    EXPECT_TRUE(itemsets.empty()) << miner->name();
  }
}

TEST(SimpleMinerTest, AlgorithmNamesRoundTrip) {
  for (SimpleAlgorithm algorithm :
       {SimpleAlgorithm::kApriori, SimpleAlgorithm::kAprioriTid,
        SimpleAlgorithm::kGidList, SimpleAlgorithm::kDhp,
        SimpleAlgorithm::kPartition, SimpleAlgorithm::kSampling,
        SimpleAlgorithm::kReference}) {
    auto parsed = SimpleAlgorithmFromName(SimpleAlgorithmName(algorithm));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), algorithm);
  }
  EXPECT_FALSE(SimpleAlgorithmFromName("fp-growth").ok());
}

}  // namespace
}  // namespace minerule::mining
