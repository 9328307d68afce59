// Cross-miner differential harness — the mining-layer analogue of
// tests/sql_differential_test.cc. On randomized Quest and dense uniform
// workloads it pins the whole algorithm pool to itself:
//
//  1. every FrequentItemsetMiner returns exactly the same itemset set
//     (counts included) on the same database;
//  2. every miner returns bit-identical results at num_threads in {1,2,8} —
//     the determinism guarantee of the parallel mining core.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/random.h"
#include "datagen/quest_gen.h"
#include "mining/reference_miner.h"
#include "mining/simple_miner.h"

namespace minerule::mining {
namespace {

const std::vector<SimpleAlgorithm>& PoolUnderTest() {
  static const std::vector<SimpleAlgorithm> pool = {
      SimpleAlgorithm::kReference,  SimpleAlgorithm::kApriori,
      SimpleAlgorithm::kAprioriTid, SimpleAlgorithm::kDhp,
      SimpleAlgorithm::kPartition,  SimpleAlgorithm::kGidList,
  };
  return pool;
}

std::vector<FrequentItemset> MustMine(SimpleAlgorithm algorithm,
                                      const TransactionDb& db,
                                      int64_t min_count, int num_threads) {
  SimpleMinerOptions options;
  options.partition_count = 5;
  options.num_threads = num_threads;
  auto miner = CreateMiner(algorithm, options);
  auto result = miner->Mine(db, min_count, -1, nullptr);
  EXPECT_TRUE(result.ok()) << miner->name() << ": " << result.status();
  return result.ok() ? std::move(result).value()
                     : std::vector<FrequentItemset>{};
}

void ExpectSameItemsets(const std::vector<FrequentItemset>& expected,
                        const std::vector<FrequentItemset>& actual,
                        const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(actual[i].items, expected[i].items)
        << what << " itemset " << i;
    ASSERT_EQ(actual[i].group_count, expected[i].group_count)
        << what << " " << ItemsetToString(expected[i].items);
  }
}

class MiningDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

/// Quest data narrowed to <= 20 items so the brute-force reference miner
/// (the sixth pool member) can participate.
TransactionDb NarrowQuestDb(uint64_t seed) {
  datagen::QuestParams params;
  params.num_transactions = 250;
  params.avg_transaction_size = 6;
  params.avg_pattern_size = 3;
  params.num_items = 18;
  params.num_patterns = 12;
  params.seed = seed;
  return datagen::GenerateQuestDb(params);
}

/// Wider Quest data (T8.I4, 200 items) for the thread-count sweep, where
/// the reference miner's item limit does not apply.
TransactionDb WideQuestDb(uint64_t seed) {
  datagen::QuestParams params;
  params.num_transactions = 400;
  params.avg_transaction_size = 8;
  params.avg_pattern_size = 4;
  params.num_items = 200;
  params.num_patterns = 40;
  params.seed = seed;
  return datagen::GenerateQuestDb(params);
}

/// Dense uniform data: each of 200 transactions draws 5 of 14 items, so
/// every item is in ~31% of them, a pair in ~10% and a triple in ~3%.
TransactionDb DenseUniformDb(uint64_t seed) {
  Random rng(seed);
  std::vector<Itemset> txns(200);
  for (Itemset& txn : txns) {
    for (int d = 0; d < 5; ++d) {
      txn.push_back(static_cast<ItemId>(rng.NextBounded(14)));
    }
  }
  return TransactionDb::FromTransactions(std::move(txns), 200);
}

TEST_P(MiningDifferentialTest, AllSixMinersAgree) {
  // Dense uniform data at 0.2 stops the lattice at level 1 and at 0.02
  // reaches past the pairs (triples or deeper at every seed below).
  const std::pair<TransactionDb, std::vector<double>> inputs[] = {
      {NarrowQuestDb(GetParam()), {0.05, 0.15}},
      {DenseUniformDb(GetParam()), {0.2, 0.02}},
  };
  for (const auto& [db, supports] : inputs) {
    for (double support : supports) {
      const int64_t min_count = MinGroupCount(support, db.total_groups());
      const std::vector<FrequentItemset> expected =
          MustMine(SimpleAlgorithm::kReference, db, min_count, 1);
      for (SimpleAlgorithm algorithm : PoolUnderTest()) {
        for (int threads : {1, 2, 8}) {
          ExpectSameItemsets(
              expected, MustMine(algorithm, db, min_count, threads),
              std::string(SimpleAlgorithmName(algorithm)) + " threads=" +
                  std::to_string(threads) + " sup=" + std::to_string(support));
        }
      }
    }
  }
}

TEST_P(MiningDifferentialTest, EveryMinerInvariantUnderThreadCount) {
  const TransactionDb db = WideQuestDb(GetParam());
  const int64_t min_count = MinGroupCount(0.02, db.total_groups());
  for (SimpleAlgorithm algorithm :
       {SimpleAlgorithm::kApriori, SimpleAlgorithm::kAprioriTid,
        SimpleAlgorithm::kDhp, SimpleAlgorithm::kPartition,
        SimpleAlgorithm::kGidList}) {
    const std::vector<FrequentItemset> serial =
        MustMine(algorithm, db, min_count, 1);
    EXPECT_FALSE(serial.empty()) << SimpleAlgorithmName(algorithm);
    for (int threads : {2, 8}) {
      ExpectSameItemsets(
          serial, MustMine(algorithm, db, min_count, threads),
          std::string(SimpleAlgorithmName(algorithm)) + " threads=" +
              std::to_string(threads));
    }
  }
}

TEST_P(MiningDifferentialTest, MinersAgreeAcrossThreadCountsPairwise) {
  // The two properties combined: miner A at 8 threads must equal miner B at
  // 2 threads — everything pins to one serial gid-list baseline.
  const TransactionDb db = NarrowQuestDb(GetParam() ^ 0x5bd1e995u);
  const int64_t min_count = MinGroupCount(0.1, db.total_groups());
  const std::vector<FrequentItemset> baseline =
      MustMine(SimpleAlgorithm::kGidList, db, min_count, 1);
  for (SimpleAlgorithm algorithm : PoolUnderTest()) {
    for (int threads : {1, 2, 8}) {
      ExpectSameItemsets(
          baseline, MustMine(algorithm, db, min_count, threads),
          std::string(SimpleAlgorithmName(algorithm)) + " threads=" +
              std::to_string(threads));
    }
  }
}

/// Rule-level agreement end to end through MineSimpleRules at mixed thread
/// counts (support, confidence and both cardinalities exercised).
TEST_P(MiningDifferentialTest, RulesAgreeAcrossPoolAndThreads) {
  const TransactionDb db = NarrowQuestDb(GetParam() + 17);
  auto baseline = MineSimpleRules(db, 0.08, 0.3, {1, -1}, {1, 1},
                                  SimpleAlgorithm::kGidList);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  for (SimpleAlgorithm algorithm : PoolUnderTest()) {
    for (int threads : {1, 8}) {
      SimpleMinerOptions options;
      options.num_threads = threads;
      auto rules = MineSimpleRules(db, 0.08, 0.3, {1, -1}, {1, 1}, algorithm,
                                   options);
      ASSERT_TRUE(rules.ok()) << SimpleAlgorithmName(algorithm);
      ASSERT_EQ(rules.value().size(), baseline.value().size())
          << SimpleAlgorithmName(algorithm) << " threads=" << threads;
      for (size_t i = 0; i < baseline.value().size(); ++i) {
        EXPECT_EQ(rules.value()[i].body, baseline.value()[i].body);
        EXPECT_EQ(rules.value()[i].head, baseline.value()[i].head);
        EXPECT_EQ(rules.value()[i].group_count,
                  baseline.value()[i].group_count);
        EXPECT_EQ(rules.value()[i].body_group_count,
                  baseline.value()[i].body_group_count);
      }
    }
  }
}

/// Every other case builds its database with FromTransactions, where gid
/// = position. Here FromPairs gets shuffled pairs with duplicates and
/// sparse, non-contiguous gids (one negative): the gid-list miner, which
/// mines on transaction positions, must still equal the reference miner at
/// every thread count, and each item's positions must map through gids()
/// to the real sparse gids holding it, -17 included.
TEST_P(MiningDifferentialTest, GidListOnSparseShuffledPairs) {
  const TransactionDb dense = NarrowQuestDb(GetParam() + 5);
  auto sparse_gid = [](size_t t) {
    return t == 0 ? Gid{-17} : static_cast<Gid>(t * 7919 + 3);
  };
  std::vector<std::pair<Gid, ItemId>> pairs;
  size_t nonempty = 0;
  for (size_t t = 0; t < dense.num_transactions(); ++t) {
    nonempty += dense.transactions()[t].empty() ? 0 : 1;
    for (ItemId item : dense.transactions()[t]) {
      pairs.emplace_back(sparse_gid(t), item);
      if ((t + static_cast<size_t>(item)) % 4 == 0) {
        pairs.emplace_back(sparse_gid(t), item);
      }
    }
  }
  Random rng(GetParam());
  for (size_t i = pairs.size(); i > 1; --i) {
    std::swap(pairs[i - 1], pairs[rng.NextBounded(i)]);
  }
  const TransactionDb db =
      TransactionDb::FromPairs(std::move(pairs), dense.total_groups());
  ASSERT_EQ(db.num_transactions(), nonempty);
  ASSERT_EQ(db.gids().front(), -17);

  for (ItemId item : db.items()) {
    std::vector<Gid> expected;
    for (size_t t = 0; t < dense.num_transactions(); ++t) {
      const Itemset& txn = dense.transactions()[t];
      if (std::binary_search(txn.begin(), txn.end(), item)) {
        expected.push_back(sparse_gid(t));
      }
    }
    std::vector<Gid> holding;
    for (uint32_t position : db.positions(item)) {
      ASSERT_LT(position, db.num_transactions()) << "item " << item;
      holding.push_back(db.gids()[position]);
    }
    ASSERT_EQ(holding, expected) << "item " << item;
  }

  for (double support : {0.05, 0.15}) {
    const int64_t min_count = MinGroupCount(support, db.total_groups());
    const std::vector<FrequentItemset> expected =
        MustMine(SimpleAlgorithm::kReference, db, min_count, 1);
    EXPECT_FALSE(expected.empty());
    // The same data under gid = position yields the same itemsets.
    ExpectSameItemsets(
        expected, MustMine(SimpleAlgorithm::kReference, dense, min_count, 1),
        "reference dense sup=" + std::to_string(support));
    for (int threads : {1, 2, 8}) {
      ExpectSameItemsets(
          expected, MustMine(SimpleAlgorithm::kGidList, db, min_count, threads),
          "gidlist threads=" + std::to_string(threads) +
              " sup=" + std::to_string(support));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(QuestSeeds, MiningDifferentialTest,
                         ::testing::Values(11u, 42u, 137u, 901u),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace minerule::mining
