// Experiment §3 (algorithm interoperability): the pool of simple-core
// algorithms on Quest workloads, reproducing the qualitative shapes of the
// cited literature [1,3,12,13,7]:
//   - gid-list intersection wins once the vertical layout is built;
//   - DHP prunes pass-2 candidates vs plain Apriori at low supports;
//   - Partition does the work in 2 passes; Sampling in ~1 pass when the
//     sample is representative;
//   - everything degrades as minimum support drops.
//
// The gid-list / DHP landscape (EXPERIMENTS.md) is the BM_Dense* and
// BM_Sparse* cases; time each case in its own process, e.g. with
//   --benchmark_filter='^BM_DenseGidList/100000/0/4/real_time$'

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/json.h"
#include "common/random.h"
#include "datagen/quest_gen.h"
#include "mining/simple_miner.h"

namespace {

using namespace minerule;
using mining::SimpleAlgorithm;

mining::TransactionDb& SharedDb(int64_t transactions) {
  static std::map<int64_t, mining::TransactionDb>* dbs =
      new std::map<int64_t, mining::TransactionDb>();
  auto it = dbs->find(transactions);
  if (it == dbs->end()) {
    datagen::QuestParams params;  // T10.I4, 1000 items
    params.num_transactions = transactions;
    params.avg_transaction_size = 10;
    params.avg_pattern_size = 4;
    params.num_items = 1000;
    params.num_patterns = 100;
    it = dbs->emplace(transactions, datagen::GenerateQuestDb(params)).first;
  }
  return it->second;
}

/// Dense uniform source: each transaction draws `draws` items uniformly
/// from `items` (repeats collapse). At the landscape's supports every item
/// is frequent and no pair is, so the frequent lattice stops at level 1.
mining::TransactionDb& DenseDb(int64_t transactions, int64_t items,
                               int64_t draws) {
  using Key = std::tuple<int64_t, int64_t, int64_t>;
  static std::map<Key, mining::TransactionDb>* dbs =
      new std::map<Key, mining::TransactionDb>();
  const Key key{transactions, items, draws};
  auto it = dbs->find(key);
  if (it == dbs->end()) {
    Random rng(4242);
    std::vector<mining::Itemset> txns(static_cast<size_t>(transactions));
    for (mining::Itemset& t : txns) {
      for (int64_t d = 0; d < draws; ++d) {
        t.push_back(static_cast<mining::ItemId>(
            rng.NextBounded(static_cast<uint64_t>(items))));
      }
    }
    it = dbs->emplace(key, mining::TransactionDb::FromTransactions(
                               std::move(txns), transactions))
             .first;
  }
  return it->second;
}

void RunMinerOn(benchmark::State& state, SimpleAlgorithm algorithm,
                const mining::TransactionDb& db, double support,
                int threads) {
  const int64_t min_count = mining::MinGroupCount(support, db.total_groups());
  mining::SimpleMinerOptions options;
  options.partition_count = 4;
  options.sample_rate = 0.2;
  options.num_threads = threads;
  auto miner = mining::CreateMiner(algorithm, options);

  mining::SimpleMinerStats stats;
  int64_t itemsets = 0;
  for (auto _ : state) {
    stats = {};
    auto result = miner->Mine(db, min_count, -1, &stats);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    itemsets = static_cast<int64_t>(result.value().size());
  }
  state.counters["itemsets"] = static_cast<double>(itemsets);
  state.counters["passes"] = static_cast<double>(stats.passes);
  int64_t candidates = 0;
  for (int64_t c : stats.candidates_per_level) candidates += c;
  state.counters["candidates"] = static_cast<double>(candidates);
  state.counters["minsup_bp"] = support * 10000.0;
  state.counters["threads"] = static_cast<double>(threads);
}

void RunMiner(benchmark::State& state, SimpleAlgorithm algorithm) {
  // Axes: transactions, support in basis points, worker threads for the
  // parallel miners (1 = serial).
  RunMinerOn(state, algorithm, SharedDb(state.range(0)),
             static_cast<double>(state.range(1)) / 10000.0,
             static_cast<int>(state.range(2)));
}

#define POOL_BENCH(name, algorithm)                       \
  void name(benchmark::State& state) {                    \
    RunMiner(state, algorithm);                           \
  }                                                       \
  BENCHMARK(name)                                         \
      ->ArgsProduct({{2000}, {200, 100, 50}, {1}})        \
      ->Unit(benchmark::kMillisecond)

POOL_BENCH(BM_Apriori, SimpleAlgorithm::kApriori);
POOL_BENCH(BM_AprioriTid, SimpleAlgorithm::kAprioriTid);
POOL_BENCH(BM_GidList, SimpleAlgorithm::kGidList);
POOL_BENCH(BM_Dhp, SimpleAlgorithm::kDhp);
POOL_BENCH(BM_Partition, SimpleAlgorithm::kPartition);
POOL_BENCH(BM_Sampling, SimpleAlgorithm::kSampling);

// Database-size scaling at fixed support (the |D| sweep of [3]).
void BM_GidListScaleD(benchmark::State& state) {
  RunMiner(state, SimpleAlgorithm::kGidList);
}
BENCHMARK(BM_GidListScaleD)
    ->ArgsProduct({{1000, 4000, 16000}, {100}, {1}})
    ->Unit(benchmark::kMillisecond);

void BM_AprioriScaleD(benchmark::State& state) {
  RunMiner(state, SimpleAlgorithm::kApriori);
}
BENCHMARK(BM_AprioriScaleD)
    ->ArgsProduct({{1000, 4000, 16000}, {100}, {1}})
    ->Unit(benchmark::kMillisecond);

// Thread-count scaling of the parallel miners on a larger Quest set: the
// speedup axis of the parallel mining core (Partition mines its slices
// concurrently; Apriori/DHP count candidates over transaction ranges; the
// gid-list miner extends each level over morsels of prefixes).
#define THREADS_BENCH(name, algorithm)                    \
  void name(benchmark::State& state) {                    \
    RunMiner(state, algorithm);                           \
  }                                                       \
  BENCHMARK(name)                                         \
      ->ArgsProduct({{16000}, {50}, {1, 2, 4, 8}})        \
      ->Unit(benchmark::kMillisecond)->UseRealTime()

THREADS_BENCH(BM_PartitionThreads, SimpleAlgorithm::kPartition);
THREADS_BENCH(BM_AprioriThreads, SimpleAlgorithm::kApriori);
THREADS_BENCH(BM_DhpThreads, SimpleAlgorithm::kDhp);
THREADS_BENCH(BM_GidListThreads, SimpleAlgorithm::kGidList);

// The dense landscape: {8k, 20k, 100k} transactions x three uniform
// shapes (items/draws/support) x {1, 4} threads. Axes: transactions, shape
// index, threads.
struct DenseShape {
  int64_t items;
  int64_t draws;
  double support;
};
constexpr DenseShape kDenseShapes[] = {
    {40, 12, 0.15}, {60, 15, 0.15}, {100, 30, 0.12}};

void RunDense(benchmark::State& state, SimpleAlgorithm algorithm) {
  const DenseShape& shape = kDenseShapes[state.range(1)];
  RunMinerOn(state, algorithm,
             DenseDb(state.range(0), shape.items, shape.draws), shape.support,
             static_cast<int>(state.range(2)));
}

#define DENSE_BENCH(name, algorithm)                                \
  void name(benchmark::State& state) {                              \
    RunDense(state, algorithm);                                     \
  }                                                                 \
  BENCHMARK(name)                                                   \
      ->ArgsProduct({{8000, 20000, 100000}, {0, 1, 2}, {1, 4}})     \
      ->Unit(benchmark::kMillisecond)->UseRealTime()

DENSE_BENCH(BM_DenseGidList, SimpleAlgorithm::kGidList);
DENSE_BENCH(BM_DenseDhp, SimpleAlgorithm::kDhp);

// The landscape's two sparse (Quest T10.I4, 1000 items) shapes.
#define SPARSE_BENCH(name, algorithm)                     \
  void name(benchmark::State& state) {                    \
    RunMiner(state, algorithm);                           \
  }                                                       \
  BENCHMARK(name)                                         \
      ->Args({20000, 50, 1})->Args({20000, 50, 4})        \
      ->Args({100000, 100, 1})->Args({100000, 100, 4})    \
      ->Unit(benchmark::kMillisecond)->UseRealTime()

SPARSE_BENCH(BM_SparseGidList, SimpleAlgorithm::kGidList);
SPARSE_BENCH(BM_SparseDhp, SimpleAlgorithm::kDhp);

// --smoke: one run per pool member on a small Quest db, pass counters
// (including the DHP filter sizes and Partition slice sizes) emitted as
// JSON and validated. Every member must return the same itemsets, at 1 and
// at 8 threads, and report at least one pass.
int RunSmoke() {
  datagen::QuestParams params;
  params.num_transactions = 300;
  params.avg_transaction_size = 8;
  params.avg_pattern_size = 3;
  params.num_items = 100;
  params.num_patterns = 20;
  mining::TransactionDb db = datagen::GenerateQuestDb(params);
  const int64_t min_count = mining::MinGroupCount(0.02, db.total_groups());

  const SimpleAlgorithm algorithms[] = {
      SimpleAlgorithm::kApriori,   SimpleAlgorithm::kAprioriTid,
      SimpleAlgorithm::kGidList,   SimpleAlgorithm::kDhp,
      SimpleAlgorithm::kPartition, SimpleAlgorithm::kSampling};

  auto same = [](const std::vector<mining::FrequentItemset>& a,
                 const std::vector<mining::FrequentItemset>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].items != b[i].items || a[i].group_count != b[i].group_count) {
        return false;
      }
    }
    return true;
  };

  JsonWriter w;
  w.BeginObject();
  std::vector<mining::FrequentItemset> baseline;
  for (SimpleAlgorithm algorithm : algorithms) {
    const char* name = mining::SimpleAlgorithmName(algorithm);
    mining::SimpleMinerStats stats;
    for (int threads : {1, 8}) {
      mining::SimpleMinerOptions options;
      options.partition_count = 4;
      options.sample_rate = 0.2;
      options.num_threads = threads;
      auto miner = mining::CreateMiner(algorithm, options);
      stats = {};
      auto result = miner->Mine(db, min_count, -1, &stats);
      if (!result.ok()) {
        std::fprintf(stderr, "%s: %s\n", name,
                     result.status().ToString().c_str());
        return 1;
      }
      if (baseline.empty()) baseline = result.value();
      if (!same(baseline, result.value()) || stats.passes < 1) {
        std::fprintf(stderr, "%s at %d threads: %zu itemsets, %d passes\n",
                     name, threads, result.value().size(), stats.passes);
        return 1;
      }
    }
    w.Key(name).BeginObject();
    w.Key("itemsets").Int(static_cast<int64_t>(baseline.size()));
    w.Key("passes").Int(stats.passes);
    w.Key("candidates_per_level").BeginArray();
    for (int64_t c : stats.candidates_per_level) w.Int(c);
    w.EndArray();
    w.Key("large_per_level").BeginArray();
    for (int64_t c : stats.large_per_level) w.Int(c);
    w.EndArray();
    w.Key("dhp_unfiltered_pairs").Int(stats.dhp_unfiltered_pairs);
    w.Key("dhp_filtered_pairs").Int(stats.dhp_filtered_pairs);
    w.Key("partition_slice_sizes").BeginArray();
    for (int64_t s : stats.partition_slice_sizes) w.Int(s);
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();
  const std::string json = w.str();
  auto valid = ValidateJson(json);
  if (!valid.ok()) {
    std::fprintf(stderr, "smoke JSON invalid: %s\n",
                 valid.ToString().c_str());
    return 1;
  }
  std::printf("%s\nSMOKE OK\n", json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return RunSmoke();
  }
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
