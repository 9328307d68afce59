#ifndef MINERULE_MINING_SIMPLE_MINER_H_
#define MINERULE_MINING_SIMPLE_MINER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "mining/rule.h"
#include "mining/transaction_db.h"

namespace minerule::mining {

/// The pool of interchangeable simple-core algorithms (§3 "the core
/// operator can be constituted of a pool of mining algorithms").
enum class SimpleAlgorithm {
  kApriori,    // Agrawal & Srikant, VLDB'94 — horizontal counting
  kAprioriTid, // Agrawal & Srikant, VLDB'94 — re-encoded transactions
  kGidList,    // the paper's described scheme: gid-list intersection
  kDhp,        // Park, Chen & Yu, SIGMOD'95 — hash-based pass-2 pruning
  kPartition,  // Savasere, Omiecinski & Navathe, VLDB'95
  kSampling,   // Toivonen, VLDB'96 — sample + negative border + verify
  kReference,  // brute-force enumeration, for property tests only
};

const char* SimpleAlgorithmName(SimpleAlgorithm algorithm);
Result<SimpleAlgorithm> SimpleAlgorithmFromName(const std::string& name);

/// Tuning knobs; the defaults match the cited papers' usual settings at the
/// scale of our benchmarks.
struct SimpleMinerOptions {
  int dhp_buckets = 1 << 16;    // DHP hash table size
  int partition_count = 4;      // Partition: number of slices
  double sample_rate = 0.15;    // Sampling: fraction of groups sampled
  double sample_lowering = 0.8; // Sampling: threshold lowering factor
  uint64_t seed = 42;           // Sampling: PRNG seed

  /// Worker threads for the parallel miners (Apriori/DHP counting,
  /// Partition slices, gid-list level extension), drawn from the shared
  /// pool. <= 0 means hardware concurrency; 1 reproduces the serial
  /// execution exactly. Results are bit-identical at every setting
  /// (enforced by the differential tests).
  int num_threads = 0;
};

/// Execution counters exposed for the benchmark harness and the run trace.
struct SimpleMinerStats {
  int passes = 0;                           // database passes performed
  std::vector<int64_t> candidates_per_level;
  std::vector<int64_t> large_per_level;
  bool sampling_needed_full_pass = false;   // Toivonen: a miss occurred

  // DHP: size of pass-2 candidate space before / after the hash filter.
  // The filter hit rate is 1 - filtered/unfiltered.
  int64_t dhp_unfiltered_pairs = 0;
  int64_t dhp_filtered_pairs = 0;

  // Partition: transactions per slice (slice boundaries are group-count
  // based, so sizes differ by at most one).
  std::vector<int64_t> partition_slice_sizes;
};

/// Interface shared by all pool members. Mine() returns *all* itemsets with
/// group count >= min_group_count, of size <= max_size (max_size < 0 means
/// unbounded). Every implementation must return exactly the same set (this
/// is enforced by parameterized tests), which is what makes the pool
/// interchangeable behind the core-operator boundary.
class FrequentItemsetMiner {
 public:
  virtual ~FrequentItemsetMiner() = default;

  virtual const char* name() const = 0;

  virtual Result<std::vector<FrequentItemset>> Mine(
      const TransactionDb& db, int64_t min_group_count, int64_t max_size,
      SimpleMinerStats* stats) = 0;
};

/// Factory over the pool.
std::unique_ptr<FrequentItemsetMiner> CreateMiner(
    SimpleAlgorithm algorithm, const SimpleMinerOptions& options = {});

/// Shared helper: Apriori candidate generation — joins pairs of k-itemsets
/// sharing a (k−1)-prefix and prunes candidates with an infrequent
/// k-subset. `prev_level` must be sorted lexicographically.
std::vector<Itemset> GenerateCandidates(const std::vector<Itemset>& prev_level);

/// Sorts itemsets lexicographically (the order GenerateCandidates expects
/// and the canonical order for test comparison).
void SortItemsets(std::vector<Itemset>* itemsets);

/// Sorts FrequentItemsets lexicographically by their items.
void SortFrequentItemsets(std::vector<FrequentItemset>* itemsets);

/// Convenience: mine + build rules in one call (the simple core processing
/// of §4.3.1 end to end, on encoded data).
Result<std::vector<MinedRule>> MineSimpleRules(
    const TransactionDb& db, double min_support, double min_confidence,
    const CardinalityConstraint& body_card,
    const CardinalityConstraint& head_card, SimpleAlgorithm algorithm,
    const SimpleMinerOptions& options = {}, SimpleMinerStats* stats = nullptr);

/// Threshold conversion shared by all components: the smallest group count
/// satisfying `support >= min_support` given the Q1 group total.
int64_t MinGroupCount(double min_support, int64_t total_groups);

}  // namespace minerule::mining

#endif  // MINERULE_MINING_SIMPLE_MINER_H_
