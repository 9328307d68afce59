#include "mining/simple_miner.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/string_util.h"
#include "common/trace.h"
#include "mining/apriori.h"
#include "mining/apriori_tid.h"
#include "mining/dhp.h"
#include "mining/gidlist_miner.h"
#include "mining/partition.h"
#include "mining/reference_miner.h"
#include "mining/sampling.h"

namespace minerule::mining {

const char* SimpleAlgorithmName(SimpleAlgorithm algorithm) {
  switch (algorithm) {
    case SimpleAlgorithm::kApriori:
      return "apriori";
    case SimpleAlgorithm::kAprioriTid:
      return "apriori_tid";
    case SimpleAlgorithm::kGidList:
      return "gidlist";
    case SimpleAlgorithm::kDhp:
      return "dhp";
    case SimpleAlgorithm::kPartition:
      return "partition";
    case SimpleAlgorithm::kSampling:
      return "sampling";
    case SimpleAlgorithm::kReference:
      return "reference";
  }
  return "unknown";
}

Result<SimpleAlgorithm> SimpleAlgorithmFromName(const std::string& name) {
  const std::string lower = ToLower(name);
  if (lower == "apriori") return SimpleAlgorithm::kApriori;
  if (lower == "apriori_tid" || lower == "aprioritid") {
    return SimpleAlgorithm::kAprioriTid;
  }
  if (lower == "gidlist") return SimpleAlgorithm::kGidList;
  if (lower == "dhp") return SimpleAlgorithm::kDhp;
  if (lower == "partition") return SimpleAlgorithm::kPartition;
  if (lower == "sampling") return SimpleAlgorithm::kSampling;
  if (lower == "reference") return SimpleAlgorithm::kReference;
  return Status::InvalidArgument("unknown mining algorithm: " + name);
}

std::unique_ptr<FrequentItemsetMiner> CreateMiner(
    SimpleAlgorithm algorithm, const SimpleMinerOptions& options) {
  switch (algorithm) {
    case SimpleAlgorithm::kApriori:
      return std::make_unique<AprioriMiner>(options.num_threads);
    case SimpleAlgorithm::kAprioriTid:
      return std::make_unique<AprioriTidMiner>();
    case SimpleAlgorithm::kGidList:
      return std::make_unique<GidListMiner>(options.num_threads);
    case SimpleAlgorithm::kDhp:
      return std::make_unique<DhpMiner>(options.dhp_buckets,
                                        options.num_threads);
    case SimpleAlgorithm::kPartition:
      return std::make_unique<PartitionMiner>(options.partition_count,
                                              options.num_threads);
    case SimpleAlgorithm::kSampling:
      return std::make_unique<SamplingMiner>(
          options.sample_rate, options.sample_lowering, options.seed);
    case SimpleAlgorithm::kReference:
      return std::make_unique<ReferenceMiner>();
  }
  return nullptr;
}

void SortItemsets(std::vector<Itemset>* itemsets) {
  std::sort(itemsets->begin(), itemsets->end());
}

void SortFrequentItemsets(std::vector<FrequentItemset>* itemsets) {
  std::sort(itemsets->begin(), itemsets->end(),
            [](const FrequentItemset& a, const FrequentItemset& b) {
              return a.items < b.items;
            });
}

std::vector<Itemset> GenerateCandidates(
    const std::vector<Itemset>& prev_level) {
  std::vector<Itemset> candidates;
  if (prev_level.empty()) return candidates;
  const size_t k = prev_level[0].size();

  std::unordered_set<Itemset, ItemsetHash> prev_set(prev_level.begin(),
                                                    prev_level.end());

  // Join step: a and b share the first k-1 items and differ in the last.
  for (size_t i = 0; i < prev_level.size(); ++i) {
    for (size_t j = i + 1; j < prev_level.size(); ++j) {
      if (!SharesPrefix(prev_level[i], prev_level[j], k - 1)) break;
      Itemset candidate = prev_level[i];
      candidate.push_back(prev_level[j].back());
      // Prune step: every k-subset must be in the previous level.
      bool keep = true;
      for (size_t drop = 0; drop + 2 < candidate.size() && keep; ++drop) {
        // Subsets formed by dropping one of the first k-1 items; dropping
        // either of the last two reproduces the parents, which exist.
        Itemset subset;
        subset.reserve(k);
        for (size_t m = 0; m < candidate.size(); ++m) {
          if (m != drop) subset.push_back(candidate[m]);
        }
        if (prev_set.find(subset) == prev_set.end()) keep = false;
      }
      if (keep) candidates.push_back(std::move(candidate));
    }
  }
  return candidates;
}

int64_t MinGroupCount(double min_support, int64_t total_groups) {
  if (min_support <= 0.0) return 1;
  const double raw = min_support * static_cast<double>(total_groups);
  int64_t count = static_cast<int64_t>(std::ceil(raw - 1e-9));
  return std::max<int64_t>(count, 1);
}

Result<std::vector<MinedRule>> MineSimpleRules(
    const TransactionDb& db, double min_support, double min_confidence,
    const CardinalityConstraint& body_card,
    const CardinalityConstraint& head_card, SimpleAlgorithm algorithm,
    const SimpleMinerOptions& options, SimpleMinerStats* stats) {
  const int64_t min_count = MinGroupCount(min_support, db.total_groups());
  std::unique_ptr<FrequentItemsetMiner> miner = CreateMiner(algorithm, options);
  if (miner == nullptr) {
    return Status::InvalidArgument("bad mining algorithm");
  }
  int64_t max_size = -1;
  if (body_card.bound() >= 0 && head_card.bound() >= 0) {
    max_size = body_card.bound() + head_card.bound();
  }
  MR_ASSIGN_OR_RETURN(std::vector<FrequentItemset> itemsets,
                      miner->Mine(db, min_count, max_size, stats));
  ScopedSpan rules_span("core.rules", "core");
  return BuildRulesFromItemsets(itemsets, min_count, min_confidence,
                                body_card, head_card, options.num_threads);
}

}  // namespace minerule::mining
