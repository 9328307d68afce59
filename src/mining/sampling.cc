#include "mining/sampling.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "common/random.h"
#include "mining/gidlist_miner.h"

namespace minerule::mining {

namespace {

/// Counts one candidate against the full vertical layout.
int64_t CountGlobally(const TransactionDb& db, const Itemset& candidate) {
  PositionList positions = db.positions(candidate[0]);
  for (size_t i = 1; i < candidate.size() && !positions.empty(); ++i) {
    positions = IntersectPositionLists(positions, db.positions(candidate[i]));
  }
  return static_cast<int64_t>(positions.size());
}

/// The negative border: minimal itemsets not in `frequent` — i.e. every
/// candidate produced by one Apriori extension step from `frequent` (plus
/// the infrequent singletons) that is not itself in `frequent`.
std::vector<Itemset> NegativeBorder(
    const TransactionDb& db,
    const std::unordered_set<Itemset, ItemsetHash>& frequent,
    int64_t max_size) {
  std::vector<Itemset> border;
  // Infrequent singletons.
  for (ItemId item : db.items()) {
    Itemset single{item};
    if (frequent.find(single) == frequent.end()) border.push_back(single);
  }
  // Group frequent sets by size, run the candidate-generation join.
  std::unordered_map<size_t, std::vector<Itemset>> by_size;
  for (const Itemset& items : frequent) by_size[items.size()].push_back(items);
  for (auto& [size, level] : by_size) {
    if (max_size >= 0 && static_cast<int64_t>(size) >= max_size) continue;
    SortItemsets(&level);
    for (Itemset& candidate : GenerateCandidates(level)) {
      if (frequent.find(candidate) == frequent.end()) {
        border.push_back(std::move(candidate));
      }
    }
  }
  SortItemsets(&border);
  border.erase(std::unique(border.begin(), border.end()), border.end());
  return border;
}

}  // namespace

Result<std::vector<FrequentItemset>> SamplingMiner::Mine(
    const TransactionDb& db, int64_t min_group_count, int64_t max_size,
    SimpleMinerStats* stats) {
  if (sample_rate_ <= 0.0 || sample_rate_ > 1.0) {
    return Status::InvalidArgument("sample rate must be in (0, 1]");
  }
  const size_t n = db.num_transactions();
  if (n == 0) return std::vector<FrequentItemset>{};

  // Draw the sample (without replacement, deterministic seed).
  Random rng(seed_);
  std::vector<size_t> indexes(n);
  for (size_t i = 0; i < n; ++i) indexes[i] = i;
  const size_t sample_size = std::max<size_t>(
      1, static_cast<size_t>(std::llround(sample_rate_ * static_cast<double>(n))));
  for (size_t i = 0; i < sample_size; ++i) {
    const size_t j = i + static_cast<size_t>(rng.NextBounded(n - i));
    std::swap(indexes[i], indexes[j]);
  }
  std::vector<Itemset> sample_txns;
  sample_txns.reserve(sample_size);
  for (size_t i = 0; i < sample_size; ++i) {
    sample_txns.push_back(db.transactions()[indexes[i]]);
  }
  TransactionDb sample = TransactionDb::FromTransactions(
      std::move(sample_txns), static_cast<int64_t>(sample_size));

  // Mine the sample at a lowered threshold to reduce the chance of misses.
  const double global_fraction = static_cast<double>(min_group_count) /
                                 static_cast<double>(db.total_groups());
  const double lowered_fraction = global_fraction * lowering_factor_;
  const int64_t sample_threshold = std::max<int64_t>(
      1, static_cast<int64_t>(
             std::ceil(lowered_fraction * static_cast<double>(sample_size) -
                       1e-9)));
  GidListMiner sample_miner;
  MR_ASSIGN_OR_RETURN(
      std::vector<FrequentItemset> sample_frequent,
      sample_miner.Mine(sample, sample_threshold, max_size, nullptr));

  std::unordered_set<Itemset, ItemsetHash> candidate_set;
  for (FrequentItemset& fi : sample_frequent) {
    candidate_set.insert(std::move(fi.items));
  }

  // Full pass: count candidates and their negative border.
  bool needed_second_pass = false;
  std::vector<FrequentItemset> result;
  std::unordered_set<Itemset, ItemsetHash> confirmed;
  int passes = 1;  // the sample mining reads only the sample
  while (true) {
    ++passes;
    std::vector<Itemset> to_count(candidate_set.begin(), candidate_set.end());
    for (Itemset& border_set :
         NegativeBorder(db, candidate_set, max_size)) {
      to_count.push_back(std::move(border_set));
    }
    SortItemsets(&to_count);
    to_count.erase(std::unique(to_count.begin(), to_count.end()),
                   to_count.end());

    bool miss = false;
    for (const Itemset& candidate : to_count) {
      if (confirmed.count(candidate) > 0) continue;
      const int64_t count = CountGlobally(db, candidate);
      if (count >= min_group_count) {
        result.push_back({candidate, count});
        confirmed.insert(candidate);
        if (candidate_set.find(candidate) == candidate_set.end()) {
          // A border set is globally frequent: Toivonen's "miss". Its
          // extensions might be frequent too — iterate with it included.
          miss = true;
          candidate_set.insert(candidate);
        }
      }
    }
    if (!miss) break;
    needed_second_pass = true;
    // Re-seed candidate_set with everything confirmed frequent so the next
    // border step explores the uncovered extensions.
    candidate_set = confirmed;
  }

  if (stats != nullptr) {
    stats->passes = passes;
    stats->sampling_needed_full_pass = needed_second_pass;
    stats->candidates_per_level.assign(
        1, static_cast<int64_t>(confirmed.size()));
    stats->large_per_level.assign(1, static_cast<int64_t>(result.size()));
  }
  SortFrequentItemsets(&result);
  return result;
}

}  // namespace minerule::mining
