#include "mining/apriori.h"

#include <unordered_map>

#include "common/thread_pool.h"
#include "common/trace.h"

namespace minerule::mining {

std::vector<FrequentItemset> FrequentSingletons(const TransactionDb& db,
                                                int64_t min_group_count) {
  std::vector<FrequentItemset> level;
  for (ItemId item : db.items()) {
    const int64_t count = static_cast<int64_t>(db.positions(item).size());
    if (count >= min_group_count) {
      level.push_back({Itemset{item}, count});
    }
  }
  return level;  // db.items() ascending => lexicographic order
}

namespace {

/// Counts the candidates against transactions [begin, end) into `counts`
/// (accumulating). Reads only shared immutable state; each caller owns its
/// own `counts`, which is what makes the parallel scan race-free.
void CountTransactionRange(
    const TransactionDb& db, const std::vector<Itemset>& candidates,
    const std::unordered_map<Itemset, size_t, ItemsetHash>& index,
    size_t begin, size_t end, std::vector<int64_t>* counts) {
  const size_t k = candidates[0].size();
  Itemset subset;
  subset.reserve(k);
  // Recursively enumerate the k-subsets of a transaction, short-circuiting
  // branches whose running prefix cannot reach size k.
  auto enumerate = [&](const Itemset& txn, auto&& self, size_t start) -> void {
    if (subset.size() == k) {
      auto it = index.find(subset);
      if (it != index.end()) ++(*counts)[it->second];
      return;
    }
    const size_t needed = k - subset.size();
    for (size_t i = start; i + needed <= txn.size(); ++i) {
      subset.push_back(txn[i]);
      self(txn, self, i + 1);
      subset.pop_back();
    }
  };

  for (size_t t = begin; t < end; ++t) {
    const Itemset& txn = db.transactions()[t];
    if (txn.size() < k) continue;
    // When the transaction is wide, checking each candidate directly is
    // cheaper than enumerating C(|txn|, k) subsets.
    double combos = 1.0;
    for (size_t i = 0; i < k; ++i) {
      combos *= static_cast<double>(txn.size() - i) / static_cast<double>(i + 1);
    }
    if (combos > static_cast<double>(candidates.size()) * 4.0) {
      for (size_t c = 0; c < candidates.size(); ++c) {
        if (IsSubset(candidates[c], txn)) ++(*counts)[c];
      }
    } else {
      enumerate(txn, enumerate, 0);
    }
  }
}

}  // namespace

std::vector<int64_t> CountCandidatesHorizontally(
    const TransactionDb& db, const std::vector<Itemset>& candidates,
    int num_threads) {
  std::vector<int64_t> counts(candidates.size(), 0);
  if (candidates.empty()) return counts;

  std::unordered_map<Itemset, size_t, ItemsetHash> index;
  index.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) index.emplace(candidates[i], i);

  const size_t n = db.num_transactions();
  const size_t chunks = ParallelChunks(n, num_threads);
  if (chunks <= 1) {
    CountTransactionRange(db, candidates, index, 0, n, &counts);
    return counts;
  }

  // Per-range counters, merged in range order. int64 addition is
  // associative, so the merged totals match the serial scan exactly.
  std::vector<std::vector<int64_t>> partial(chunks);
  ParallelFor(n, num_threads, [&](size_t chunk, size_t begin, size_t end) {
    partial[chunk].assign(candidates.size(), 0);
    CountTransactionRange(db, candidates, index, begin, end, &partial[chunk]);
  });
  for (const std::vector<int64_t>& part : partial) {
    for (size_t c = 0; c < counts.size(); ++c) counts[c] += part[c];
  }
  return counts;
}

Result<std::vector<FrequentItemset>> AprioriMiner::Mine(
    const TransactionDb& db, int64_t min_group_count, int64_t max_size,
    SimpleMinerStats* stats) {
  std::vector<FrequentItemset> result;
  std::vector<FrequentItemset> level = FrequentSingletons(db, min_group_count);
  if (stats != nullptr) {
    stats->passes = 1;
    stats->candidates_per_level.push_back(
        static_cast<int64_t>(db.items().size()));
    stats->large_per_level.push_back(static_cast<int64_t>(level.size()));
  }

  while (!level.empty()) {
    ScopedSpan pass_span("core.apriori.pass", "core",
                         static_cast<int64_t>(level[0].items.size()));
    result.insert(result.end(), level.begin(), level.end());
    if (max_size >= 0 &&
        static_cast<int64_t>(level[0].items.size()) >= max_size) {
      break;
    }
    std::vector<Itemset> prev;
    prev.reserve(level.size());
    for (const FrequentItemset& fi : level) prev.push_back(fi.items);
    std::vector<Itemset> candidates = GenerateCandidates(prev);
    if (candidates.empty()) break;

    std::vector<int64_t> counts =
        CountCandidatesHorizontally(db, candidates, num_threads_);
    std::vector<FrequentItemset> next;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (counts[i] >= min_group_count) {
        next.push_back({std::move(candidates[i]), counts[i]});
      }
    }
    SortFrequentItemsets(&next);
    if (stats != nullptr) {
      ++stats->passes;
      stats->candidates_per_level.push_back(
          static_cast<int64_t>(candidates.size()));
      stats->large_per_level.push_back(static_cast<int64_t>(next.size()));
    }
    level = std::move(next);
  }
  SortFrequentItemsets(&result);
  return result;
}

}  // namespace minerule::mining
