#include "mining/partition.h"

#include <cmath>
#include <unordered_set>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "mining/gidlist_miner.h"

namespace minerule::mining {

Result<std::vector<FrequentItemset>> PartitionMiner::Mine(
    const TransactionDb& db, int64_t min_group_count, int64_t max_size,
    SimpleMinerStats* stats) {
  if (partition_count_ <= 0) {
    return Status::InvalidArgument("partition count must be positive");
  }
  const size_t n = db.num_transactions();
  if (n == 0) return std::vector<FrequentItemset>{};
  // Clamp: more slices than transactions would leave some empty, and an
  // empty slice makes every itemset "locally large" at threshold 1 there.
  const size_t parts =
      std::min<size_t>(static_cast<size_t>(partition_count_), n);
  GlobalMetrics()
      .GetCounter("core.partition.slices")
      ->Add(static_cast<int64_t>(parts));

  // Deterministic slice boundaries: slice p covers [p*n/parts,
  // (p+1)*n/parts), each nonempty because parts <= n.
  std::vector<std::pair<size_t, size_t>> bounds;
  bounds.reserve(parts);
  for (size_t p = 0; p < parts; ++p) {
    bounds.emplace_back(p * n / parts, (p + 1) * n / parts);
  }

  // Phase 1: local mining, one slice per task on the shared pool. The local
  // threshold for a slice of size s is ceil(min_group_count * s / n): if an
  // itemset misses that bound in every slice, its slice counts sum to
  // < min_group_count, so it cannot be globally large (the Partition
  // correctness argument).
  std::vector<std::vector<FrequentItemset>> local_results(parts);
  std::vector<Status> local_status(parts, Status::OK());
  ParallelFor(parts, num_threads_, [&](size_t, size_t begin, size_t end) {
    GidListMiner local_miner;
    for (size_t p = begin; p < end; ++p) {
      ScopedSpan slice_span("core.partition.slice", "core",
                            static_cast<int64_t>(p));
      TransactionDb slice = db.Slice(bounds[p].first, bounds[p].second);
      const size_t slice_size = bounds[p].second - bounds[p].first;
      const double scaled = static_cast<double>(min_group_count) *
                            static_cast<double>(slice_size) /
                            static_cast<double>(n);
      const int64_t local_threshold =
          std::max<int64_t>(1, static_cast<int64_t>(std::ceil(scaled - 1e-9)));
      auto local = local_miner.Mine(slice, local_threshold, max_size, nullptr);
      if (!local.ok()) {
        local_status[p] = local.status();
        continue;
      }
      local_results[p] = std::move(local).value();
    }
  });
  // Merge serially in slice order (the union is order-independent anyway;
  // candidates get re-sorted below).
  std::unordered_set<Itemset, ItemsetHash> candidate_set;
  for (size_t p = 0; p < parts; ++p) {
    if (!local_status[p].ok()) return local_status[p];
    for (FrequentItemset& fi : local_results[p]) {
      candidate_set.insert(std::move(fi.items));
    }
  }

  // Phase 2: one full counting pass over the vertical layout, candidates
  // counted in parallel chunks. Each chunk writes disjoint slots of
  // `counts`, so the merge is implicit and deterministic.
  std::vector<Itemset> candidates(candidate_set.begin(), candidate_set.end());
  SortItemsets(&candidates);
  std::vector<int64_t> counts(candidates.size(), 0);
  ParallelFor(candidates.size(), num_threads_,
              [&](size_t, size_t begin, size_t end) {
                for (size_t c = begin; c < end; ++c) {
                  const Itemset& candidate = candidates[c];
                  PositionList positions = db.positions(candidate[0]);
                  for (size_t i = 1;
                       i < candidate.size() && !positions.empty(); ++i) {
                    positions = IntersectPositionLists(
                        positions, db.positions(candidate[i]));
                  }
                  counts[c] = static_cast<int64_t>(positions.size());
                }
              });
  std::vector<FrequentItemset> result;
  for (size_t c = 0; c < candidates.size(); ++c) {
    if (counts[c] >= min_group_count) {
      result.push_back({candidates[c], counts[c]});
    }
  }
  if (stats != nullptr) {
    stats->passes = 2;  // one pass of local mining + one verification pass
    stats->candidates_per_level.assign(
        1, static_cast<int64_t>(candidates.size()));
    stats->large_per_level.assign(1, static_cast<int64_t>(result.size()));
    stats->partition_slice_sizes.clear();
    for (const auto& [begin, end] : bounds) {
      stats->partition_slice_sizes.push_back(
          static_cast<int64_t>(end - begin));
    }
  }
  SortFrequentItemsets(&result);
  return result;
}

}  // namespace minerule::mining
