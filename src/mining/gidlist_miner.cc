#include "mining/gidlist_miner.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "common/thread_pool.h"
#include "common/trace.h"

namespace minerule::mining {
namespace {

/// Prefix indices per level-extension morsel. A constant, so the morsel
/// boundaries (and the order their outputs are joined in) never depend on
/// the thread count.
constexpr size_t kPrefixesPerMorsel = 8;

/// Sorted transaction positions (indices into TransactionDb::gids()).
using PositionList = std::vector<uint32_t>;

struct Entry {
  Itemset items;
  PositionList positions;
};

/// Apriori pruning: every k-subset of the (k+1)-candidate must be in the
/// previous level, which is sorted by items. Subsets dropping one of the
/// last two items are the two parents, known to be present.
bool AllSubsetsFrequent(const Itemset& candidate,
                        const std::vector<Entry>& level, Itemset* subset) {
  for (size_t drop = 0; drop + 2 < candidate.size(); ++drop) {
    subset->clear();
    for (size_t m = 0; m < candidate.size(); ++m) {
      if (m != drop) subset->push_back(candidate[m]);
    }
    auto it = std::lower_bound(
        level.begin(), level.end(), *subset,
        [](const Entry& e, const Itemset& items) { return e.items < items; });
    if (it == level.end() || it->items != *subset) return false;
  }
  return true;
}

}  // namespace

Result<std::vector<FrequentItemset>> GidListMiner::Mine(
    const TransactionDb& db, int64_t min_group_count, int64_t max_size,
    SimpleMinerStats* stats) {
  // Level 1: one position list per frequent item, built in one scan.
  std::vector<Entry> level;
  std::unordered_map<ItemId, size_t> slot_of_item;
  for (ItemId item : db.items()) {
    const size_t support = db.gid_list(item).size();
    if (static_cast<int64_t>(support) >= min_group_count) {
      slot_of_item.emplace(item, level.size());
      level.push_back({Itemset{item}, {}});
      level.back().positions.reserve(support);
    }
  }
  const std::vector<Itemset>& transactions = db.transactions();
  for (size_t t = 0; t < transactions.size(); ++t) {
    for (ItemId item : transactions[t]) {
      auto it = slot_of_item.find(item);
      if (it != slot_of_item.end()) {
        level[it->second].positions.push_back(static_cast<uint32_t>(t));
      }
    }
  }
  if (stats != nullptr) {
    stats->passes = 1;  // only the vertical build touches the data
    stats->candidates_per_level.push_back(
        static_cast<int64_t>(db.items().size()));
    stats->large_per_level.push_back(static_cast<int64_t>(level.size()));
  }

  const size_t bitmap_words = (transactions.size() + 63) / 64;
  std::vector<FrequentItemset> result;
  while (!level.empty()) {
    ScopedSpan level_span("core.gidlist.level", "core",
                          static_cast<int64_t>(level[0].items.size()));
    for (const Entry& e : level) {
      result.push_back({e.items, static_cast<int64_t>(e.positions.size())});
    }
    const size_t k = level[0].items.size();
    if (max_size >= 0 && static_cast<int64_t>(k) >= max_size) break;

    // Candidate generation mirrors GenerateCandidates: level[i] joins each
    // later level[j] of its prefix class. Each morsel fills local outputs
    // and stores them into its own slot once, so workers never write
    // neighbouring slots while they run.
    const size_t morsels = MorselCount(level.size(), kPrefixesPerMorsel);
    std::vector<std::vector<Entry>> slots(morsels);
    std::vector<int64_t> slot_candidates(morsels, 0);
    ParallelForMorsels(
        level.size(), kPrefixesPerMorsel, num_threads_,
        [&](size_t morsel, size_t begin, size_t end) {
          std::vector<Entry> out;
          int64_t candidates = 0;
          std::vector<uint64_t> bitmap;  // allocated on first use
          PositionList scratch;
          Itemset candidate;
          Itemset subset;
          for (size_t i = begin; i < end; ++i) {
            const Entry& left = level[i];
            if (i + 1 == level.size() ||
                !SharesPrefix(left.items, level[i + 1].items, k - 1)) {
              continue;
            }
            if (bitmap.empty()) bitmap.assign(bitmap_words, 0);
            for (uint32_t p : left.positions) {
              bitmap[p >> 6] |= uint64_t{1} << (p & 63);
            }
            for (size_t j = i + 1; j < level.size(); ++j) {
              const Entry& right = level[j];
              if (!SharesPrefix(left.items, right.items, k - 1)) break;
              candidate.assign(left.items.begin(), left.items.end());
              candidate.push_back(right.items.back());
              if (!AllSubsetsFrequent(candidate, level, &subset)) continue;
              ++candidates;
              // Branch-free probe: every position is written, only the
              // ones whose bit is set advance the cursor.
              if (scratch.size() < right.positions.size()) {
                scratch.resize(right.positions.size());
              }
              size_t count = 0;
              for (uint32_t p : right.positions) {
                scratch[count] = p;
                count += (bitmap[p >> 6] >> (p & 63)) & 1;
              }
              if (static_cast<int64_t>(count) >= min_group_count) {
                out.push_back(
                    {candidate,
                     PositionList(scratch.begin(), scratch.begin() + count)});
              }
            }
            // The bitmap was all zero before; zeroing the touched words
            // clears exactly the bits set above.
            for (uint32_t p : left.positions) bitmap[p >> 6] = 0;
          }
          slots[morsel] = std::move(out);
          slot_candidates[morsel] = candidates;
        });

    std::vector<Entry> next;
    int64_t candidate_count = 0;
    size_t next_size = 0;
    for (const std::vector<Entry>& slot : slots) next_size += slot.size();
    next.reserve(next_size);
    for (size_t m = 0; m < morsels; ++m) {
      candidate_count += slot_candidates[m];
      for (Entry& e : slots[m]) next.push_back(std::move(e));
    }
    std::sort(next.begin(), next.end(),
              [](const Entry& a, const Entry& b) { return a.items < b.items; });
    if (stats != nullptr) {
      stats->candidates_per_level.push_back(candidate_count);
      stats->large_per_level.push_back(static_cast<int64_t>(next.size()));
    }
    level = std::move(next);
  }
  SortFrequentItemsets(&result);
  return result;
}

}  // namespace minerule::mining
