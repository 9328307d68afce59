#include "mining/gidlist_miner.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>

#include "common/thread_pool.h"
#include "common/trace.h"

namespace minerule::mining {
namespace {

/// Joins (prefix, later sibling) per level-extension morsel. A morsel is a
/// run of prefix indices cut once it holds this many joins, so boundaries
/// depend only on the level, never on the thread count. A prefix's joins
/// shrink with its index (level[0] joins every later item): 8 prefixes per
/// morsel put 36% of a 40-item level 2 into the first morsel, and one
/// prefix per morsel pays a morsel's setup for each of a sparse level's
/// many prefixes with few or no siblings.
constexpr size_t kJoinsPerMorsel = 64;

/// A level entry. `positions` is a view: level 1 views the database's
/// vertical index, a longer itemset its own `owned` list, whose buffer
/// moves with the entry.
struct Entry {
  Itemset items;
  std::span<const uint32_t> positions;
  PositionList owned;
};
static_assert(std::is_nothrow_move_constructible_v<Entry>,
              "growing a level must move entries, keeping the views valid");

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

/// Morsel boundaries over the prefix indices of a sorted level of
/// k-itemsets: morsel m covers [bounds[m], bounds[m + 1]).
std::vector<size_t> MorselBounds(const std::vector<Entry>& level, size_t k) {
  std::vector<size_t> bounds{0};
  size_t joins = 0;
  size_t class_end = 0;  // end of level[i]'s prefix class
  for (size_t i = 0; i < level.size(); ++i) {
    if (class_end <= i) {
      class_end = i + 1;
      while (class_end < level.size() &&
             SharesPrefix(level[i].items, level[class_end].items, k - 1)) {
        ++class_end;
      }
    }
    joins += class_end - i - 1;
    if (joins >= kJoinsPerMorsel || i + 1 == level.size()) {
      bounds.push_back(i + 1);
      joins = 0;
    }
  }
  return bounds;
}

}  // namespace

Result<std::vector<FrequentItemset>> GidListMiner::Mine(
    const TransactionDb& db, int64_t min_group_count, int64_t max_size,
    SimpleMinerStats* stats) {
  // Level 1: the frequent items' lists, read from the vertical index.
  std::vector<Entry> level;
  for (ItemId item : db.items()) {
    const PositionList& positions = db.positions(item);
    if (static_cast<int64_t>(positions.size()) >= min_group_count) {
      level.push_back({Itemset{item}, positions, {}});
    }
  }
  if (stats != nullptr) {
    stats->passes = 1;  // only the vertical build touches the data
    stats->candidates_per_level.push_back(
        static_cast<int64_t>(db.items().size()));
    stats->large_per_level.push_back(static_cast<int64_t>(level.size()));
  }

  const size_t bitmap_words = (db.num_transactions() + 63) / 64;
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
    const std::vector<size_t> bounds = MorselBounds(level, k);
    const size_t morsels = bounds.size() - 1;
    std::vector<std::vector<Entry>> slots(morsels);
    std::vector<int64_t> slot_candidates(morsels, 0);
    ParallelForMorsels(
        morsels, 1, num_threads_, [&](size_t morsel, size_t, size_t) {
          std::vector<Entry> out;
          int64_t candidates = 0;
          std::vector<uint64_t> bitmap;  // allocated on first use
          PositionList scratch;
          Itemset candidate;
          Itemset subset;
          for (size_t i = bounds[morsel]; i < bounds[morsel + 1]; ++i) {
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
                Entry& child = out.emplace_back();
                child.items = candidate;
                child.owned.assign(scratch.begin(), scratch.begin() + count);
                child.positions = child.owned;
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
