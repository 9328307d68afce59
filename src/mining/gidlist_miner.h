#ifndef MINERULE_MINING_GIDLIST_MINER_H_
#define MINERULE_MINING_GIDLIST_MINER_H_

#include "mining/simple_miner.h"

namespace minerule::mining {

/// The counting scheme the paper describes for its simple core (§4.3.1):
/// levelwise growth where each itemset carries the sorted list of groups
/// containing it; the support of a new (k+1)-itemset is the size of the
/// intersection of its two parents' lists. No further database passes are
/// needed after the vertical layout is built (pass count 1).
///
/// The lists hold transaction positions (0..n-1 into db.gids()); level 1
/// is read from the database's vertical index. Each level is extended
/// morsel-parallel over runs of the prefix index i (num_threads workers,
/// <= 0 = hardware): for each i a morsel marks level[i]'s positions in an
/// n-bit scratch bitmap, counts every sibling of the same prefix class
/// against it without branching, and clears the words it set. Per-morsel
/// outputs are joined in morsel order.
class GidListMiner : public FrequentItemsetMiner {
 public:
  explicit GidListMiner(int num_threads = 1) : num_threads_(num_threads) {}

  const char* name() const override { return "gidlist"; }

  Result<std::vector<FrequentItemset>> Mine(const TransactionDb& db,
                                            int64_t min_group_count,
                                            int64_t max_size,
                                            SimpleMinerStats* stats) override;

 private:
  int num_threads_;
};

}  // namespace minerule::mining

#endif  // MINERULE_MINING_GIDLIST_MINER_H_
