#ifndef MINERULE_MINING_TRANSACTION_DB_H_
#define MINERULE_MINING_TRANSACTION_DB_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mining/gid_list.h"
#include "mining/itemset.h"

namespace minerule::mining {

/// The simple-core view of the encoded source: one itemset per group, built
/// from the (Gid, Bid) pairs of the CodedSource table. Offers both the
/// horizontal layout (one itemset per group, for Apriori/DHP/Partition) and
/// the vertical layout (one sorted position list per item, for the gid-list
/// miner and the Partition/Sampling counting passes).
///
/// `total_groups` is the Q1 count — the support denominator. It can exceed
/// the number of transactions here because CodedSource only keeps groups
/// that contain at least one large item.
class TransactionDb {
 public:
  TransactionDb() = default;

  /// Builds from encoded pairs; duplicates are tolerated (CodedSource is
  /// DISTINCT but callers may feed raw data in tests).
  static TransactionDb FromPairs(std::vector<std::pair<Gid, ItemId>> pairs,
                                 int64_t total_groups);

  /// Builds directly from per-group itemsets (gid = position).
  static TransactionDb FromTransactions(std::vector<Itemset> transactions,
                                        int64_t total_groups);

  int64_t total_groups() const { return total_groups_; }
  size_t num_transactions() const { return transactions_.size(); }

  /// Group ids aligned with transactions().
  const std::vector<Gid>& gids() const { return gids_; }
  const std::vector<Itemset>& transactions() const { return transactions_; }

  /// Distinct items, ascending.
  const std::vector<ItemId>& items() const { return items_; }

  /// Vertical layout: the ascending positions (indices into gids() and
  /// transactions()) of the transactions holding `item`; empty if unknown.
  const PositionList& positions(ItemId item) const;

  /// Restriction of this database to a contiguous slice of transactions
  /// (used by the Partition miner). total_groups of the slice equals the
  /// slice size (local supports are relative to the partition).
  TransactionDb Slice(size_t begin, size_t end) const;

 private:
  void BuildIndexes();

  int64_t total_groups_ = 0;
  std::vector<Gid> gids_;
  std::vector<Itemset> transactions_;
  std::vector<ItemId> items_;
  std::unordered_map<ItemId, PositionList> vertical_;
};

}  // namespace minerule::mining

#endif  // MINERULE_MINING_TRANSACTION_DB_H_
