#include "mining/transaction_db.h"

#include <algorithm>

namespace minerule::mining {

TransactionDb TransactionDb::FromPairs(
    std::vector<std::pair<Gid, ItemId>> pairs, int64_t total_groups) {
  // One sort groups the pairs by gid with each group's items ascending;
  // unique drops duplicate pairs, so each run is a canonical itemset.
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  TransactionDb db;
  db.total_groups_ = total_groups;
  for (size_t begin = 0; begin < pairs.size();) {
    size_t end = begin + 1;
    while (end < pairs.size() && pairs[end].first == pairs[begin].first) {
      ++end;
    }
    Itemset items;
    items.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) items.push_back(pairs[i].second);
    db.gids_.push_back(pairs[begin].first);
    db.transactions_.push_back(std::move(items));
    begin = end;
  }
  db.BuildIndexes();
  return db;
}

TransactionDb TransactionDb::FromTransactions(
    std::vector<Itemset> transactions, int64_t total_groups) {
  TransactionDb db;
  db.total_groups_ = total_groups;
  db.transactions_ = std::move(transactions);
  db.gids_.reserve(db.transactions_.size());
  for (size_t i = 0; i < db.transactions_.size(); ++i) {
    Canonicalize(&db.transactions_[i]);
    db.gids_.push_back(static_cast<Gid>(i));
  }
  db.BuildIndexes();
  return db;
}

void TransactionDb::BuildIndexes() {
  vertical_.clear();
  items_.clear();
  for (size_t t = 0; t < transactions_.size(); ++t) {
    for (ItemId item : transactions_[t]) {
      vertical_[item].push_back(gids_[t]);
    }
  }
  items_.reserve(vertical_.size());
  for (const auto& [item, list] : vertical_) items_.push_back(item);
  std::sort(items_.begin(), items_.end());
  // Gid lists are built in transaction order; gids_ ascend by construction
  // in FromPairs/FromTransactions, so each list is already sorted.
}

const GidList& TransactionDb::gid_list(ItemId item) const {
  static const GidList kEmpty;
  auto it = vertical_.find(item);
  return it == vertical_.end() ? kEmpty : it->second;
}

TransactionDb TransactionDb::Slice(size_t begin, size_t end) const {
  TransactionDb db;
  db.total_groups_ = static_cast<int64_t>(end - begin);
  db.gids_.assign(gids_.begin() + begin, gids_.begin() + end);
  db.transactions_.assign(transactions_.begin() + begin,
                          transactions_.begin() + end);
  db.BuildIndexes();
  return db;
}

}  // namespace minerule::mining
