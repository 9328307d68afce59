#include "mining/transaction_db.h"

#include <algorithm>
#include <cstdint>

namespace minerule::mining {

namespace {

/// Flips the sign bit, so signed 32-bit values order as their unsigned
/// images: the biased (gid, item) key orders exactly as the pair.
constexpr uint32_t kSignBias = 0x80000000u;

uint64_t PackPair(Gid gid, ItemId item) {
  return (uint64_t{static_cast<uint32_t>(gid) ^ kSignBias} << 32) |
         (static_cast<uint32_t>(item) ^ kSignBias);
}

Gid GidOf(uint64_t key) {
  return static_cast<Gid>(static_cast<uint32_t>(key >> 32) ^ kSignBias);
}

ItemId ItemOf(uint64_t key) {
  return static_cast<ItemId>(static_cast<uint32_t>(key) ^ kSignBias);
}

/// LSD radix sort of 64-bit keys, 16 bits per pass. One counting scan
/// histograms all four digits; a pass whose digit is the same for every
/// key moves nothing and is skipped (dense gids and small item ids leave
/// the upper half of each word constant).
void RadixSortKeys(std::vector<uint64_t>* keys) {
  constexpr int kDigitBits = 16;
  constexpr size_t kBuckets = size_t{1} << kDigitBits;
  constexpr int kPasses = 64 / kDigitBits;
  const size_t n = keys->size();
  if (n < 2) return;
  std::vector<uint32_t> counts(kPasses * kBuckets, 0);
  for (uint64_t key : *keys) {
    for (int pass = 0; pass < kPasses; ++pass) {
      ++counts[pass * kBuckets + ((key >> (pass * kDigitBits)) & 0xFFFF)];
    }
  }
  std::vector<uint64_t> scratch(n);
  for (int pass = 0; pass < kPasses; ++pass) {
    uint32_t* count = &counts[pass * kBuckets];
    const int shift = pass * kDigitBits;
    if (count[((*keys)[0] >> shift) & 0xFFFF] == n) continue;
    uint32_t offset = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      const uint32_t c = count[b];
      count[b] = offset;
      offset += c;
    }
    for (uint64_t key : *keys) scratch[count[(key >> shift) & 0xFFFF]++] = key;
    keys->swap(scratch);
  }
}

}  // namespace

TransactionDb TransactionDb::FromPairs(
    std::vector<std::pair<Gid, ItemId>> pairs, int64_t total_groups) {
  // Sorting the packed keys groups the pairs by gid with each group's items
  // ascending; unique drops duplicate pairs, so each run is a canonical
  // itemset.
  std::vector<uint64_t> keys;
  keys.reserve(pairs.size());
  for (const auto& [gid, item] : pairs) keys.push_back(PackPair(gid, item));
  std::vector<std::pair<Gid, ItemId>>().swap(pairs);
  RadixSortKeys(&keys);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  TransactionDb db;
  db.total_groups_ = total_groups;
  for (size_t begin = 0; begin < keys.size();) {
    const uint64_t gid_bits = keys[begin] >> 32;
    size_t end = begin + 1;
    while (end < keys.size() && (keys[end] >> 32) == gid_bits) ++end;
    Itemset items;
    items.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) items.push_back(ItemOf(keys[i]));
    db.gids_.push_back(GidOf(keys[begin]));
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
      vertical_[item].push_back(static_cast<uint32_t>(t));
    }
  }
  items_.reserve(vertical_.size());
  for (const auto& [item, list] : vertical_) items_.push_back(item);
  std::sort(items_.begin(), items_.end());
  // Positions are appended in transaction order, so each list is sorted.
}

const PositionList& TransactionDb::positions(ItemId item) const {
  static const PositionList kEmpty;
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
