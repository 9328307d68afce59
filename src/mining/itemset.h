#ifndef MINERULE_MINING_ITEMSET_H_
#define MINERULE_MINING_ITEMSET_H_

#include <cstdint>
#include <string>
#include <vector>

namespace minerule::mining {

/// Encoded item identifier (a Bid/Hid minted by the preprocessor's
/// sequences). The core operator never sees anything but these integers —
/// that is the algorithm-interoperability boundary of the architecture.
using ItemId = int32_t;

/// Encoded group identifier (a Gid).
using Gid = int32_t;

/// Encoded cluster identifier (a Cid); kNoCluster when the statement has no
/// CLUSTER BY clause (the whole group is a single implicit cluster).
using Cid = int32_t;
inline constexpr Cid kNoCluster = 0;

/// A set of items, kept sorted ascending and duplicate-free.
using Itemset = std::vector<ItemId>;

/// True if `items` is strictly ascending (the Itemset invariant).
bool IsCanonical(const Itemset& items);

/// Sorts and deduplicates in place, establishing the invariant.
void Canonicalize(Itemset* items);

/// True if `sub` ⊆ `super` (both canonical). Linear merge.
bool IsSubset(const Itemset& sub, const Itemset& super);

/// True if the two canonical sets share their first k elements.
bool SharesPrefix(const Itemset& a, const Itemset& b, size_t k);

/// Union of a canonical set with one extra item (which must not be present).
Itemset WithItem(const Itemset& base, ItemId extra);

/// "{3, 7, 12}" — for logs and test failure messages.
std::string ItemsetToString(const Itemset& items);

/// FNV-style hash for itemsets, for unordered containers.
struct ItemsetHash {
  size_t operator()(const Itemset& items) const;
};

}  // namespace minerule::mining

#endif  // MINERULE_MINING_ITEMSET_H_
