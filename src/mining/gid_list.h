#ifndef MINERULE_MINING_GID_LIST_H_
#define MINERULE_MINING_GID_LIST_H_

#include <cstdint>
#include <vector>

namespace minerule::mining {

/// A sorted list of the groups containing some itemset. This is the
/// support-counting structure the paper describes for the simple core
/// ("counting elements in an associated list that contains identifiers of
/// groups in which the itemset is present"). A group is named by its
/// transaction position (an index into TransactionDb::gids()); positions
/// order exactly as the gids do, so every intersection and count is the
/// same as on the gids themselves.
using PositionList = std::vector<uint32_t>;

/// Sorted-merge intersection.
PositionList IntersectPositionLists(const PositionList& a,
                                    const PositionList& b);

}  // namespace minerule::mining

#endif  // MINERULE_MINING_GID_LIST_H_
