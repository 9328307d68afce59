#include "mining/gid_list.h"

#include <algorithm>

namespace minerule::mining {

PositionList IntersectPositionLists(const PositionList& a,
                                    const PositionList& b) {
  PositionList out;
  out.reserve(std::min(a.size(), b.size()));
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      out.push_back(a[i]);
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

}  // namespace minerule::mining
