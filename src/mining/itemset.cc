#include "mining/itemset.h"

#include <algorithm>

namespace minerule::mining {

bool IsCanonical(const Itemset& items) {
  for (size_t i = 1; i < items.size(); ++i) {
    if (items[i - 1] >= items[i]) return false;
  }
  return true;
}

void Canonicalize(Itemset* items) {
  std::sort(items->begin(), items->end());
  items->erase(std::unique(items->begin(), items->end()), items->end());
}

bool IsSubset(const Itemset& sub, const Itemset& super) {
  size_t i = 0, j = 0;
  while (i < sub.size() && j < super.size()) {
    if (sub[i] == super[j]) {
      ++i;
      ++j;
    } else if (sub[i] > super[j]) {
      ++j;
    } else {
      return false;
    }
  }
  return i == sub.size();
}

bool SharesPrefix(const Itemset& a, const Itemset& b, size_t k) {
  if (a.size() < k || b.size() < k) return false;
  for (size_t i = 0; i < k; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

Itemset WithItem(const Itemset& base, ItemId extra) {
  Itemset out;
  out.reserve(base.size() + 1);
  auto pos = std::lower_bound(base.begin(), base.end(), extra);
  out.insert(out.end(), base.begin(), pos);
  out.push_back(extra);
  out.insert(out.end(), pos, base.end());
  return out;
}

std::string ItemsetToString(const Itemset& items) {
  std::string out = "{";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(items[i]);
  }
  out += "}";
  return out;
}

size_t ItemsetHash::operator()(const Itemset& items) const {
  size_t h = 0xcbf29ce484222325ull;
  for (ItemId item : items) {
    h ^= static_cast<size_t>(item) + 0x9e3779b97f4a7c15ull + (h << 6) +
         (h >> 2);
  }
  return h;
}

}  // namespace minerule::mining
