#include "mining/rule.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <tuple>

#include "common/thread_pool.h"

namespace minerule::mining {

std::string MinedRule::ToString() const {
  return ItemsetToString(body) + " => " + ItemsetToString(head);
}

bool RuleLess(const MinedRule& a, const MinedRule& b) {
  if (a.body != b.body) {
    return std::lexicographical_compare(a.body.begin(), a.body.end(),
                                        b.body.begin(), b.body.end());
  }
  return std::lexicographical_compare(a.head.begin(), a.head.end(),
                                      b.head.begin(), b.head.end());
}

namespace {

/// Itemsets a morsel of rule derivation covers. Fixed, so the morsels and
/// their slots do not depend on the thread count.
constexpr size_t kItemsetsPerMorsel = 64;

constexpr uint32_t kNotMined = UINT32_MAX;

/// A derived rule by reference: the lexicographic ranks of its body and head
/// among the mined itemsets, and the position of body ∪ head in the input.
struct RuleRef {
  uint32_t body;
  uint32_t head;
  uint32_t itemset;
};

/// The mined itemsets in lexicographic order, as positions into the input,
/// for binary-search lookup. Equal itemsets keep their input order and a
/// lookup lands on the last of them.
class ItemsetIndex {
 public:
  explicit ItemsetIndex(const std::vector<FrequentItemset>& itemsets)
      : itemsets_(itemsets), order_(itemsets.size()) {
    std::iota(order_.begin(), order_.end(), uint32_t{0});
    std::stable_sort(order_.begin(), order_.end(),
                     [&](uint32_t a, uint32_t b) {
                       return itemsets_[a].items < itemsets_[b].items;
                     });
  }

  /// Rank of `items` in the order, or kNotMined.
  uint32_t RankOf(const Itemset& items) const {
    auto it = std::upper_bound(order_.begin(), order_.end(), items,
                               [&](const Itemset& key, uint32_t i) {
                                 return key < itemsets_[i].items;
                               });
    if (it == order_.begin() || itemsets_[*(it - 1)].items != items) {
      return kNotMined;
    }
    return static_cast<uint32_t>(it - order_.begin() - 1);
  }

  const FrequentItemset& AtRank(uint32_t rank) const {
    return itemsets_[order_[rank]];
  }

 private:
  const std::vector<FrequentItemset>& itemsets_;
  std::vector<uint32_t> order_;
};

/// The rules one morsel derives. A rule whose head was not mined (possible
/// only when the input is not closed under subsets) has no rank and is
/// built in full.
struct MorselRules {
  std::vector<RuleRef> refs;
  std::vector<MinedRule> unranked;
};

/// Derives the rules of itemsets[begin, end): for each head subset H of a
/// large L, the rule (L−H) ⇒ H if its body was mined and it is confident.
MorselRules DeriveRules(const std::vector<FrequentItemset>& itemsets,
                        const ItemsetIndex& index, size_t begin, size_t end,
                        int64_t min_group_count, double min_confidence,
                        const CardinalityConstraint& body_card,
                        const CardinalityConstraint& head_card) {
  MorselRules out;
  std::vector<size_t> pick;  // positions in L of the head, ascending
  Itemset head;
  Itemset body;
  for (size_t l = begin; l < end; ++l) {
    const FrequentItemset& fi = itemsets[l];
    const size_t k = fi.items.size();
    if (k < 2 || fi.group_count < min_group_count) continue;
    for (size_t head_size = 1; head_size < k; ++head_size) {
      if (!head_card.Allows(head_size)) continue;
      if (!body_card.Allows(k - head_size)) continue;
      pick.resize(head_size);
      for (size_t i = 0; i < head_size; ++i) pick[i] = i;
      while (true) {
        head.clear();
        body.clear();
        for (size_t i = 0, p = 0; i < k; ++i) {
          if (p < head_size && pick[p] == i) {
            head.push_back(fi.items[i]);
            ++p;
          } else {
            body.push_back(fi.items[i]);
          }
        }
        const uint32_t body_rank = index.RankOf(body);
        if (body_rank != kNotMined) {  // else: body not mined (size cap)
          const int64_t body_count = index.AtRank(body_rank).group_count;
          const double confidence = static_cast<double>(fi.group_count) /
                                    static_cast<double>(body_count);
          if (confidence + 1e-12 >= min_confidence) {
            const uint32_t head_rank = index.RankOf(head);
            if (head_rank != kNotMined) {
              out.refs.push_back(
                  {body_rank, head_rank, static_cast<uint32_t>(l)});
            } else {
              out.unranked.push_back({body, head, fi.group_count, body_count});
            }
          }
        }
        // Next head subset: advance the rightmost position that can move.
        size_t i = head_size;
        while (i > 0 && pick[i - 1] == k - head_size + i - 1) --i;
        if (i == 0) break;
        ++pick[i - 1];
        for (size_t j = i; j < head_size; ++j) pick[j] = pick[j - 1] + 1;
      }
    }
  }
  return out;
}

}  // namespace

std::vector<MinedRule> BuildRulesFromItemsets(
    const std::vector<FrequentItemset>& itemsets, int64_t min_group_count,
    double min_confidence, const CardinalityConstraint& body_card,
    const CardinalityConstraint& head_card, int num_threads) {
  const ItemsetIndex index(itemsets);
  std::vector<MorselRules> slots(
      MorselCount(itemsets.size(), kItemsetsPerMorsel));
  ParallelForMorsels(itemsets.size(), kItemsetsPerMorsel, num_threads,
                     [&](size_t morsel, size_t begin, size_t end) {
                       slots[morsel] = DeriveRules(
                           itemsets, index, begin, end, min_group_count,
                           min_confidence, body_card, head_card);
                     });

  std::vector<RuleRef> refs;
  std::vector<MinedRule> unranked;
  for (MorselRules& slot : slots) {
    refs.insert(refs.end(), slot.refs.begin(), slot.refs.end());
    std::move(slot.unranked.begin(), slot.unranked.end(),
              std::back_inserter(unranked));
  }
  // Ranks order as the itemsets do, so (body rank, head rank) is RuleLess.
  std::sort(refs.begin(), refs.end(), [](const RuleRef& a, const RuleRef& b) {
    return std::tie(a.body, a.head, a.itemset) <
           std::tie(b.body, b.head, b.itemset);
  });
  std::vector<MinedRule> rules;
  rules.reserve(refs.size() + unranked.size());
  for (const RuleRef& ref : refs) {
    const FrequentItemset& body = index.AtRank(ref.body);
    rules.push_back({body.items, index.AtRank(ref.head).items,
                     itemsets[ref.itemset].group_count, body.group_count});
  }
  if (!unranked.empty()) {
    std::move(unranked.begin(), unranked.end(), std::back_inserter(rules));
    std::stable_sort(rules.begin(), rules.end(), RuleLess);
  }
  return rules;
}

}  // namespace minerule::mining
