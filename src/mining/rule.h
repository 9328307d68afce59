#ifndef MINERULE_MINING_RULE_H_
#define MINERULE_MINING_RULE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "mining/itemset.h"

namespace minerule::mining {

/// Cardinality bound from a MINE RULE <card spec> ("1..n", "2..4", ...).
/// max < 0 means unbounded ("n").
struct CardinalityConstraint {
  int64_t min = 1;
  int64_t max = -1;

  bool Allows(size_t size) const {
    return static_cast<int64_t>(size) >= min &&
           (max < 0 || static_cast<int64_t>(size) <= max);
  }

  /// Upper bound usable as a mining depth limit; -1 if unbounded.
  int64_t bound() const { return max; }
};

/// A large itemset together with the number of (valid) groups containing it.
struct FrequentItemset {
  Itemset items;
  int64_t group_count = 0;
};

/// An association rule over encoded items. Support and confidence follow
/// the paper's §2 definitions:
///   support    = group_count / total_groups
///   confidence = group_count / body_group_count
struct MinedRule {
  Itemset body;
  Itemset head;
  int64_t group_count = 0;       // groups containing body ∪ head (as a rule)
  int64_t body_group_count = 0;  // groups containing the body

  double Support(int64_t total_groups) const {
    return total_groups == 0
               ? 0.0
               : static_cast<double>(group_count) /
                     static_cast<double>(total_groups);
  }
  double Confidence() const {
    return body_group_count == 0
               ? 0.0
               : static_cast<double>(group_count) /
                     static_cast<double>(body_group_count);
  }

  /// "{1, 2} => {3}" for diagnostics.
  std::string ToString() const;
};

/// Canonical ordering for deterministic output and test comparison:
/// lexicographic on (body, head).
bool RuleLess(const MinedRule& a, const MinedRule& b);

/// Derives association rules from a set of large itemsets, per the simple
/// core processing of §4.3.1: for each large L and each subset H ⊂ L, form
/// (L−H) ⇒ H when confidence ≥ min_confidence and both sides satisfy their
/// cardinality constraints. `min_group_count` re-checks rule support (the
/// rule's support equals L's, so this matters only when callers pass
/// itemsets mined at a lower threshold, e.g. the sampling miner).
///
/// Rules come back sorted by RuleLess. The itemsets are indexed once by
/// sorting their positions, and bodies are found by binary search; each
/// rule is collected as (body rank, head rank, itemset) and built once,
/// after the ranks are sorted. The itemsets are split into fixed morsels
/// derived on up to `num_threads` threads (<= 0: hardware concurrency);
/// the result is identical at every setting.
std::vector<MinedRule> BuildRulesFromItemsets(
    const std::vector<FrequentItemset>& itemsets, int64_t min_group_count,
    double min_confidence, const CardinalityConstraint& body_card,
    const CardinalityConstraint& head_card, int num_threads = 1);

}  // namespace minerule::mining

#endif  // MINERULE_MINING_RULE_H_
