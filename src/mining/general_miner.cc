#include "mining/general_miner.h"

#include <algorithm>
#include <map>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "mining/simple_miner.h"

namespace minerule::mining {

OccurrenceList IntersectOccurrences(const OccurrenceList& a,
                                    const OccurrenceList& b) {
  OccurrenceList out;
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

int64_t CountDistinctGids(const OccurrenceList& occs) {
  int64_t count = 0;
  Gid last = -1;
  bool first = true;
  for (const Occurrence& occ : occs) {
    if (first || occ.gid != last) {
      ++count;
      last = occ.gid;
      first = false;
    }
  }
  return count;
}

namespace {

/// Key for looking up a rule by (body, head) within one rule set.
struct RuleKey {
  const Itemset* body;
  const Itemset* head;
};
struct RuleKeyHash {
  size_t operator()(const RuleKey& key) const {
    ItemsetHash h;
    return h(*key.body) * 1315423911u ^ h(*key.head);
  }
};
struct RuleKeyEq {
  bool operator()(const RuleKey& a, const RuleKey& b) const {
    return *a.body == *b.body && *a.head == *b.head;
  }
};

void SortOccurrences(OccurrenceList* occs) {
  std::sort(occs->begin(), occs->end());
  occs->erase(std::unique(occs->begin(), occs->end()), occs->end());
}

}  // namespace

GeneralMiner::GeneralMiner(GeneralInput input, int num_threads)
    : input_(std::move(input)), num_threads_(num_threads) {
  // Body presence index (confidence denominator source). Groups iterate in
  // ascending gid order and clusters in ascending cid order, so each
  // per-item list comes out sorted.
  for (const GeneralInput::Group& group : input_.groups) {
    for (const GeneralInput::Cluster& cluster : group.clusters) {
      for (ItemId item : cluster.body_items) {
        body_presence_[item].emplace_back(group.gid, cluster.cid);
      }
    }
  }
  for (auto& [item, presence] : body_presence_) {
    std::sort(presence.begin(), presence.end());
    presence.erase(std::unique(presence.begin(), presence.end()),
                   presence.end());
  }
}

int64_t GeneralMiner::BodySupport(const Itemset& body,
                                  GeneralMinerStats* stats) {
  auto cached = body_support_cache_.find(body);
  if (cached != body_support_cache_.end()) return cached->second;

  std::vector<std::pair<Gid, Cid>> presence;
  bool first = true;
  for (ItemId item : body) {
    auto it = body_presence_.find(item);
    if (it == body_presence_.end()) {
      presence.clear();
      break;
    }
    if (first) {
      presence = it->second;
      first = false;
      continue;
    }
    std::vector<std::pair<Gid, Cid>> merged;
    merged.reserve(std::min(presence.size(), it->second.size()));
    std::set_intersection(presence.begin(), presence.end(),
                          it->second.begin(), it->second.end(),
                          std::back_inserter(merged));
    presence = std::move(merged);
    if (presence.empty()) break;
  }
  int64_t count = 0;
  Gid last = -1;
  bool first_gid = true;
  for (const auto& [gid, cid] : presence) {
    if (first_gid || gid != last) {
      ++count;
      last = gid;
      first_gid = false;
    }
  }
  body_support_cache_.emplace(body, count);
  if (stats != nullptr) ++stats->body_supports_computed;
  return count;
}

GeneralMiner::RuleSet GeneralMiner::BuildElementaryRules(
    int64_t min_group_count, GeneralMinerStats* stats) {
  // Accumulate occurrence lists per (bid, hid).
  std::map<std::pair<ItemId, ItemId>, OccurrenceList> occs;

  if (input_.has_input_rules) {
    for (const GeneralInput::ElementaryOccurrence& e : input_.input_rules) {
      occs[{e.bid, e.hid}].push_back({e.gid, e.bcid, e.hcid});
    }
  } else {
    for (const GeneralInput::Group& group : input_.groups) {
      // Index clusters by cid for couple lookup.
      std::map<Cid, const GeneralInput::Cluster*> by_cid;
      for (const GeneralInput::Cluster& cluster : group.clusters) {
        by_cid[cluster.cid] = &cluster;
      }
      auto emit_pair = [&](const GeneralInput::Cluster& bc,
                           const GeneralInput::Cluster& hc) {
        for (ItemId bid : bc.body_items) {
          for (ItemId hid : hc.head_items) {
            if (!input_.distinct_head_encoding && bid == hid) continue;
            occs[{bid, hid}].push_back({group.gid, bc.cid, hc.cid});
          }
        }
      };
      if (input_.all_pairs) {
        for (const GeneralInput::Cluster& bc : group.clusters) {
          for (const GeneralInput::Cluster& hc : group.clusters) {
            emit_pair(bc, hc);
          }
        }
      } else {
        for (const auto& [bcid, hcid] : group.couples) {
          auto b_it = by_cid.find(bcid);
          auto h_it = by_cid.find(hcid);
          if (b_it == by_cid.end() || h_it == by_cid.end()) continue;
          emit_pair(*b_it->second, *h_it->second);
        }
      }
    }
  }

  RuleSet elementary;
  if (stats != nullptr) {
    stats->elementary_candidates = static_cast<int64_t>(occs.size());
  }
  for (auto& [key, list] : occs) {
    SortOccurrences(&list);
    const int64_t group_count = CountDistinctGids(list);
    if (group_count < min_group_count) continue;
    GeneralRule rule;
    rule.body = Itemset{key.first};
    rule.head = Itemset{key.second};
    rule.occs = std::move(list);
    rule.group_count = group_count;
    elementary.push_back(std::move(rule));
  }
  if (stats != nullptr) {
    stats->elementary_rules = static_cast<int64_t>(elementary.size());
  }
  return elementary;  // map iteration order => sorted by (body, head)
}

GeneralMiner::RuleSet GeneralMiner::ExtendBody(const RuleSet& parent,
                                               int64_t min_group_count,
                                               int64_t* candidates) {
  // Group parent rules by head; rules within one head group are already
  // sorted by body (parent sets are kept sorted by (body, head) — we sort
  // by (head, body) locally).
  std::vector<const GeneralRule*> rules;
  rules.reserve(parent.size());
  for (const GeneralRule& r : parent) rules.push_back(&r);
  std::sort(rules.begin(), rules.end(),
            [](const GeneralRule* a, const GeneralRule* b) {
              if (a->head != b->head) return a->head < b->head;
              return a->body < b->body;
            });

  std::unordered_map<RuleKey, const GeneralRule*, RuleKeyHash, RuleKeyEq>
      parent_index;
  parent_index.reserve(parent.size());
  for (const GeneralRule& r : parent) {
    parent_index.emplace(RuleKey{&r.body, &r.head}, &r);
  }

  RuleSet next;
  const size_t m = parent.empty() ? 0 : parent[0].body.size();
  for (size_t i = 0; i < rules.size(); ++i) {
    for (size_t j = i + 1; j < rules.size(); ++j) {
      if (rules[i]->head != rules[j]->head) break;
      if (!SharesPrefix(rules[i]->body, rules[j]->body, m - 1)) break;
      Itemset body = rules[i]->body;
      body.push_back(rules[j]->body.back());
      // When body and head share one encoding, keep them disjoint.
      if (!input_.distinct_head_encoding &&
          IsSubset(Itemset{body.back()}, rules[i]->head)) {
        continue;
      }
      // Apriori prune: every m-subset of the new body (with this head)
      // must be a rule in the parent set.
      bool keep = true;
      for (size_t drop = 0; drop + 2 < body.size() && keep; ++drop) {
        Itemset sub;
        sub.reserve(m);
        for (size_t x = 0; x < body.size(); ++x) {
          if (x != drop) sub.push_back(body[x]);
        }
        if (parent_index.find(RuleKey{&sub, &rules[i]->head}) ==
            parent_index.end()) {
          keep = false;
        }
      }
      if (!keep) continue;
      if (candidates != nullptr) ++(*candidates);
      OccurrenceList occs =
          IntersectOccurrences(rules[i]->occs, rules[j]->occs);
      const int64_t group_count = CountDistinctGids(occs);
      if (group_count < min_group_count) continue;
      GeneralRule rule;
      rule.body = std::move(body);
      rule.head = rules[i]->head;
      rule.occs = std::move(occs);
      rule.group_count = group_count;
      next.push_back(std::move(rule));
    }
  }
  std::sort(next.begin(), next.end(),
            [](const GeneralRule& a, const GeneralRule& b) {
              if (a.body != b.body) return a.body < b.body;
              return a.head < b.head;
            });
  return next;
}

GeneralMiner::RuleSet GeneralMiner::ExtendHead(const RuleSet& parent,
                                               int64_t min_group_count,
                                               int64_t* candidates) {
  std::vector<const GeneralRule*> rules;
  rules.reserve(parent.size());
  for (const GeneralRule& r : parent) rules.push_back(&r);
  std::sort(rules.begin(), rules.end(),
            [](const GeneralRule* a, const GeneralRule* b) {
              if (a->body != b->body) return a->body < b->body;
              return a->head < b->head;
            });

  std::unordered_map<RuleKey, const GeneralRule*, RuleKeyHash, RuleKeyEq>
      parent_index;
  parent_index.reserve(parent.size());
  for (const GeneralRule& r : parent) {
    parent_index.emplace(RuleKey{&r.body, &r.head}, &r);
  }

  RuleSet next;
  const size_t n = parent.empty() ? 0 : parent[0].head.size();
  for (size_t i = 0; i < rules.size(); ++i) {
    for (size_t j = i + 1; j < rules.size(); ++j) {
      if (rules[i]->body != rules[j]->body) break;
      if (!SharesPrefix(rules[i]->head, rules[j]->head, n - 1)) break;
      Itemset head = rules[i]->head;
      head.push_back(rules[j]->head.back());
      if (!input_.distinct_head_encoding &&
          IsSubset(Itemset{head.back()}, rules[i]->body)) {
        continue;
      }
      bool keep = true;
      for (size_t drop = 0; drop + 2 < head.size() && keep; ++drop) {
        Itemset sub;
        sub.reserve(n);
        for (size_t x = 0; x < head.size(); ++x) {
          if (x != drop) sub.push_back(head[x]);
        }
        if (parent_index.find(RuleKey{&rules[i]->body, &sub}) ==
            parent_index.end()) {
          keep = false;
        }
      }
      if (!keep) continue;
      if (candidates != nullptr) ++(*candidates);
      OccurrenceList occs =
          IntersectOccurrences(rules[i]->occs, rules[j]->occs);
      const int64_t group_count = CountDistinctGids(occs);
      if (group_count < min_group_count) continue;
      GeneralRule rule;
      rule.body = rules[i]->body;
      rule.head = std::move(head);
      rule.occs = std::move(occs);
      rule.group_count = group_count;
      next.push_back(std::move(rule));
    }
  }
  std::sort(next.begin(), next.end(),
            [](const GeneralRule& a, const GeneralRule& b) {
              if (a.body != b.body) return a.body < b.body;
              return a.head < b.head;
            });
  return next;
}

Result<std::vector<MinedRule>> GeneralMiner::Mine(
    double min_support, double min_confidence,
    const CardinalityConstraint& body_card,
    const CardinalityConstraint& head_card, GeneralMinerStats* stats) {
  if (input_.total_groups <= 0) {
    return Status::InvalidArgument("total_groups must be positive");
  }
  const int64_t min_count = MinGroupCount(min_support, input_.total_groups);

  std::map<std::pair<int, int>, RuleSet> sets;
  sets[{1, 1}] = BuildElementaryRules(min_count, stats);

  const int64_t max_m = body_card.bound();
  const int64_t max_n = head_card.bound();

  // Level-by-level descent of the lattice; level = m + n. Every cell of one
  // level depends only on the previous level's sets, so the cells are
  // planned serially (the parent-choice heuristic reads `sets`) and then
  // extended concurrently; results are committed back in cell order.
  struct Cell {
    int m;
    int n;
    bool use_body;
    const RuleSet* parent;
    int64_t candidates = 0;
    RuleSet result;
  };
  for (int level = 3;; ++level) {
    ScopedSpan level_span("core.general.level", "core", level);
    GlobalMetrics().GetCounter("core.general.levels")->Increment();
    std::vector<Cell> cells;
    for (int m = 1; m < level; ++m) {
      const int n = level - m;
      if (m < 1 || n < 1) continue;
      if (max_m >= 0 && m > max_m) continue;
      if (max_n >= 0 && n > max_n) continue;

      auto body_parent = sets.find({m - 1, n});
      auto head_parent = sets.find({m, n - 1});
      const bool body_ok =
          m >= 2 && body_parent != sets.end() && !body_parent->second.empty();
      const bool head_ok =
          n >= 2 && head_parent != sets.end() && !head_parent->second.empty();
      if (!body_ok && !head_ok) continue;

      // §4.3.2: "the efficiency of the algorithm is maximized if, at each
      // step, we start from the set with lower cardinality".
      bool use_body;
      if (body_ok && head_ok) {
        use_body = body_parent->second.size() <= head_parent->second.size();
      } else {
        use_body = body_ok;
      }
      Cell cell;
      cell.m = m;
      cell.n = n;
      cell.use_body = use_body;
      cell.parent = use_body ? &body_parent->second : &head_parent->second;
      cells.push_back(std::move(cell));
    }

    ParallelFor(cells.size(), num_threads_,
                [&](size_t, size_t begin, size_t end) {
                  for (size_t c = begin; c < end; ++c) {
                    Cell& cell = cells[c];
                    cell.result =
                        cell.use_body
                            ? ExtendBody(*cell.parent, min_count,
                                         &cell.candidates)
                            : ExtendHead(*cell.parent, min_count,
                                         &cell.candidates);
                  }
                });

    bool produced_any = false;
    for (Cell& cell : cells) {
      if (stats != nullptr) {
        ++stats->cells_evaluated;
        stats->sets.push_back({cell.m, cell.n, cell.candidates,
                               static_cast<int64_t>(cell.result.size()),
                               cell.use_body});
      }
      if (!cell.result.empty()) produced_any = true;
      sets[{cell.m, cell.n}] = std::move(cell.result);
    }
    if (!produced_any) break;
    // Safety stop when both dimensions are bounded.
    if (max_m >= 0 && max_n >= 0 && level >= max_m + max_n) break;
  }

  // Emit rules within the cardinality window with sufficient confidence.
  std::vector<MinedRule> rules;
  for (const auto& [mn, set] : sets) {
    if (!body_card.Allows(static_cast<size_t>(mn.first)) ||
        !head_card.Allows(static_cast<size_t>(mn.second))) {
      continue;
    }
    for (const GeneralRule& rule : set) {
      const int64_t body_count = BodySupport(rule.body, stats);
      if (body_count <= 0) {
        return Status::Internal("rule body has zero support: " +
                                ItemsetToString(rule.body));
      }
      const double confidence = static_cast<double>(rule.group_count) /
                                static_cast<double>(body_count);
      if (confidence + 1e-12 < min_confidence) continue;
      MinedRule out;
      out.body = rule.body;
      out.head = rule.head;
      out.group_count = rule.group_count;
      out.body_group_count = body_count;
      rules.push_back(std::move(out));
    }
  }
  std::sort(rules.begin(), rules.end(), RuleLess);
  return rules;
}

}  // namespace minerule::mining
