#include "mining/core_operator.h"

#include <map>

#include "common/trace.h"

namespace minerule::mining {

GeneralInput BuildGeneralInput(const CodedSourceData& data,
                               const CoreDirectives& directives) {
  GeneralInput input;
  input.total_groups = data.total_groups;
  input.distinct_head_encoding = directives.distinct_head;
  input.all_pairs = !directives.has_cluster_couples;
  input.has_input_rules = directives.has_input_rules;
  input.input_rules = data.input_rules;

  // (gid -> (cid -> cluster)) assembled from the role rows.
  std::map<Gid, std::map<Cid, GeneralInput::Cluster>> assembly;
  for (const CodedSourceData::RoleRow& row : data.body_rows) {
    GeneralInput::Cluster& cluster = assembly[row.gid][row.cid];
    cluster.cid = row.cid;
    cluster.body_items.push_back(row.item);
  }
  if (directives.distinct_head) {
    for (const CodedSourceData::RoleRow& row : data.head_rows) {
      GeneralInput::Cluster& cluster = assembly[row.gid][row.cid];
      cluster.cid = row.cid;
      cluster.head_items.push_back(row.item);
    }
  }

  std::map<Gid, std::vector<std::pair<Cid, Cid>>> couples;
  for (const auto& [gid, bcid, hcid] : data.cluster_couples) {
    couples[gid].emplace_back(bcid, hcid);
  }

  input.groups.reserve(assembly.size());
  for (auto& [gid, clusters] : assembly) {
    GeneralInput::Group group;
    group.gid = gid;
    group.clusters.reserve(clusters.size());
    for (auto& [cid, cluster] : clusters) {
      Canonicalize(&cluster.body_items);
      if (directives.distinct_head) {
        Canonicalize(&cluster.head_items);
      } else {
        cluster.head_items = cluster.body_items;
      }
      group.clusters.push_back(std::move(cluster));
    }
    auto it = couples.find(gid);
    if (it != couples.end()) group.couples = std::move(it->second);
    input.groups.push_back(std::move(group));
  }
  return input;
}

Result<std::vector<MinedRule>> RunCoreOperator(
    const CodedSourceData& data, const CoreDirectives& directives,
    double min_support, double min_confidence,
    const CardinalityConstraint& body_card,
    const CardinalityConstraint& head_card, const CoreOptions& options,
    CoreStats* stats) {
  if (data.total_groups <= 0) {
    // No valid groups at all: no rules, trivially.
    if (stats != nullptr) stats->rules_found = 0;
    return std::vector<MinedRule>{};
  }
  if (!directives.general) {
    const TransactionDb db = [&] {
      ScopedSpan span("core.transactions", "core");
      return TransactionDb::FromPairs(data.simple_pairs, data.total_groups);
    }();
    SimpleMinerOptions miner_options;
    miner_options.num_threads = options.num_threads;
    MR_ASSIGN_OR_RETURN(
        std::vector<MinedRule> rules,
        MineSimpleRules(db, min_support, min_confidence, body_card, head_card,
                        options.algorithm, miner_options,
                        stats != nullptr ? &stats->simple : nullptr));
    if (stats != nullptr) {
      stats->used_general = false;
      stats->algorithm = SimpleAlgorithmName(options.algorithm);
      stats->rules_found = static_cast<int64_t>(rules.size());
    }
    return rules;
  }
  GeneralMiner miner(
      [&] {
        ScopedSpan span("core.transactions", "core");
        return BuildGeneralInput(data, directives);
      }(),
      options.num_threads);
  MR_ASSIGN_OR_RETURN(
      std::vector<MinedRule> rules,
      miner.Mine(min_support, min_confidence, body_card, head_card,
                 stats != nullptr ? &stats->general : nullptr));
  if (stats != nullptr) {
    stats->used_general = true;
    stats->algorithm = "general";
    stats->rules_found = static_cast<int64_t>(rules.size());
  }
  return rules;
}

}  // namespace minerule::mining
