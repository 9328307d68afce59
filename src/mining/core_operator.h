#ifndef MINERULE_MINING_CORE_OPERATOR_H_
#define MINERULE_MINING_CORE_OPERATOR_H_

#include <string>
#include <tuple>
#include <vector>

#include "common/result.h"
#include "mining/general_miner.h"
#include "mining/simple_miner.h"

namespace minerule::mining {

/// The directives the core operator receives from the translator (§3: "uses
/// directives from the translator to decide the mining technique to
/// apply"). Everything else about the statement is hidden behind the
/// encoded tables.
struct CoreDirectives {
  bool general = false;             // general vs simple core processing
  bool has_clusters = false;        // C: CLUSTER BY present
  bool distinct_head = false;       // H: separate head encoding
  bool has_input_rules = false;     // M: elementary rules built in SQL
  bool has_cluster_couples = false; // K: valid pairs restricted by SQL
};

/// The encoded-table contents handed to the core operator. The kernel
/// reads these from the DBMS (base tables in place, Q11's DISTINCT views
/// through the SQL engine) and strips them down to plain integers here —
/// the algorithm-interoperability boundary.
struct CodedSourceData {
  // Simple core: CodedSource(Gid, Bid).
  std::vector<std::pair<Gid, ItemId>> simple_pairs;

  // General core: role-tagged rows CodedSourceB(Gid, Cid, Bid) and
  // CodedSourceH(Gid, Cid, Hid); head_rows stays empty when !H.
  struct RoleRow {
    Gid gid;
    Cid cid;
    ItemId item;
  };
  std::vector<RoleRow> body_rows;
  std::vector<RoleRow> head_rows;

  // ClusterCouples(Gid, BCid, HCid), present iff K.
  std::vector<std::tuple<Gid, Cid, Cid>> cluster_couples;

  // InputRules(Gid, BCid, HCid, Bid, Hid), present iff M.
  std::vector<GeneralInput::ElementaryOccurrence> input_rules;

  int64_t total_groups = 0;  // the Q1 count (:totg)
};

/// Core-operator knobs: which pool member the simple core uses, and how
/// many worker threads the mining layer may draw from the shared pool.
struct CoreOptions {
  SimpleAlgorithm algorithm = SimpleAlgorithm::kGidList;

  /// Applied to whichever core runs (simple pool member, with default
  /// tuning otherwise, or the general lattice miner). <= 0 means hardware
  /// concurrency, 1 preserves the serial execution exactly.
  int num_threads = 0;
};

/// Counters surfaced to MiningRunStats.
struct CoreStats {
  bool used_general = false;
  /// Name of the miner that ran: a pool-member name ("gidlist", "dhp", ...)
  /// or "general".
  std::string algorithm;
  SimpleMinerStats simple;
  GeneralMinerStats general;
  int64_t rules_found = 0;
};

/// Runs the mining technique selected by the directives over the encoded
/// data and returns encoded rules (§4.4's conceptual output, before the
/// postprocessor decodes them).
Result<std::vector<MinedRule>> RunCoreOperator(
    const CodedSourceData& data, const CoreDirectives& directives,
    double min_support, double min_confidence,
    const CardinalityConstraint& body_card,
    const CardinalityConstraint& head_card, const CoreOptions& options,
    CoreStats* stats);

/// Assembles the GeneralInput structure from role rows and couples
/// (exposed for tests).
GeneralInput BuildGeneralInput(const CodedSourceData& data,
                               const CoreDirectives& directives);

}  // namespace minerule::mining

#endif  // MINERULE_MINING_CORE_OPERATOR_H_
