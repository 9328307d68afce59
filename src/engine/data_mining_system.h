#ifndef MINERULE_ENGINE_DATA_MINING_SYSTEM_H_
#define MINERULE_ENGINE_DATA_MINING_SYSTEM_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "common/result.h"
#include "minerule/parser.h"
#include "minerule/translator.h"
#include "mining/core_operator.h"
#include "postprocess/postprocessor.h"
#include "preprocess/preprocessor.h"
#include "sql/engine.h"

namespace minerule::mr {

/// Knobs for one MINE RULE execution.
struct MiningOptions {
  /// Which pool member the simple core uses (§3: algorithm
  /// interoperability). The default is the paper's gid-list scheme
  /// (DESIGN.md §14 has the measured landscape); a named member runs with
  /// its default tuning. The general core has a single implementation.
  /// Every member returns the same rules, so this only affects speed.
  mining::SimpleAlgorithm algorithm = mining::SimpleAlgorithm::kGidList;

  /// Worker threads for the core operator, forwarded translator -> core
  /// operator -> miners. <= 0 means hardware concurrency; 1 preserves the
  /// serial execution exactly. The mined rules are bit-identical at every
  /// setting.
  int num_threads = 0;

  /// Memory budget in bytes for the SQL engine's operator working sets
  /// (DESIGN.md §13): >= 0 makes the buffering operators spill to disk past
  /// the budget (0 spills everything) and runs a serial plan on rows, < 0
  /// disables the budget and scans the cached columnar images. The mined
  /// rules are bit-identical at every setting. kMemoryLimitInherit (the
  /// default) leaves the engine's own setting alone — which the engine
  /// seeds from the MINERULE_MEMORY_LIMIT environment variable — so the
  /// option only overrides when explicitly set.
  static constexpr int64_t kMemoryLimitInherit =
      std::numeric_limits<int64_t>::min();
  int64_t memory_limit = kMemoryLimitInherit;

  /// §3: "the same preprocessing could be in common to the execution of
  /// several data mining queries, thus saving its cost". When true, a
  /// statement whose encoding-relevant clauses (and support threshold)
  /// match the previous run reuses the encoded tables. Source-table DML is
  /// detected automatically: each table's modification epoch is part of the
  /// cache key, so a changed source forces fresh preprocessing.
  bool reuse_preprocessing = false;

  /// Keep the encoded tables in the catalog after the run (useful for
  /// inspection and for preprocessing reuse); they are overwritten by the
  /// next run regardless. False also drops the postprocessor's
  /// OutputBodies/OutputHeads, so a run leaves only its three output
  /// tables behind.
  bool keep_encoded_tables = true;
};

/// Shared-thread-pool utilization attributed to one run (snapshot delta
/// around the core phase). Pool-side only: ParallelFor chunks executed by
/// the calling thread are not counted. The delta is process-wide: in a
/// server, the reads and writes other sessions run during the core phase
/// (a MINE RULE holds no catalog latch there) count as well.
struct PoolUsage {
  int workers = 0;
  int64_t tasks_run = 0;
  int64_t busy_micros = 0;
  std::vector<int64_t> per_worker_busy_micros;
};

/// Per-run report: classification, phase timings (the Figure 3 process
/// flow), per-query preprocessing stats (Figure 4), core counters and pool
/// utilization.
struct MiningRunStats {
  Directives directives;
  int64_t total_groups = 0;
  int64_t min_group_count = 0;
  bool preprocessing_reused = false;

  /// Id of this run's row in the mr_runs system table (DESIGN.md §11);
  /// assigned by the process-wide ObservabilityRegistry, 1-based.
  int64_t run_id = 0;

  /// Estimated peak working-set bytes: coded-table cache plus the largest
  /// per-query operator buffer total (join builds, aggregate tables, sort
  /// buffers) across the generated queries.
  int64_t peak_bytes = 0;

  /// Resolved worker-thread count the SQL engine ran with (DESIGN.md §9):
  /// MiningOptions::num_threads with <= 0 resolved to the hardware
  /// concurrency. The pre/postprocessing queries used morsel-driven
  /// parallelism at this width; 1 is the exact serial path.
  int engine_threads = 1;

  double translate_seconds = 0;
  double preprocess_seconds = 0;
  /// Includes handoff_seconds: the core phase starts with the hand-off.
  double core_seconds = 0;
  double postprocess_seconds = 0;
  /// The hand-off of the encoded tables from SQL to the core
  /// (FetchEncodedData), a part of core_seconds.
  double handoff_seconds = 0;
  double TotalSeconds() const {
    return translate_seconds + preprocess_seconds + core_seconds +
           postprocess_seconds;
  }

  /// The generated queries this run executed; preprocess_queries is empty
  /// when the run reused a cached preprocessing.
  std::vector<QueryStat> preprocess_queries;
  std::vector<QueryStat> postprocess_queries;
  mining::CoreStats core;

  PoolUsage pool;

  PostprocessResult output;

  /// Serializes the whole report (phases, per-query operator profiles,
  /// per-pass mining counters, pool utilization) as one JSON object — the
  /// machine-readable shape the benches emit. Schema is
  /// documented in DESIGN.md §8.
  std::string ToJson() const;
};

/// Visits every relation a MINE RULE's FROM list reads: each view, then
/// the views and tables its SELECT reads (subqueries included, as deep as
/// the planner expands views), and each base table. `view` is set for a
/// view; otherwise `table` is the catalog's table, or null when the name
/// does not resolve. The preprocess cache key and the server's source
/// snapshot (DESIGN.md §15) walk sources through this one function.
using SourceVisitor = std::function<void(
    const std::string& name, const ViewDef* view,
    const std::shared_ptr<Table>& table)>;
void VisitSourceRelations(const Catalog& catalog,
                          const std::vector<sql::TableRef>& from,
                          const SourceVisitor& visit);

/// The state of every source relation as one string: "view:<name>=<sql>,"
/// per view and "<name>@<version>," per base table (version 0 when absent).
/// Versions are unique per mutation, so equal fingerprints mean equal
/// source data.
std::string SourceFingerprint(const Catalog& catalog,
                              const std::vector<sql::TableRef>& from);

/// The kernel of the tightly-coupled architecture (Figure 3a): translator,
/// preprocessor, core operator and postprocessor around one SQL server.
/// Everything flows through the catalog: sources in, encoded tables in the
/// middle, rule tables out — the integration property the paper argues for.
class DataMiningSystem {
 public:
  explicit DataMiningSystem(Catalog* catalog)
      : catalog_(catalog), sql_engine_(catalog) {
    // Per-operator row counts for every generated query (cheap; timing
    // stays off unless EXPLAIN ANALYZE asks for it).
    sql_engine_.set_collect_operator_stats(true);
  }

  DataMiningSystem(const DataMiningSystem&) = delete;
  DataMiningSystem& operator=(const DataMiningSystem&) = delete;

  /// Executes a MINE RULE statement end to end. On success the output
  /// tables <out>, <out>_Bodies and <out>_Heads exist in the catalog.
  /// Every execution — successful or not — is appended to the mr_runs
  /// system table (DESIGN.md §11).
  Result<MiningRunStats> ExecuteMineRule(std::string_view text,
                                         const MiningOptions& options = {});

  /// Runs between the pipeline and its mr_runs row, on success and failure
  /// alike. The server session installs the output tables here
  /// (DESIGN.md §15); when its snapshot went stale it replaces `*result`
  /// with `rerun()`, which executes the pipeline again. Either way the
  /// statement records one row, timed over both.
  using InstallHook = std::function<void(
      Result<MiningRunStats>* result,
      const std::function<Result<MiningRunStats>()>& rerun)>;

  /// Executes an already-parsed statement.
  Result<MiningRunStats> ExecuteStatement(const MineRuleStatement& stmt,
                                          const MiningOptions& options = {},
                                          const InstallHook& install = {});

  /// Plain SQL passthrough to the embedded server (loading data, querying
  /// rule tables, joining rules with source data — the tight coupling).
  Result<sql::QueryResult> ExecuteSql(std::string_view sql) {
    return sql_engine_.Execute(sql);
  }

  /// Renders a previously mined output table in Figure 2.b notation.
  Result<std::string> RenderRules(const std::string& output_table);

  /// Drops the preprocessing cache. Source-table DML is detected via table
  /// epochs in the cache key; this remains for explicit resets.
  void InvalidateCache() { cache_key_.reset(); }

  /// Per-session attribution stamped onto every mr_runs row this system
  /// records (DESIGN.md §15). The server session layer sets it before each
  /// statement; library callers leave the default (session 0, no queue).
  struct RunAttribution {
    int64_t session_id = 0;
    int64_t queue_wait_micros = 0;
    std::string admission;  // "", "immediate" or "queued"
  };
  void set_run_attribution(RunAttribution attribution) {
    attribution_ = std::move(attribution);
  }

  sql::SqlEngine* sql_engine() { return &sql_engine_; }
  Catalog* catalog() { return catalog_; }

 private:
  /// Cache key: the statement with everything that does not influence the
  /// generated preprocessing program masked out, plus the SourceFingerprint
  /// so that DML on a source invalidates the cache automatically.
  std::string PreprocessCacheKey(const MineRuleStatement& stmt) const;

  /// The hand-off: reads the encoded tables the preprocessor wrote into
  /// the core operator's integer vectors.
  Result<mining::CodedSourceData> FetchEncodedData(
      const PreprocessProgram& program, const Directives& directives);

  /// The integer `columns` of the encoded `relation`, row-major: row r's
  /// value of column c sits at r * columns.size() + c. A base table is read
  /// in place from the catalog; a view runs through the SQL engine. A value
  /// that is not an integer fails the read.
  Result<std::vector<int64_t>> ReadEncoded(
      const std::string& relation, const std::vector<std::string>& columns);

  /// The pipeline proper; ExecuteStatement wraps it to record the run into
  /// the observability registry on both the success and the error path.
  Result<MiningRunStats> ExecuteStatementImpl(const MineRuleStatement& stmt,
                                              const MiningOptions& options);

  /// Appends one mr_runs row for `result` (success or failure), feeds the
  /// engine.* metrics and stamps the assigned run_id on a successful result.
  void RecordRun(std::string statement, const MiningOptions& options,
                 int64_t total_micros, Result<MiningRunStats>* result);

  Catalog* catalog_;
  sql::SqlEngine sql_engine_;
  RunAttribution attribution_;

  std::optional<std::string> cache_key_;
  std::optional<PreprocessResult> cached_preprocess_;

  /// What RenderRules needs to know about past runs, by output table.
  struct RenderInfo {
    bool select_support = false;
    bool select_confidence = false;
  };
  std::map<std::string, RenderInfo> executed_;
};

}  // namespace minerule::mr

#endif  // MINERULE_ENGINE_DATA_MINING_SYSTEM_H_
