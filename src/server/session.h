#ifndef MINERULE_SERVER_SESSION_H_
#define MINERULE_SERVER_SESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "engine/data_mining_system.h"
#include "server/flight_recorder.h"
#include "server/scheduler.h"
#include "sql/engine.h"

namespace minerule::server {

class Server;

/// How the session layer classifies one statement before executing it
/// (DESIGN.md §15). Read-class statements run under the shared catalog
/// latch (snapshot reads); write-class ones serialize on the exclusive
/// latch; MINE RULE runs its own protocol: mining lane, snapshot under a
/// brief shared pin, mining with no latch, validated install under a
/// short exclusive latch.
enum class StatementClass {
  kRead,      // SELECT / EXPLAIN / ANALYZE without side effects
  kWrite,     // DML, DDL, NEXTVAL-touching SELECTs
  kMineRule,  // MINE RULE (installs its three output tables)
};

/// Classifies raw statement text. Conservative: anything that could mutate
/// shared state (including a SELECT mentioning NEXTVAL, which advances a
/// catalog sequence) is write-class; misclassifying a read as a write only
/// costs concurrency, never correctness.
StatementClass ClassifyStatement(std::string_view text);

/// "read" | "write" | "mine_rule" — the class names used by
/// mr_active_statements, the slow-query log and the flight recorder.
const char* StatementClassName(StatementClass cls);

/// The result of one session statement.
struct SessionResult {
  StatementClass statement_class = StatementClass::kRead;

  /// Filled for SQL statements.
  sql::QueryResult query;
  /// Filled for MINE RULE statements.
  mr::MiningRunStats mining;
  bool is_mine_rule() const {
    return statement_class == StatementClass::kMineRule;
  }

  /// Catalog epoch the statement observed. For snapshot reads start == end
  /// always (the pinned epoch); for writes end == start + 1 (this
  /// statement's own commit). For MINE RULE, start is the epoch pinned
  /// while its sources were copied and end is its install commit; other
  /// statements may commit in between. The rules are those of a serial run
  /// at epoch_end. A failed MINE RULE installs nothing and does not bump
  /// the epoch.
  uint64_t epoch_start = 0;
  uint64_t epoch_end = 0;

  /// Admission-control outcome for this statement. For MINE RULE the wait
  /// includes the time spent waiting for the mining lane.
  int64_t queue_wait_micros = 0;
  bool queued = false;

  /// mr_runs row id attributed to this statement (every session statement
  /// — SQL and MINE RULE, success and failure — appends exactly one row).
  int64_t run_id = 0;
};

/// One client connection to the Server: per-session options, host
/// variables, statistics and preprocess cache over the shared catalog, plus
/// a private scratch catalog MINE RULE mines in.
/// A session executes one statement at a time; drive each session from a
/// single thread (different sessions may run concurrently, which is the
/// point).
class Session {
 public:
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Executes one statement (SQL or MINE RULE) with admission control and
  /// the catalog protocol of its class. Every call appends one
  /// mr_runs row carrying this session's id and queue-wait attribution.
  Result<SessionResult> Execute(std::string_view statement);

  int64_t id() const { return id_; }
  const std::string& name() const { return name_; }

  /// Per-session execution options, applied to both MINE RULE runs and
  /// (where applicable: threads, memory_limit)
  /// plain SQL. Mutating them never affects other sessions.
  mr::MiningOptions* options() { return &options_; }

  /// Last error this session saw; empty after a successful statement.
  const std::string& last_error() const { return last_error_; }

  /// Catalog epoch as of the latest completed statement.
  uint64_t last_epoch() const { return last_epoch_; }

  /// The session-private mining stack, bound to the scratch catalog
  /// (testing and diagnostics).
  mr::DataMiningSystem* system() { return system_.get(); }

  /// This session's flight recorder (DESIGN.md §16): the ring of recent
  /// statement events, dumped as JSON when a statement fails.
  FlightRecorder* flight_recorder() { return &flight_recorder_; }

  /// Execution-time threshold (queue wait excluded) above which a
  /// statement is captured into mr_slow_queries; <= 0 disables capture.
  /// Seeded from MINERULE_SLOW_QUERY_MICROS (default 100ms); the socket
  /// front end exposes it as `\set slow_query_micros N`.
  int64_t slow_query_micros() const { return slow_query_micros_; }
  void set_slow_query_micros(int64_t micros) { slow_query_micros_ = micros; }

 private:
  friend class Server;
  Session(Server* server, int64_t id, std::string name);

  /// Runs a SQL statement on the shared catalog under the latch the
  /// caller holds; fills `result`.
  Status ExecuteSql(std::string_view statement, SessionResult* result);

  /// The MINE RULE protocol (DESIGN.md §15), run holding the mining lane:
  /// snapshot the sources under a ReadPin, mine in scratch_ with no latch,
  /// then validate and install under a WriteLock.
  Status ExecuteMineRule(std::string_view statement, int64_t statement_id,
                         SessionResult* result);

  /// Copies every relation `from` reads into scratch_ (tables copy-on-write)
  /// and returns the shared catalog's SourceFingerprint. Caller holds a
  /// latch.
  std::string SnapshotSources(const std::vector<sql::TableRef>& from);
  /// Drops the copies from scratch_. Caller holds a latch, so the shared
  /// tables' writers see the copies released before they mutate.
  void DropSnapshots();

  /// Moves a run's three output tables from scratch_ into the shared
  /// catalog, replacing same-named tables and views. Caller holds the
  /// WriteLock.
  Status InstallOutput(const mr::PostprocessResult& output);

  Server* server_;
  int64_t id_;
  std::string name_;
  mr::MiningOptions options_;
  /// Plain SQL: runs on the shared catalog.
  sql::SqlEngine sql_;
  /// MINE RULE: source snapshots, every fixed-name scratch table and the
  /// output before its install. Declared before system_, which uses it.
  Catalog scratch_;
  std::unique_ptr<mr::DataMiningSystem> system_;
  /// The current run's snapshot names, and its table copies held here too:
  /// a copy is then released only by DropSnapshots, under a latch, even if
  /// the pipeline drops a same-named scratch table mid-run.
  std::vector<std::string> snapshot_names_;
  std::vector<std::shared_ptr<Table>> snapshot_tables_;
  std::string last_error_;
  uint64_t last_epoch_ = 0;
  FlightRecorder flight_recorder_;
  int64_t slow_query_micros_ = 0;  // seeded in the constructor
};

}  // namespace minerule::server

#endif  // MINERULE_SERVER_SESSION_H_
