#include "server/session.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <functional>
#include <optional>

#include "common/log.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "server/server.h"
#include "sql/statement_registry.h"
#include "sql/system_tables.h"

namespace minerule::server {

namespace {

/// First keyword of the statement, uppercased.
std::string FirstKeyword(std::string_view text) {
  size_t i = 0;
  while (i < text.size() &&
         std::isspace(static_cast<unsigned char>(text[i]))) {
    ++i;
  }
  size_t j = i;
  while (j < text.size() &&
         (std::isalpha(static_cast<unsigned char>(text[j])) ||
          text[j] == '_')) {
    ++j;
  }
  return ToUpper(text.substr(i, j - i));
}

bool MentionsNextval(std::string_view text) {
  const std::string upper = ToUpper(text);
  return upper.find("NEXTVAL") != std::string::npos;
}

/// Releases the scheduler slot on scope exit.
struct SlotGuard {
  explicit SlotGuard(Scheduler* scheduler) : scheduler(scheduler) {}
  ~SlotGuard() { scheduler->Release(); }
  Scheduler* scheduler;
};

/// Slow-query threshold seeded from MINERULE_SLOW_QUERY_MICROS; parsed
/// once. Default 100ms; 0 or a non-number disables capture.
int64_t DefaultSlowQueryMicros() {
  static const int64_t micros = [] {
    const char* env = std::getenv("MINERULE_SLOW_QUERY_MICROS");
    if (env == nullptr || *env == '\0') return int64_t{100'000};
    char* end = nullptr;
    const long long parsed = std::strtoll(env, &end, 10);
    if (end == env || *end != '\0') return int64_t{0};
    return static_cast<int64_t>(parsed);
  }();
  return micros;
}

/// Compresses an operator profile for the mr_slow_queries operators column:
/// "name:rows name:rows ..." in plan pre-order, capped at 8 entries.
std::string CompressProfile(const std::vector<sql::OperatorProfile>& ops) {
  std::string out;
  size_t emitted = 0;
  for (const sql::OperatorProfile& op : ops) {
    if (emitted == 8) {
      out += " ...";
      break;
    }
    if (!out.empty()) out += ' ';
    out += op.name + ":" + std::to_string(op.rows);
    ++emitted;
  }
  return out;
}

/// Compresses a MINE RULE run into its phase timings, the closest analogue
/// of an operator profile at statement granularity. The hand-off is a part
/// of the core phase, listed after it.
std::string CompressMiningPhases(const mr::MiningRunStats& stats) {
  auto phase = [](const char* name, double seconds) {
    return std::string(name) + ":" +
           std::to_string(static_cast<int64_t>(seconds * 1e6)) + "us";
  };
  return phase("translate", stats.translate_seconds) + " " +
         phase("preprocess", stats.preprocess_seconds) + " " +
         phase("core", stats.core_seconds) + " " +
         phase("handoff", stats.handoff_seconds) + " " +
         phase("postprocess", stats.postprocess_seconds);
}

}  // namespace

StatementClass ClassifyStatement(std::string_view text) {
  const std::string keyword = FirstKeyword(text);
  if (keyword == "MINE") return StatementClass::kMineRule;
  if (keyword == "SELECT" || keyword == "EXPLAIN" || keyword == "ANALYZE") {
    // NEXTVAL advances a shared catalog sequence even inside a SELECT, so
    // it must serialize with other writers. The substring test is
    // conservative (a string literal saying "nextval" also matches), which
    // only costs concurrency, never correctness.
    return MentionsNextval(text) ? StatementClass::kWrite
                                 : StatementClass::kRead;
  }
  return StatementClass::kWrite;
}

const char* StatementClassName(StatementClass cls) {
  switch (cls) {
    case StatementClass::kRead:
      return "read";
    case StatementClass::kWrite:
      return "write";
    case StatementClass::kMineRule:
      return "mine_rule";
  }
  return "write";
}

Session::Session(Server* server, int64_t id, std::string name)
    : server_(server),
      id_(id),
      name_(std::move(name)),
      options_(server->options().session_defaults),
      sql_(server->catalog()),
      system_(std::make_unique<mr::DataMiningSystem>(&scratch_)),
      slow_query_micros_(DefaultSlowQueryMicros()) {
  // Per-operator row counts for the slow-query log, as the mining system
  // collects them for its generated queries.
  sql_.set_collect_operator_stats(true);
  sql::GlobalStatementRegistry().RegisterSession(id_, name_);
  GlobalLog().Log(LogLevel::kDebug, "server.session", "session opened",
                  {{"session", id_}, {"name", name_}});
}

Session::~Session() {
  sql::GlobalStatementRegistry().UnregisterSession(id_);
  GlobalLog().Log(LogLevel::kDebug, "server.session", "session closed",
                  {{"session", id_},
                   {"statements", flight_recorder_.recorded()}});
  server_->NoteSessionClosed();
}

Result<SessionResult> Session::Execute(std::string_view statement) {
  static Counter* statements =
      GlobalMetrics().GetCounter("server.statements");
  static Counter* errors =
      GlobalMetrics().GetCounter("server.statement_errors");
  static Counter* mine_rule_runs =
      GlobalMetrics().GetCounter("server.mine_rule_runs");
  static Counter* slow_queries =
      GlobalMetrics().GetCounter("server.slow_queries");
  static Histogram* micros = GlobalMetrics().GetHistogram(
      "server.statement_micros", LatencyBucketsMicros());

  SessionResult result;
  result.statement_class = ClassifyStatement(statement);
  const char* class_name = StatementClassName(result.statement_class);
  statements->Increment();
  if (result.is_mine_rule()) mine_rule_runs->Increment();

  // Lifecycle registry (DESIGN.md §16): the statement is visible in
  // mr_active_statements from here until EndStatement, in whatever state
  // the transitions below have reached.
  sql::StatementRegistry& registry = sql::GlobalStatementRegistry();
  const int64_t statement_id =
      registry.BeginStatement(id_, std::string(statement), class_name);

  // Lane first (MINE RULE only), admission second, latch last: a waiting
  // statement holds nothing, so admitted statements always make progress.
  Stopwatch watch;
  std::optional<SessionManager::MiningLane> lane;
  if (result.is_mine_rule()) lane.emplace(server_->session_manager());
  const Admission admission = server_->scheduler()->Admit();
  SlotGuard slot(server_->scheduler());
  result.queue_wait_micros =
      admission.queue_wait_micros + (lane ? lane->wait_micros() : 0);
  result.queued = admission.queued || (lane && lane->waited());
  registry.MarkAdmitted(statement_id, result.queue_wait_micros);

  // Per-statement attribution for the mr_runs rows this statement appends.
  system_->set_run_attribution({id_, result.queue_wait_micros,
                                result.queued ? "queued" : "immediate"});

  Status status;
  SessionManager* manager = server_->session_manager();
  if (result.statement_class == StatementClass::kRead) {
    SessionManager::ReadPin pin(manager);
    result.epoch_start = pin.epoch();
    registry.MarkExecuting(statement_id,
                           static_cast<int64_t>(pin.epoch()));
    status = ExecuteSql(statement, &result);
    result.epoch_end = manager->epoch();
  } else if (result.statement_class == StatementClass::kWrite) {
    SessionManager::WriteLock lock(manager);
    result.epoch_start = manager->epoch();
    registry.MarkExecuting(statement_id,
                           static_cast<int64_t>(result.epoch_start));
    status = ExecuteSql(statement, &result);
    result.epoch_end = lock.Commit();
  } else {
    status = ExecuteMineRule(statement, statement_id, &result);
  }
  last_epoch_ = result.epoch_end;
  const int64_t total_micros = watch.ElapsedMicros();
  micros->Observe(total_micros);

  const std::string error = status.ok() ? "" : status.ToString();
  registry.EndStatement(statement_id, status.ok(), error);

  // Slow-query log: execution time (queue wait excluded) against the
  // session's threshold.
  const int64_t exec_micros = total_micros - result.queue_wait_micros;
  if (slow_query_micros_ > 0 && exec_micros >= slow_query_micros_) {
    slow_queries->Increment();
    sql::SlowQueryRecord slow;
    slow.statement_id = statement_id;
    slow.session_id = id_;
    slow.statement = std::string(statement);
    slow.statement_class = class_name;
    slow.total_micros = exec_micros;
    slow.queue_wait_micros = result.queue_wait_micros;
    slow.threshold_micros = slow_query_micros_;
    if (status.ok()) {
      if (result.is_mine_rule()) {
        slow.rows = result.mining.output.num_rules;
        slow.peak_bytes = result.mining.peak_bytes;
        slow.operators = CompressMiningPhases(result.mining);
      } else {
        slow.rows = result.query.rows.empty()
                        ? result.query.affected_rows
                        : static_cast<int64_t>(result.query.rows.size());
        // The same working-set estimate MiningRunStats::peak_bytes uses
        // for generated queries.
        for (const sql::OperatorProfile& op : result.query.profile) {
          slow.peak_bytes += op.Counter("est_bytes");
        }
        slow.operators = CompressProfile(result.query.profile);
      }
    } else {
      slow.status = error;
    }
    registry.RecordSlowQuery(std::move(slow));
    GlobalLog().Log(LogLevel::kWarn, "server.session", "slow statement",
                    {{"session", id_},
                     {"statement_id", statement_id},
                     {"micros", exec_micros},
                     {"threshold", slow_query_micros_},
                     {"class", class_name}});
  }

  // Flight recorder: every statement, success and failure alike.
  FlightEvent event;
  event.statement_id = statement_id;
  event.statement = std::string(statement);
  event.statement_class = class_name;
  event.status = status.ok() ? "ok" : error;
  event.total_micros = total_micros;
  event.queue_wait_micros = result.queue_wait_micros;
  event.epoch_end = result.epoch_end;
  event.run_id = result.run_id;
  flight_recorder_.Record(std::move(event));

  if (!status.ok()) {
    errors->Increment();
    last_error_ = error;
    // Dump the lead-up with the failure (DESIGN.md §16): the ring shows
    // what this session ran before the statement that broke.
    if (GlobalLog().Enabled(LogLevel::kWarn)) {
      GlobalLog().Log(LogLevel::kWarn, "server.session", "statement failed",
                      {{"session", id_},
                       {"statement_id", statement_id},
                       {"error", error},
                       {"flight", flight_recorder_.DumpJson(id_)}});
    }
    return status;
  }
  last_error_.clear();
  return result;
}

Status Session::ExecuteMineRule(std::string_view statement,
                                int64_t statement_id, SessionResult* result) {
  static Counter* conflicts =
      GlobalMetrics().GetCounter("server.mine_rule_conflicts");
  SessionManager* manager = server_->session_manager();
  sql::StatementRegistry& registry = sql::GlobalStatementRegistry();
  Result<mr::MineRuleStatement> stmt = mr::ParseMineRule(statement);
  if (!stmt.ok()) {
    result->epoch_start = result->epoch_end = manager->epoch();
    registry.MarkExecuting(statement_id,
                           static_cast<int64_t>(result->epoch_start));
    // Parses again there, so the failure gets its one mr_runs row.
    return system_->ExecuteMineRule(statement, options_).status();
  }

  std::string fingerprint;
  {
    SessionManager::ReadPin pin(manager);
    result->epoch_start = pin.epoch();
    fingerprint = SnapshotSources(stmt->from);
  }
  registry.MarkExecuting(statement_id,
                         static_cast<int64_t>(result->epoch_start));

  // Mines with no latch held; the hook validates and installs.
  Result<mr::MiningRunStats> stats = system_->ExecuteStatement(
      *stmt, options_,
      [&](Result<mr::MiningRunStats>* run,
          const std::function<Result<mr::MiningRunStats>()>& rerun) {
        SessionManager::WriteLock lock(manager);
        result->epoch_end = manager->epoch();
        if (mr::SourceFingerprint(*server_->catalog(), stmt->from) !=
            fingerprint) {
          // A source changed after the pin (Kung & Robinson's validation
          // failed): mine again on the current state, holding the latch so
          // this second run cannot go stale.
          conflicts->Increment();
          DropSnapshots();
          SnapshotSources(stmt->from);
          *run = rerun();
        }
        if (run->ok()) {
          const Status installed = InstallOutput((*run)->output);
          if (installed.ok()) {
            result->epoch_end = lock.Commit();
          } else {
            *run = installed;
          }
        }
        DropSnapshots();
      });
  MR_RETURN_IF_ERROR(stats.status());
  result->run_id = stats->run_id;
  result->mining = std::move(*stats);
  return Status::OK();
}

std::string Session::SnapshotSources(const std::vector<sql::TableRef>& from) {
  Catalog* shared = server_->catalog();
  mr::VisitSourceRelations(
      *shared, from,
      [&](const std::string& name, const ViewDef* view,
          const std::shared_ptr<Table>& table) {
        scratch_.DropTableIfExists(name);
        scratch_.DropViewIfExists(name);
        if (view != nullptr) {
          (void)scratch_.CreateView(view->name, view->select_sql);
        } else if (table != nullptr) {
          snapshot_tables_.push_back(std::make_shared<Table>(*table));
          (void)scratch_.AddTable(snapshot_tables_.back());
        }
        snapshot_names_.push_back(name);
      });
  return mr::SourceFingerprint(*shared, from);
}

void Session::DropSnapshots() {
  for (const std::string& name : snapshot_names_) {
    scratch_.DropTableIfExists(name);
    scratch_.DropViewIfExists(name);
  }
  snapshot_names_.clear();
  snapshot_tables_.clear();
}

Status Session::InstallOutput(const mr::PostprocessResult& output) {
  std::vector<std::shared_ptr<Table>> tables;
  for (const std::string* name :
       {&output.rules_table, &output.bodies_table, &output.heads_table}) {
    MR_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                        scratch_.GetTable(*name));
    tables.push_back(std::move(table));
  }
  Catalog* shared = server_->catalog();
  for (std::shared_ptr<Table>& table : tables) {
    scratch_.DropTableIfExists(table->name());
    shared->DropTableIfExists(table->name());
    shared->DropViewIfExists(table->name());
    MR_RETURN_IF_ERROR(shared->AddTable(std::move(table)));
  }
  return Status::OK();
}

Status Session::ExecuteSql(std::string_view statement,
                           SessionResult* result) {
  // Plain SQL: apply the session's engine-level options, execute, and
  // append this statement's own mr_runs row.
  sql_.set_num_threads(options_.num_threads);
  if (options_.memory_limit != mr::MiningOptions::kMemoryLimitInherit) {
    sql_.set_memory_limit(options_.memory_limit);
  }

  Stopwatch watch;
  Result<sql::QueryResult> query = sql_.Execute(statement);

  sql::RunRecord run;
  run.statement = std::string(statement);
  run.threads = ResolveThreadCount(options_.num_threads);
  run.total_micros = watch.ElapsedMicros();
  run.session_id = id_;
  run.queue_wait_micros = result->queue_wait_micros;
  run.admission = result->queued ? "queued" : "immediate";
  if (query.ok()) {
    run.rules = query->rows.empty()
                    ? query->affected_rows
                    : static_cast<int64_t>(query->rows.size());
  } else {
    run.status = query.status().ToString();
  }
  result->run_id = sql::GlobalObservability().RecordRun(std::move(run));

  MR_RETURN_IF_ERROR(query.status());
  result->query = std::move(*query);
  return Status::OK();
}

}  // namespace minerule::server
