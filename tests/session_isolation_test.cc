// Session isolation (DESIGN.md §15): snapshot reads pin a stable catalog
// epoch while writers run, MINE RULE mines on a snapshot without blocking
// either, per-session options never leak across sessions, and one
// session's failure leaves the others untouched.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "datagen/paper_example.h"
#include "datagen/retail_gen.h"
#include "engine/data_mining_system.h"
#include "relational/catalog_io.h"
#include "server/server.h"
#include "server/session.h"
#include "sql/statement_registry.h"
#include "sql/system_tables.h"

namespace minerule {
namespace {

int64_t SingleInteger(const sql::QueryResult& result) {
  EXPECT_EQ(result.rows.size(), 1u);
  EXPECT_GE(result.rows[0].size(), 1u);
  return result.rows[0][0].AsInteger();
}

std::string DumpCatalog(const Catalog& catalog) {
  std::ostringstream out;
  Status status = SaveCatalog(catalog, out);
  EXPECT_TRUE(status.ok()) << status;
  return out.str();
}

// A reader's statement sees one catalog state, named by its pinned epoch:
// while a writer appends single rows (one epoch bump each), every read
// must observe epoch_start == epoch_end and a row count that equals
// exactly the number of write statements committed at its pinned epoch.
TEST(SessionIsolationTest, SnapshotReadsSeeStableEpoch) {
  Catalog catalog;
  server::Server server(&catalog);

  auto writer = server.Connect("writer");
  ASSERT_TRUE(writer->Execute("CREATE TABLE iso (x INTEGER)").ok());
  const uint64_t base_epoch = server.session_manager()->epoch();

  constexpr int kInserts = 200;
  std::thread writer_thread([&] {
    for (int i = 0; i < kInserts; ++i) {
      auto result =
          writer->Execute("INSERT INTO iso VALUES (" + std::to_string(i) + ")");
      ASSERT_TRUE(result.ok()) << result.status();
      // A write's commit is its own epoch bump, exactly one.
      EXPECT_EQ(result->epoch_end, result->epoch_start + 1);
    }
  });

  std::vector<std::thread> readers;
  std::atomic<int> snapshot_reads{0};
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      auto session = server.Connect();
      while (snapshot_reads.load(std::memory_order_relaxed) < 50) {
        auto result = session->Execute("SELECT COUNT(*) FROM iso");
        ASSERT_TRUE(result.ok()) << result.status();
        // The pin: no writer interleaved with this statement.
        EXPECT_EQ(result->epoch_start, result->epoch_end);
        // The snapshot: the count is exactly the writes committed at the
        // pinned epoch (each bump past base_epoch appended one row).
        EXPECT_EQ(static_cast<uint64_t>(SingleInteger(result->query)),
                  result->epoch_start - base_epoch);
        snapshot_reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  writer_thread.join();
  for (std::thread& t : readers) t.join();

  auto final_count = writer->Execute("SELECT COUNT(*) FROM iso");
  ASSERT_TRUE(final_count.ok());
  EXPECT_EQ(SingleInteger(final_count->query), kInserts);
  EXPECT_GE(snapshot_reads.load(), 50);
}

// The paper example's follow-up statement (an expensive purchase, then a
// cheap one on a later day) over a retail table large enough that mining
// takes far longer than a handful of small statements.
constexpr char kFollowUps[] =
    "MINE RULE FollowUps AS SELECT DISTINCT 1..2 item AS BODY, 1..1 item AS "
    "HEAD, SUPPORT, CONFIDENCE WHERE BODY.price >= 100 AND HEAD.price < 100 "
    "FROM Purchase GROUP BY customer CLUSTER BY date HAVING BODY.date < "
    "HEAD.date EXTRACTING RULES WITH SUPPORT: 0.03, CONFIDENCE: 0.2";

void MakeRetail(Catalog* catalog) {
  datagen::RetailParams params;
  params.num_customers = 1500;
  auto table = datagen::GenerateRetailTable(catalog, "Purchase", params);
  ASSERT_TRUE(table.ok()) << table.status();
}

std::string DumpRuleTables(const Catalog& catalog, const std::string& out) {
  std::string dump;
  for (const std::string& name : {out, out + "_Bodies", out + "_Heads"}) {
    auto table = catalog.GetTable(name);
    if (!table.ok()) return name + " missing";
    dump += "== " + name + "\n" + (*table)->ToDisplayString(1u << 20);
  }
  return dump;
}

/// The rule tables a single-session library run produces on the retail
/// data, after `setup_sql` (when non-empty).
std::string SerialRules(const std::string& setup_sql) {
  Catalog catalog;
  MakeRetail(&catalog);
  mr::DataMiningSystem serial(&catalog);
  if (!setup_sql.empty()) {
    EXPECT_TRUE(serial.ExecuteSql(setup_sql).ok());
  }
  mr::MiningOptions options;
  options.keep_encoded_tables = false;
  auto stats = serial.ExecuteMineRule(kFollowUps, options);
  EXPECT_TRUE(stats.ok()) << stats.status();
  return DumpRuleTables(catalog, "FollowUps");
}

/// Blocks until `session`'s statement is executing, i.e. its MINE RULE has
/// taken its snapshot and released the pin. False if it finished first.
bool AwaitExecuting(const server::Session& session,
                    const std::atomic<bool>& finished) {
  while (!finished.load()) {
    for (const sql::ActiveStatementSnapshot& active :
         sql::GlobalStatementRegistry().ActiveStatements()) {
      if (active.session_id == session.id() &&
          active.state == sql::StatementState::kExecuting) {
        return true;
      }
    }
    std::this_thread::yield();
  }
  return false;
}

// MINE RULE holds no catalog latch while it mines: while one session's
// run is executing, another session's reads and INSERTs all complete. The
// run still mines exactly the serial run's rules, and installs after those
// INSERTs committed.
TEST(SessionIsolationTest, MineRuleDoesNotBlockReadsAndWrites) {
  Catalog catalog;
  MakeRetail(&catalog);
  server::Server server(&catalog);
  auto miner = server.Connect("miner");
  auto other = server.Connect("other");
  ASSERT_TRUE(other->Execute("CREATE TABLE side (x INTEGER)").ok());

  std::atomic<bool> finished{false};
  Result<server::SessionResult> mined = Status::Internal("not run");
  std::thread mining([&] {
    mined = miner->Execute(kFollowUps);
    finished.store(true);
  });
  const bool executing = AwaitExecuting(*miner, finished);

  uint64_t first_insert_start = 0;
  uint64_t last_insert_end = 0;
  for (int i = 0; i < 5 && executing; ++i) {
    // EXPECT, not ASSERT: returning here would leave `mining` unjoined.
    auto read = other->Execute("SELECT COUNT(*) FROM Purchase");
    EXPECT_TRUE(read.ok()) << read.status();
    auto insert =
        other->Execute("INSERT INTO side VALUES (" + std::to_string(i) + ")");
    EXPECT_TRUE(insert.ok()) << insert.status();
    if (!read.ok() || !insert.ok()) break;
    if (i == 0) first_insert_start = insert->epoch_start;
    last_insert_end = insert->epoch_end;
  }
  const bool side_work_finished_first = !finished.load();
  mining.join();

  ASSERT_TRUE(executing) << "the MINE RULE finished before it was observed";
  EXPECT_TRUE(side_work_finished_first)
      << "reads and INSERTs waited for the MINE RULE";
  ASSERT_TRUE(mined.ok()) << mined.status();
  // Pinned before the INSERTs, installed after them.
  EXPECT_LE(mined->epoch_start, first_insert_start);
  EXPECT_GT(mined->epoch_end, last_insert_end);
  EXPECT_EQ(DumpRuleTables(catalog, "FollowUps"), SerialRules(""));
}

// An INSERT into the source while a MINE RULE mines invalidates its
// snapshot: the install fails validation and the run mines again on the
// current data, so its rules are the serial run's on the post-INSERT data
// (a new customer is a new group, so every SUPPORT changes). Still one
// mr_runs row for the statement.
TEST(SessionIsolationTest, SourceWriteDuringMiningForcesReMine) {
  const std::string insert =
      "INSERT INTO Purchase VALUES (999999, 'new_customer', 'item1', "
      "DATE '1995-01-02', 150.0, 1)";
  Catalog catalog;
  MakeRetail(&catalog);
  server::Server server(&catalog);
  auto miner = server.Connect("miner");
  auto writer = server.Connect("writer");
  Counter* conflicts =
      GlobalMetrics().GetCounter("server.mine_rule_conflicts");
  const int64_t conflicts_before = conflicts->Value();
  const int64_t runs_before = sql::GlobalObservability().run_count();

  std::atomic<bool> finished{false};
  Result<server::SessionResult> mined = Status::Internal("not run");
  std::thread mining([&] {
    mined = miner->Execute(kFollowUps);
    finished.store(true);
  });
  const bool executing = AwaitExecuting(*miner, finished);
  auto inserted = writer->Execute(insert);
  mining.join();

  ASSERT_TRUE(executing) << "the MINE RULE finished before it was observed";
  ASSERT_TRUE(inserted.ok()) << inserted.status();
  ASSERT_TRUE(mined.ok()) << mined.status();
  // The rules are those of a serial run at the install epoch; the INSERT
  // landed while the run mined, so that is the post-INSERT data.
  ASSERT_GT(mined->epoch_end, inserted->epoch_end);
  EXPECT_LT(mined->epoch_start, inserted->epoch_end);
  EXPECT_EQ(conflicts->Value() - conflicts_before, 1);
  EXPECT_EQ(sql::GlobalObservability().run_count() - runs_before, 2);
  EXPECT_EQ(DumpRuleTables(catalog, "FollowUps"), SerialRules(insert));
}

// The install replaces a same-named view or table in the shared catalog,
// as the postprocessor does in a library run, even the run's own source
// (it mined a snapshot of it).
TEST(SessionIsolationTest, InstallReplacesSameNamedRelations) {
  auto statement = [](const std::string& out) {
    return "MINE RULE " + out +
           " AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, "
           "SUPPORT, CONFIDENCE FROM Purchase GROUP BY customer EXTRACTING "
           "RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1";
  };
  Catalog catalog;
  ASSERT_TRUE(datagen::MakePaperPurchaseTable(&catalog).ok());
  server::Server server(&catalog);
  auto session = server.Connect();
  ASSERT_TRUE(session->Execute("CREATE VIEW Rules AS SELECT * FROM Purchase")
                  .ok());
  auto into_view = session->Execute(statement("Rules"));
  ASSERT_TRUE(into_view.ok()) << into_view.status();
  EXPECT_FALSE(catalog.HasView("Rules"));
  EXPECT_TRUE(catalog.HasTable("Rules"));
  auto into_source = session->Execute(statement("Purchase"));
  ASSERT_TRUE(into_source.ok()) << into_source.status();

  Catalog serial_catalog;
  ASSERT_TRUE(datagen::MakePaperPurchaseTable(&serial_catalog).ok());
  mr::DataMiningSystem serial(&serial_catalog);
  ASSERT_TRUE(serial.ExecuteMineRule(statement("Purchase")).ok());
  EXPECT_EQ(DumpRuleTables(catalog, "Purchase"),
            DumpRuleTables(serial_catalog, "Purchase"));
  EXPECT_EQ(into_view->mining.output.num_rules,
            into_source->mining.output.num_rules);
}

// Waiting for the mining lane is queue wait: it shows in the session
// result and in the statement's mr_runs row.
TEST(SessionIsolationTest, MiningLaneWaitCountsAsQueueWait) {
  Catalog catalog;
  ASSERT_TRUE(datagen::MakePaperPurchaseTable(&catalog).ok());
  server::Server server(&catalog);
  auto session = server.Connect("waiter");

  Result<server::SessionResult> mined = Status::Internal("not run");
  std::thread mining;
  {
    // Hold the lane, as another session's run would.
    server::SessionManager::MiningLane lane(server.session_manager());
    mining = std::thread([&] {
      mined = session->Execute(
          "MINE RULE waited AS SELECT DISTINCT 1..n item AS BODY, 1..1 item "
          "AS HEAD, SUPPORT, CONFIDENCE FROM Purchase GROUP BY customer "
          "EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1");
    });
    // Queued (not yet admitted) until the lane is released.
    bool queued = false;
    while (!queued) {
      for (const sql::ActiveStatementSnapshot& active :
           sql::GlobalStatementRegistry().ActiveStatements()) {
        queued |= active.session_id == session->id() &&
                  active.state == sql::StatementState::kQueued;
      }
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  mining.join();

  ASSERT_TRUE(mined.ok()) << mined.status();
  EXPECT_TRUE(mined->queued);
  EXPECT_GE(mined->queue_wait_micros, 20000);
  bool found = false;
  for (const sql::RunRecord& run : sql::GlobalObservability().Runs()) {
    if (run.run_id != mined->run_id) continue;
    found = true;
    EXPECT_EQ(run.admission, "queued");
    EXPECT_EQ(run.queue_wait_micros, mined->queue_wait_micros);
  }
  EXPECT_TRUE(found);
}

// Options are per-session state: mutating one session's copy must never
// show through another's, and the seeded defaults come from the server.
TEST(SessionIsolationTest, OptionsDoNotLeakAcrossSessions) {
  Catalog catalog;
  ASSERT_TRUE(datagen::MakePaperPurchaseTable(&catalog).ok());
  server::Server server(&catalog);

  auto tuned = server.Connect("tuned");
  auto vanilla = server.Connect("vanilla");

  const mr::MiningOptions before = *vanilla->options();
  tuned->options()->reuse_preprocessing = true;
  tuned->options()->keep_encoded_tables = !before.keep_encoded_tables;
  tuned->options()->num_threads = 1;
  tuned->options()->memory_limit = 256 * 1024;

  EXPECT_EQ(vanilla->options()->reuse_preprocessing,
            before.reuse_preprocessing);
  EXPECT_EQ(vanilla->options()->keep_encoded_tables,
            before.keep_encoded_tables);
  EXPECT_EQ(vanilla->options()->num_threads, before.num_threads);
  EXPECT_EQ(vanilla->options()->memory_limit, before.memory_limit);

  // Both execute with their own settings; results agree (the knobs change
  // the execution strategy, never the answer).
  const std::string query =
      "SELECT customer, COUNT(*) FROM Purchase GROUP BY customer "
      "ORDER BY customer";
  auto tuned_result = tuned->Execute(query);
  auto vanilla_result = vanilla->Execute(query);
  ASSERT_TRUE(tuned_result.ok()) << tuned_result.status();
  ASSERT_TRUE(vanilla_result.ok()) << vanilla_result.status();
  ASSERT_EQ(tuned_result->query.rows.size(), vanilla_result->query.rows.size());
  for (size_t r = 0; r < tuned_result->query.rows.size(); ++r) {
    for (size_t c = 0; c < tuned_result->query.rows[r].size(); ++c) {
      EXPECT_EQ(tuned_result->query.rows[r][c].ToString(),
                vanilla_result->query.rows[r][c].ToString());
    }
  }

  // Server sessions always drop encoded scratch tables (forced default).
  EXPECT_FALSE(server.options().session_defaults.keep_encoded_tables);
  EXPECT_FALSE(vanilla->options()->keep_encoded_tables);
}

// A failing statement is contained: its session reports the error, other
// sessions' state and the catalog are untouched, and concurrent work
// proceeds.
TEST(SessionIsolationTest, FailedRunLeavesOthersUnaffected) {
  Catalog catalog;
  ASSERT_TRUE(datagen::MakePaperPurchaseTable(&catalog).ok());
  server::Server server(&catalog);

  auto healthy = server.Connect("healthy");
  auto failing = server.Connect("failing");

  ASSERT_TRUE(healthy
                  ->Execute("MINE RULE ok_rules AS SELECT DISTINCT 1..n item "
                            "AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE "
                            "FROM Purchase GROUP BY customer EXTRACTING RULES "
                            "WITH SUPPORT: 0.1, CONFIDENCE: 0.1")
                  .ok());
  const std::string before = DumpCatalog(catalog);
  const int64_t runs_before = sql::GlobalObservability().run_count();

  // Three distinct failures: SQL error, MINE RULE parse error, MINE RULE
  // over a missing table.
  EXPECT_FALSE(failing->Execute("SELECT x FROM does_not_exist").ok());
  EXPECT_FALSE(failing->Execute("MINE RULE nope AS SELECT").ok());
  EXPECT_FALSE(failing
                   ->Execute("MINE RULE nope AS SELECT DISTINCT 1..n item AS "
                             "BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE "
                             "FROM missing_table GROUP BY customer EXTRACTING "
                             "RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1")
                   .ok());
  EXPECT_FALSE(failing->last_error().empty());

  // Each failure still appended its mr_runs row, attributed to the session.
  EXPECT_EQ(sql::GlobalObservability().run_count(), runs_before + 3);

  // The healthy session never saw an error and still executes fine.
  EXPECT_TRUE(healthy->last_error().empty());
  auto again = healthy->Execute("SELECT COUNT(*) FROM ok_rules");
  ASSERT_TRUE(again.ok()) << again.status();

  // And the catalog is byte-identical to before the failures.
  EXPECT_EQ(DumpCatalog(catalog), before);
}

// Statement classification drives the latch choice; pin the read/write
// split because misclassifying a write as a read would break snapshots.
TEST(SessionIsolationTest, StatementClassification) {
  using server::ClassifyStatement;
  using server::StatementClass;
  EXPECT_EQ(ClassifyStatement("SELECT * FROM t"), StatementClass::kRead);
  EXPECT_EQ(ClassifyStatement("  explain SELECT 1"), StatementClass::kRead);
  EXPECT_EQ(ClassifyStatement("ANALYZE t"), StatementClass::kRead);
  EXPECT_EQ(ClassifyStatement("INSERT INTO t VALUES (1)"),
            StatementClass::kWrite);
  EXPECT_EQ(ClassifyStatement("CREATE TABLE t (x INTEGER)"),
            StatementClass::kWrite);
  EXPECT_EQ(ClassifyStatement("DROP TABLE t"), StatementClass::kWrite);
  EXPECT_EQ(ClassifyStatement("MINE RULE r AS SELECT"),
            StatementClass::kMineRule);
  // NEXTVAL advances a shared sequence even inside a SELECT.
  EXPECT_EQ(ClassifyStatement("SELECT NEXTVAL('s')"), StatementClass::kWrite);
  EXPECT_EQ(ClassifyStatement("select nextval('s'), 1"),
            StatementClass::kWrite);
}

// Session ids are dense and the gauge-backed bookkeeping survives
// concurrent connect/close churn.
TEST(SessionIsolationTest, SessionLifecycleBookkeeping) {
  Catalog catalog;
  server::Server server(&catalog);
  const int64_t opened_before = server.sessions_opened();

  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10; ++i) {
        auto session = server.Connect();
        EXPECT_GT(session->id(), 0);
        EXPECT_FALSE(session->name().empty());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(server.sessions_opened() - opened_before, 80);
}

}  // namespace
}  // namespace minerule
