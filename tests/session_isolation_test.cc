// Session isolation (DESIGN.md §15): snapshot reads pin a stable catalog
// epoch while writers run, per-session options never leak across sessions,
// and one session's failure leaves the others untouched.

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "datagen/paper_example.h"
#include "relational/catalog_io.h"
#include "server/server.h"
#include "server/session.h"
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
  tuned->options()->cost_based_sql = true;
  tuned->options()->num_threads = 1;
  tuned->options()->memory_limit = 256 * 1024;

  EXPECT_EQ(vanilla->options()->reuse_preprocessing,
            before.reuse_preprocessing);
  EXPECT_EQ(vanilla->options()->cost_based_sql, before.cost_based_sql);
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
