// Substrate benchmark: the embedded SQL engine's primitive operations —
// the building blocks every generated Q0..Q11 program decomposes into.
// The architecture assumes these are "effectively and efficiently evaluated
// by the SQL server itself" (§3); this binary quantifies that for our
// server. Benchmark arg 1 selects the execution path (DESIGN.md §12): 1 is
// the default batch path over the scans' columnar images (no memory
// budget), 0 the row path that an explicit, never-spilling memory budget
// selects, where the same TableScan and Filter run on rows.
//
//   bench_sql_engine                # full Google-benchmark sweep
//   bench_sql_engine --smoke        # CI gate: columnar vs row differential
//                                   # + scan/filter timing check, JSON
//                                   # report, "SMOKE OK"
//   bench_sql_engine --plan-smoke   # CI gate: plans from statistics after
//                                   # ANALYZE (DESIGN.md §14) vs FROM-order
//                                   # plans on skewed retail data, JSON
//                                   # report, "PLAN SMOKE OK"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/random.h"
#include "datagen/retail_gen.h"
#include "relational/catalog.h"
#include "sql/engine.h"
#include "sql/parser.h"

namespace {

using namespace minerule;

/// A memory budget no working set reaches: nothing spills, the scans never
/// build their columnar images, and a serial plan runs on rows.
constexpr int64_t kRowPathBudget = std::numeric_limits<int64_t>::max();

/// Selects the columnar (default, unbudgeted) or the row path. Both
/// sides set the budget explicitly, so MINERULE_MEMORY_LIMIT in the
/// environment never changes what is compared.
void SelectScanPath(sql::SqlEngine* engine, bool columnar) {
  engine->set_memory_limit(columnar ? -1 : kRowPathBudget);
}

void FillTables(Catalog* catalog, int64_t rows) {
  Random rng(77);
  {
    auto table = catalog->CreateTable(
        "facts", Schema({{"id", DataType::kInteger},
                         {"grp", DataType::kInteger},
                         {"val", DataType::kDouble},
                         {"tag", DataType::kString}}));
    for (int64_t i = 0; i < rows; ++i) {
      table.value()->AppendUnchecked(
          {Value::Integer(i), Value::Integer(static_cast<int64_t>(
                                  rng.NextBounded(rows / 10 + 1))),
           Value::Double(rng.NextDouble() * 100),
           Value::String("tag" + std::to_string(rng.NextBounded(50)))});
    }
  }
  {
    auto table = catalog->CreateTable(
        "dims", Schema({{"grp", DataType::kInteger},
                        {"name", DataType::kString}}));
    for (int64_t g = 0; g <= rows / 10; ++g) {
      table.value()->AppendUnchecked(
          {Value::Integer(g), Value::String("g" + std::to_string(g))});
    }
  }
}

class EngineFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State& state) override {
    catalog_ = std::make_unique<Catalog>();
    engine_ = std::make_unique<sql::SqlEngine>(catalog_.get());
    SelectScanPath(engine_.get(), state.range(1) == 1);
    FillTables(catalog_.get(), state.range(0));
  }
  void TearDown(const benchmark::State&) override {
    engine_.reset();
    catalog_.reset();
  }

 protected:
  void Run(benchmark::State& state, const std::string& sql) {
    int64_t rows = 0;
    for (auto _ : state) {
      auto result = engine_->Execute(sql);
      if (!result.ok()) {
        state.SkipWithError(result.status().ToString().c_str());
        return;
      }
      rows = static_cast<int64_t>(result.value().rows.size());
    }
    state.counters["out_rows"] = static_cast<double>(rows);
    state.SetItemsProcessed(state.iterations() * state.range(0));
  }

  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<sql::SqlEngine> engine_;
};

// {rows} x {row scan path, columnar scan path}.
const std::vector<std::vector<int64_t>> kRowsByEngine = {{10000, 100000},
                                                         {0, 1}};
// Shapes dominated by an operator the scan path does not change: default
// (columnar) engine only.
const std::vector<std::vector<int64_t>> kRowsDefaultOnly = {{10000, 100000},
                                                            {1}};

BENCHMARK_DEFINE_F(EngineFixture, Scan)(benchmark::State& state) {
  Run(state, "SELECT id, val FROM facts");
}
BENCHMARK_REGISTER_F(EngineFixture, Scan)
    ->ArgsProduct(kRowsByEngine)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_DEFINE_F(EngineFixture, Filter)(benchmark::State& state) {
  Run(state, "SELECT id FROM facts WHERE val > 90.0");
}
BENCHMARK_REGISTER_F(EngineFixture, Filter)
    ->ArgsProduct(kRowsByEngine)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_DEFINE_F(EngineFixture, HashJoin)(benchmark::State& state) {
  Run(state,
      "SELECT f.id, d.name FROM facts f, dims d WHERE f.grp = d.grp");
}
BENCHMARK_REGISTER_F(EngineFixture, HashJoin)
    ->ArgsProduct(kRowsByEngine)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_DEFINE_F(EngineFixture, GroupByAggregate)(benchmark::State& state) {
  Run(state,
      "SELECT grp, COUNT(*), SUM(val) FROM facts GROUP BY grp "
      "HAVING COUNT(*) > 5");
}
BENCHMARK_REGISTER_F(EngineFixture, GroupByAggregate)
    ->ArgsProduct(kRowsByEngine)
    ->Unit(benchmark::kMillisecond);

// The Q-pool shape: int-keyed join feeding an int-keyed aggregation, the
// skeleton of the preprocessor's Q4/Q7-style programs.
BENCHMARK_DEFINE_F(EngineFixture, JoinThenGroupBy)(benchmark::State& state) {
  Run(state,
      "SELECT d.grp, COUNT(*), SUM(f.val) FROM facts f, dims d "
      "WHERE f.grp = d.grp GROUP BY d.grp");
}
BENCHMARK_REGISTER_F(EngineFixture, JoinThenGroupBy)
    ->ArgsProduct(kRowsByEngine)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_DEFINE_F(EngineFixture, CountDistinct)(benchmark::State& state) {
  Run(state, "SELECT COUNT(DISTINCT grp) FROM facts");
}
BENCHMARK_REGISTER_F(EngineFixture, CountDistinct)
    ->ArgsProduct(kRowsDefaultOnly)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_DEFINE_F(EngineFixture, Distinct)(benchmark::State& state) {
  Run(state, "SELECT DISTINCT tag FROM facts");
}
BENCHMARK_REGISTER_F(EngineFixture, Distinct)
    ->ArgsProduct(kRowsDefaultOnly)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_DEFINE_F(EngineFixture, Sort)(benchmark::State& state) {
  Run(state, "SELECT id FROM facts ORDER BY val DESC LIMIT 100");
}
BENCHMARK_REGISTER_F(EngineFixture, Sort)
    ->ArgsProduct(kRowsDefaultOnly)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_DEFINE_F(EngineFixture, InsertSelect)(benchmark::State& state) {
  (void)engine_->Execute("CREATE TABLE sink (id INTEGER, val DOUBLE)");
  int64_t inserted = 0;
  for (auto _ : state) {
    (void)engine_->Execute("DELETE FROM sink");
    auto result = engine_->Execute(
        "INSERT INTO sink (SELECT id, val FROM facts WHERE val > 50.0)");
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    inserted = result.value().affected_rows;
  }
  state.counters["inserted"] = static_cast<double>(inserted);
}
BENCHMARK_REGISTER_F(EngineFixture, InsertSelect)
    ->ArgsProduct(kRowsDefaultOnly)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Skewed-join axis (EXPERIMENTS.md): facts.grp drawn uniform or Zipf(1.0)
// over the dim keys, with the small dim FIRST in the FROM list — the order a
// naive statement writer produces and the worst case for the FROM-order
// plan, which always builds the hash table over the right (big) input.
// Arg 2 picks the engine: 1 runs one that ANALYZEd the tables and so plans
// from statistics (DESIGN.md §14), 0 a second engine over the same catalog
// that never analyzed them. The {uniform, zipf} x {FROM order, analyzed}
// grid quantifies what the build-side choice buys as skew grows.

void FillSkewTables(Catalog* catalog, int64_t rows, bool zipf) {
  const int64_t groups = rows / 100 + 1;
  std::vector<double> cdf;
  if (zipf) {
    cdf.resize(static_cast<size_t>(groups));
    double total = 0;
    for (int64_t g = 0; g < groups; ++g) {
      total += 1.0 / static_cast<double>(g + 1);
      cdf[static_cast<size_t>(g)] = total;
    }
    for (double& c : cdf) c /= total;
  }
  Random rng(77);
  auto facts = catalog->CreateTable(
      "facts", Schema({{"id", DataType::kInteger},
                       {"grp", DataType::kInteger},
                       {"val", DataType::kDouble}}));
  for (int64_t i = 0; i < rows; ++i) {
    int64_t g;
    if (zipf) {
      const double u = rng.NextDouble();
      g = static_cast<int64_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    } else {
      g = static_cast<int64_t>(rng.NextBounded(groups));
    }
    facts.value()->AppendUnchecked({Value::Integer(i), Value::Integer(g),
                                    Value::Double(rng.NextDouble() * 100)});
  }
  auto dims = catalog->CreateTable(
      "dims", Schema({{"grp", DataType::kInteger},
                      {"name", DataType::kString}}));
  for (int64_t g = 0; g < groups; ++g) {
    dims.value()->AppendUnchecked(
        {Value::Integer(g), Value::String("g" + std::to_string(g))});
  }
}

class SkewFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State& state) override {
    catalog_ = std::make_unique<Catalog>();
    engine_ = std::make_unique<sql::SqlEngine>(catalog_.get());
    FillSkewTables(catalog_.get(), state.range(0), state.range(1) == 1);
  }
  void TearDown(const benchmark::State&) override {
    engine_.reset();
    catalog_.reset();
  }

 protected:
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<sql::SqlEngine> engine_;
};

BENCHMARK_DEFINE_F(SkewFixture, SmallDimFirstJoin)(benchmark::State& state) {
  const std::string sql =
      "SELECT d.name, f.val FROM dims d, facts f WHERE d.grp = f.grp";
  int64_t rows = 0;
  for (auto _ : state) {
    auto result = engine_->Execute(sql);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    rows = static_cast<int64_t>(result.value().rows.size());
  }
  state.counters["out_rows"] = static_cast<double>(rows);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
// {rows} x {uniform, zipf}.
BENCHMARK_REGISTER_F(SkewFixture, SmallDimFirstJoin)
    ->ArgsProduct({{100000}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_ParseOnly(benchmark::State& state) {
  const char* sql =
      "SELECT DISTINCT V.Gid, B.Bid FROM Source AS S, ValidGroups AS V, "
      "Bset AS B WHERE S.customer = V.customer AND S.item = B.item";
  for (auto _ : state) {
    auto tokens = sql::ParseSqlScript(sql);
    benchmark::DoNotOptimize(tokens.ok());
  }
}
BENCHMARK(BM_ParseOnly);

// ---------------------------------------------------------------------------
// --smoke: the CI gate (DESIGN.md §12). Runs the int-keyed hot paths on the
// default batch path (no memory budget) and on the row path (selected by a
// never-spilling budget), requires byte-identical results on every query —
// the batch side at 1 and at 8 threads — and requires the batch path to be
// no slower than the row path on the checked scan/filter shapes (small
// tolerance for shared-runner noise) with a real improvement on at least
// one of them. The join, DISTINCT, projection and group shapes run the
// batch operators on one side and the row operators on the other, so their
// identity checks compare two implementations; they are not timed gates.
// Prints one JSON object per query and a final SMOKE OK / SMOKE FAIL.

struct SmokeQuery {
  const char* name;
  const char* sql;
  bool checked;  // participates in the timing gate
};

std::string RenderResult(const sql::QueryResult& result) {
  std::string out;
  for (const Row& row : result.rows) {
    for (const Value& v : row) {
      out += v.ToString();
      out += '|';
    }
    out += '\n';
  }
  return out;
}

int RunSmoke() {
  constexpr int64_t kRows = 20000;
  constexpr int kReps = 5;
  constexpr double kTolerance = 1.10;
  Catalog catalog;
  sql::SqlEngine engine(&catalog);
  FillTables(&catalog, kRows);

  const SmokeQuery queries[] = {
      {"filter_double", "SELECT id FROM facts WHERE val > 90.0", true},
      {"filter_int", "SELECT id FROM facts WHERE grp >= 1000", true},
      {"hash_join_int", "SELECT f.id, d.name FROM facts f, dims d "
                        "WHERE f.grp = d.grp", false},
      {"group_by_int", "SELECT grp, COUNT(*), SUM(val), MIN(val), MAX(val) "
                       "FROM facts GROUP BY grp", false},
      {"join_then_group", "SELECT d.grp, COUNT(*), SUM(f.val) FROM facts f, "
                          "dims d WHERE f.grp = d.grp GROUP BY d.grp", false},
      {"distinct_int", "SELECT DISTINCT grp FROM facts", false},
      {"project_expr", "SELECT id * 2 + grp, val / 2 FROM facts "
                       "WHERE grp < 500", false},
  };

  bool ok = true;
  int improved = 0;
  std::printf("[\n");
  for (size_t qi = 0; qi < sizeof(queries) / sizeof(queries[0]); ++qi) {
    const SmokeQuery& q = queries[qi];
    double best_ms[2] = {1e300, 1e300};
    std::string dump[2];
    for (int vec = 0; vec < 2; ++vec) {
      SelectScanPath(&engine, vec == 1);
      for (int rep = 0; rep < kReps; ++rep) {
        auto start = std::chrono::steady_clock::now();
        auto result = engine.Execute(q.sql);
        auto stop = std::chrono::steady_clock::now();
        if (!result.ok()) {
          std::printf("]\nSMOKE FAIL %s (%s): %s\n", q.name,
                      vec ? "columnar" : "row",
                      result.status().ToString().c_str());
          return 1;
        }
        double ms = std::chrono::duration<double, std::milli>(stop - start)
                        .count();
        if (ms < best_ms[vec]) best_ms[vec] = ms;
        if (rep == 0) dump[vec] = RenderResult(result.value());
      }
    }
    if (dump[0] != dump[1]) {
      std::printf("]\nSMOKE FAIL %s: columnar result differs from row\n",
                  q.name);
      return 1;
    }
    // The batch side again with parallel morsels: the same bytes.
    SelectScanPath(&engine, true);
    engine.set_num_threads(8);
    auto parallel = engine.Execute(q.sql);
    engine.set_num_threads(1);
    if (!parallel.ok() || RenderResult(parallel.value()) != dump[0]) {
      std::printf("]\nSMOKE FAIL %s: result at 8 threads differs from row\n",
                  q.name);
      return 1;
    }
    const double speedup = best_ms[0] / best_ms[1];
    const bool pass = !q.checked || best_ms[1] <= best_ms[0] * kTolerance;
    std::printf("  {\"query\": \"%s\", \"row_ms\": %.3f, \"vec_ms\": %.3f, "
                "\"speedup\": %.2f, \"checked\": %s, \"pass\": %s}%s\n",
                q.name, best_ms[0], best_ms[1], speedup,
                q.checked ? "true" : "false", pass ? "true" : "false",
                qi + 1 < sizeof(queries) / sizeof(queries[0]) ? "," : "");
    if (!pass) ok = false;
    if (q.checked && speedup > 1.0) ++improved;
  }
  std::printf("]\n");
  if (ok && improved == 0) {
    std::printf("SMOKE FAIL: no checked query improved over the row path\n");
    return 1;
  }
  if (!ok) {
    std::printf("SMOKE FAIL: columnar scan/filter slower than row path\n");
    return 1;
  }
  std::printf("SMOKE OK\n");
  return 0;
}

// ---------------------------------------------------------------------------
// --plan-smoke: the planning CI gate (DESIGN.md §14). SQL planning on
// skewed retail data: every query runs on an engine that ANALYZEd the
// tables, and so plans from statistics, and on a second engine over the
// same catalog that never analyzed them, and so keeps FROM-order plans;
// results must be byte-identical, the analyzed plan must never be > 5%
// slower, and the `checked` shape (join reorder) must improve by >= 1.15x.
// Sides are compared through TimePairs below.
// Emits one validated JSON report and PLAN SMOKE OK / PLAN SMOKE FAIL.

struct PlanQuery {
  const char* name;
  const char* sql;
  bool checked;  // expected to improve when planned from statistics
};

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : (samples[mid - 1] + samples[mid]) / 2;
}

struct PairedTiming {
  double median_ms[2] = {0, 0};
  double speedup = 0;  // median over pairs of side 0 ms / side 1 ms
};

// Times side 0 against side 1 in interleaved pairs, alternating which side
// runs first so both see the same allocator and cache state. Pairs repeat
// until at least kMinPairs ran and kBudgetMs passed, so a shape of a few
// milliseconds gets dozens of samples where one-shot timings are noisier
// than the 5% gate. The speedup is the median of the per-pair ratios: the
// two runs of a pair share the host's state of the moment, so drift
// cancels, and no single slow run decides a comparison. `run` returns false
// on a failure it has reported.
bool TimePairs(const std::function<bool(int side)>& run, PairedTiming* out) {
  constexpr int kMinPairs = 5;
  constexpr int kMaxPairs = 401;
  constexpr double kBudgetMs = 1500;
  using Clock = std::chrono::steady_clock;
  auto elapsed_ms = [](Clock::time_point since) {
    return std::chrono::duration<double, std::milli>(Clock::now() - since)
        .count();
  };
  std::vector<double> ms[2];
  std::vector<double> ratios;
  const Clock::time_point begin = Clock::now();
  for (int pair = 0; pair < kMaxPairs; ++pair) {
    for (int pos = 0; pos < 2; ++pos) {
      const int side = (pos + pair) % 2;
      const Clock::time_point start = Clock::now();
      if (!run(side)) return false;
      ms[side].push_back(elapsed_ms(start));
    }
    ratios.push_back(ms[0].back() / ms[1].back());
    if (pair + 1 >= kMinPairs && elapsed_ms(begin) >= kBudgetMs) break;
  }
  out->median_ms[0] = Median(ms[0]);
  out->median_ms[1] = Median(ms[1]);
  out->speedup = Median(ratios);
  return true;
}

int RunPlanSmoke() {
  constexpr double kSlowdownTolerance = 1.05;
  constexpr double kRequiredSpeedup = 1.15;

  Catalog catalog;
  sql::SqlEngine analyzed(&catalog);
  sql::SqlEngine plain(&catalog);

  // Skewed retail data: ~90k purchases over ~200 items, so the purchase
  // table fans out ~450:1 against the per-item dim tables built below.
  datagen::RetailParams rp;
  rp.num_customers = 3000;
  rp.num_items = 200;
  rp.visits_per_customer = 6;
  rp.items_per_visit = 5;
  auto purchase = datagen::GenerateRetailTable(&catalog, "purchase", rp);
  if (!purchase.ok()) {
    std::fprintf(stderr, "retail gen: %s\n",
                 purchase.status().ToString().c_str());
    return 1;
  }
  {
    // product: one row per item; promo: three rows per item. Built from the
    // generated item universe so the join keys actually match.
    auto items = plain.Execute("SELECT DISTINCT item FROM purchase");
    if (!items.ok()) {
      std::fprintf(stderr, "item scan: %s\n",
                   items.status().ToString().c_str());
      return 1;
    }
    auto product = catalog.CreateTable(
        "product", Schema({{"item", DataType::kString},
                           {"pid", DataType::kInteger}}));
    // returns / restock: ~2000 rows each, joined to each other only through
    // product — the shape where FROM order decides between a 4M-row cross
    // product and a 20k-row chain.
    auto returns = catalog.CreateTable(
        "returns", Schema({{"item", DataType::kString},
                           {"qty", DataType::kInteger}}));
    auto restock = catalog.CreateTable(
        "restock", Schema({{"item", DataType::kString},
                           {"qty", DataType::kInteger}}));
    const int64_t num_items =
        static_cast<int64_t>(items.value().rows.size());
    int64_t id = 0;
    for (const Row& row : items.value().rows) {
      product.value()->AppendUnchecked({row[0], Value::Integer(id)});
      ++id;
    }
    for (int64_t i = 0; i < 10 * num_items; ++i) {
      const Row& row = items.value().rows[static_cast<size_t>(i % num_items)];
      returns.value()->AppendUnchecked({row[0], Value::Integer(i % 7)});
      restock.value()->AppendUnchecked({row[0], Value::Integer(i % 5)});
    }
  }
  (void)analyzed.Execute("ANALYZE");
  sql::SqlEngine* const engines[2] = {&plain, &analyzed};

  const PlanQuery queries[] = {
      // Join order: returns and restock have no direct predicate, so the
      // FROM-order left-deep plan crosses them (4M rows) before product can
      // restrict anything; the analyzed plan joins each through product
      // and never exceeds ~20k intermediate rows.
      {"join_reorder",
       "SELECT COUNT(*), SUM(r.qty + k.qty) FROM returns r, restock k, "
       "product p WHERE r.item = p.item AND k.item = p.item",
       true},
      // Guard rails: shapes the FROM-order plan already handles well must
      // not regress. small_left_join builds over the filtered ~82k-row
      // purchase side under either plan, although the 200-row dim is on the
      // left.
      {"small_left_join",
       "SELECT p.pid, s.price FROM product p, purchase s "
       "WHERE p.item = s.item AND s.price > 50.0",
       false},
      {"filter_scan", "SELECT tr FROM purchase WHERE price > 100.0", false},
      {"group_by",
       "SELECT item, COUNT(*), SUM(price) FROM purchase GROUP BY item",
       false},
      {"good_join",
       "SELECT s.tr, p.pid FROM purchase s, product p WHERE s.item = p.item",
       false},
  };

  JsonWriter w;
  w.BeginObject();
  bool ok = true;
  int improved = 0;
  w.Key("sql").BeginArray();
  for (const PlanQuery& q : queries) {
    std::string dump[2];
    PairedTiming timing;
    const bool ran = TimePairs(
        [&](int side) {
          auto result = engines[side]->Execute(q.sql);
          if (!result.ok()) {
            std::fprintf(stderr, "PLAN SMOKE FAIL %s (%s): %s\n", q.name,
                         side ? "analyzed" : "from-order",
                         result.status().ToString().c_str());
            return false;
          }
          if (dump[side].empty()) dump[side] = RenderResult(result.value());
          return true;
        },
        &timing);
    if (!ran) return 1;
    if (dump[0] != dump[1]) {
      std::fprintf(stderr,
                   "PLAN SMOKE FAIL %s: analyzed result differs from "
                   "FROM-order result\n",
                   q.name);
      return 1;
    }
    const double speedup = timing.speedup;
    const bool pass = speedup * kSlowdownTolerance >= 1.0;
    if (!pass) ok = false;
    if (q.checked && speedup >= kRequiredSpeedup) ++improved;
    w.BeginObject();
    w.Key("query").String(q.name);
    w.Key("from_order_ms").Double(timing.median_ms[0]);
    w.Key("analyzed_ms").Double(timing.median_ms[1]);
    w.Key("speedup").Double(speedup);
    w.Key("checked").Bool(q.checked);
    w.Key("pass").Bool(pass);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  const std::string json = w.str();
  auto valid = ValidateJson(json);
  if (!valid.ok()) {
    std::fprintf(stderr, "plan-smoke JSON invalid: %s\n",
                 valid.ToString().c_str());
    return 1;
  }
  std::printf("%s\n", json.c_str());
  if (improved == 0) {
    std::printf("PLAN SMOKE FAIL: no checked query improved >= 1.15x\n");
    return 1;
  }
  if (!ok) {
    std::printf("PLAN SMOKE FAIL: a shape regressed past 5%%\n");
    return 1;
  }
  std::printf("PLAN SMOKE OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return RunSmoke();
    if (std::strcmp(argv[i], "--plan-smoke") == 0) return RunPlanSmoke();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
