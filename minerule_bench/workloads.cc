// The five workloads' data, statements, set-up and untraced measurement
// loops, and the output checks every run applies.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <map>
#include <thread>

#include "bench.h"
#include "common/string_util.h"
#include "datagen/paper_example.h"
#include "datagen/quest_gen.h"
#include "datagen/retail_gen.h"
#include "server/server.h"
#include "server/session.h"

namespace minerule::bench {

void RunReport::Fail(std::string why) {
  correct = false;
  if (problems.size() < 8) problems.push_back(std::move(why));
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

constexpr int64_t kRetailCustomers = 1200;
constexpr int64_t kQuestTransactions = 8000;
constexpr int64_t kBudgetTransactions = 4000;
constexpr int64_t kServerMixCustomers = 400;
constexpr int64_t kBudgetBytes = 256 * 1024;

constexpr int kWarmUpStatements = 3;
constexpr int kSetUps = 5;

// peak_rss_mb is read after a fixed number of measured statements. Every
// statement adds a ~20 KB record to the process-wide mr_runs registry, so
// reading it at the end of a fixed-time run would charge a faster build for
// the extra statements it got through.
constexpr size_t kRssStatements = 30;
constexpr int64_t kMixRssStatements = 1000;

template <typename T>
void Shuffle(std::vector<T>* values, SplitMix64* rng) {
  for (size_t i = values->size(); i > 1; --i) {
    std::swap((*values)[i - 1], (*values)[rng->Next() % i]);
  }
}

/// Renames the values of `columns` by seeded bijections and shuffles the
/// rows. The generators run at fixed seeds and this is where --seed enters,
/// so every seed gives data of one shape: the same statements find the same
/// number of rules and do the same work, under other labels and row order.
Status Relabel(Catalog* catalog, const std::string& table_name,
               const std::vector<std::string>& columns, uint64_t seed) {
  MR_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                      catalog->GetTable(table_name));
  auto less = [](const Value& a, const Value& b) { return a.TotalLess(b); };
  auto equal = [](const Value& a, const Value& b) { return a.TotalEquals(b); };
  SplitMix64 rng{seed};
  std::vector<Row>& rows = table->mutable_rows();
  for (const std::string& column : columns) {
    const int c = table->schema().FindColumn(column);
    if (c < 0) return Status::Internal(table_name + " has no " + column);
    std::vector<Value> labels;
    labels.reserve(rows.size());
    for (const Row& row : rows) labels.push_back(row[c]);
    std::sort(labels.begin(), labels.end(), less);
    labels.erase(std::unique(labels.begin(), labels.end(), equal),
                 labels.end());
    std::vector<Value> renamed = labels;
    Shuffle(&renamed, &rng);
    for (Row& row : rows) {
      row[c] = renamed[std::lower_bound(labels.begin(), labels.end(), row[c],
                                        less) -
                       labels.begin()];
    }
  }
  Shuffle(&rows, &rng);
  return Status::OK();
}

/// Generates the workload's source table from `seed`.
Status LoadData(const MiningWorkload& workload, uint64_t seed,
                Catalog* catalog) {
  if (workload.data == MiningWorkload::Data::kRetail) {
    datagen::RetailParams params;
    params.num_customers = workload.size;
    params.num_items = 50;
    MR_RETURN_IF_ERROR(
        datagen::GenerateRetailTable(catalog, "Purchase", params).status());
    return Relabel(catalog, "Purchase", {"tr", "customer", "item"}, seed);
  }
  datagen::QuestParams params;
  params.num_transactions = workload.size;
  params.avg_transaction_size = 8;
  params.num_items = 500;
  params.num_patterns = 60;
  MR_RETURN_IF_ERROR(
      datagen::MaterializeQuestTable(catalog, "Baskets", params).status());
  return Relabel(catalog, "Baskets", {"tid", "item"}, seed);
}

// The general M+C+K statement: string keys, a mining condition (Q8's
// within-group self-join) and clusters with a cluster condition.
std::string GeneralStatement(const std::string& out) {
  return "MINE RULE " + out +
         " AS SELECT DISTINCT 1..2 item AS BODY, 1..1 item AS HEAD, SUPPORT, "
         "CONFIDENCE WHERE BODY.price >= 100 AND HEAD.price < 100 FROM "
         "Purchase GROUP BY customer CLUSTER BY date HAVING BODY.date < "
         "HEAD.date EXTRACTING RULES WITH SUPPORT: 0.03, CONFIDENCE: 0.2";
}

std::string SimpleStatement(double confidence) {
  char text[320];
  std::snprintf(text, sizeof(text),
                "MINE RULE Basket AS SELECT DISTINCT 1..n item AS BODY, 1..1 "
                "item AS HEAD, SUPPORT, CONFIDENCE FROM Baskets GROUP BY tid "
                "EXTRACTING RULES WITH SUPPORT: 0.01, CONFIDENCE: %g",
                confidence);
  return text;
}

std::vector<MiningWorkload> MakeMiningWorkloads() {
  std::vector<MiningWorkload> all;

  MiningWorkload retail;
  retail.name = "retail_general";
  retail.data = MiningWorkload::Data::kRetail;
  retail.size = kRetailCustomers;
  retail.statements = {GeneralStatement("FollowUps")};
  all.push_back(retail);

  MiningWorkload quest;
  quest.name = "quest_simple";
  quest.data = MiningWorkload::Data::kQuest;
  quest.size = kQuestTransactions;
  quest.statements = {SimpleStatement(0.5)};
  all.push_back(quest);

  MiningWorkload sweep = quest;
  sweep.name = "quest_reuse_sweep";
  sweep.statements.clear();
  for (double confidence : {0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}) {
    sweep.statements.push_back(SimpleStatement(confidence));
  }
  sweep.options.reuse_preprocessing = true;
  sweep.sweep = true;
  all.push_back(sweep);

  MiningWorkload budget = quest;
  budget.name = "quest_budget";
  budget.size = kBudgetTransactions;
  budget.options.memory_limit = kBudgetBytes;
  budget.budget_reference = true;
  all.push_back(budget);
  return all;
}

std::string FormatNumber(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Decoded rules of output table `out`, one "{body}=>{head}|sup|conf" string
/// per rule, sorted.
Result<std::vector<std::string>> DecodeRules(const Catalog& catalog,
                                             const std::string& out) {
  MR_ASSIGN_OR_RETURN(std::shared_ptr<Table> rules, catalog.GetTable(out));
  MR_ASSIGN_OR_RETURN(std::shared_ptr<Table> bodies,
                      catalog.GetTable(out + "_Bodies"));
  MR_ASSIGN_OR_RETURN(std::shared_ptr<Table> heads,
                      catalog.GetTable(out + "_Heads"));

  // Id -> "{item,item}"; multi-attribute items render as "a|b".
  auto render_sets = [](const Table& table)
      -> Result<std::map<int64_t, std::string>> {
    std::map<int64_t, std::vector<std::string>> items;
    for (const Row& row : table.rows()) {
      if (row.empty() || row[0].type() != DataType::kInteger) {
        return Status::Internal(table.name() + ": id column is not INTEGER");
      }
      std::string item;
      for (size_t c = 1; c < row.size(); ++c) {
        if (c > 1) item += '|';
        item += row[c].ToString();
      }
      items[row[0].AsInteger()].push_back(std::move(item));
    }
    std::map<int64_t, std::string> rendered;
    for (auto& [id, set] : items) {
      std::sort(set.begin(), set.end());
      rendered[id] = "{" + Join(set, ",") + "}";
    }
    return rendered;
  };
  MR_ASSIGN_OR_RETURN(auto body_sets, render_sets(*bodies));
  MR_ASSIGN_OR_RETURN(auto head_sets, render_sets(*heads));

  std::vector<std::string> decoded;
  decoded.reserve(rules->num_rows());
  for (const Row& row : rules->rows()) {
    if (row.size() < 2 || row[0].type() != DataType::kInteger ||
        row[1].type() != DataType::kInteger) {
      return Status::Internal(out + ": malformed rule row");
    }
    std::string rule =
        body_sets[row[0].AsInteger()] + "=>" + head_sets[row[1].AsInteger()];
    for (size_t c = 2; c < row.size(); ++c) {
      if (!row[c].is_numeric()) {
        return Status::Internal(out + ": SUPPORT/CONFIDENCE not numeric");
      }
      rule += "|" + FormatNumber(row[c].AsDouble());
    }
    decoded.push_back(std::move(rule));
  }
  std::sort(decoded.begin(), decoded.end());
  return decoded;
}

/// Wall times of one run, raw or scaled by the host calibration.
struct Timings {
  std::vector<double> setup_s;
  std::vector<double> statement_ms;
  /// What stmts_per_s divides by: the statements' own time for one client,
  /// the run's wall time for server_mix.
  double busy_s = 0;
};

std::vector<Metric> EndToEnd(const Timings& t, double peak_rss_mb) {
  return {
      {"setup_s", Percentile(t.setup_s, 0.5), "s"},
      {"stmt_p50_ms", Percentile(t.statement_ms, 0.5), "ms"},
      {"stmt_p90_ms", Percentile(t.statement_ms, 0.9), "ms"},
      {"stmts_per_s",
       t.busy_s > 0 ? static_cast<double>(t.statement_ms.size()) / t.busy_s
                    : 0,
       "1/s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
}

/// Calibrated metrics into report->metrics, raw ones into report->raw.
void AddEndToEnd(RunReport* report, const Timings& raw,
                 const Timings& calibrated, double peak_rss_mb,
                 double calibration_ms) {
  report->metrics = EndToEnd(calibrated, peak_rss_mb);
  report->raw = EndToEnd(raw, peak_rss_mb);
  report->raw.push_back({"host.calibration_ms", calibration_ms, "ms"});
}

/// Sets up `count` fresh environments one after another, one alive at a
/// time, and keeps the last. A calibration slice before the first and after
/// each scales every set-up by the kernel times around it, as for a
/// statement.
template <typename Env>
Status TimeSetUps(int count,
                  const std::function<Result<std::unique_ptr<Env>>()>& set_up,
                  std::unique_ptr<Env>* env, std::vector<double>* raw_s,
                  std::vector<double>* calibrated_s) {
  HostCalibration host;
  MR_RETURN_IF_ERROR(host.Slice());
  for (int i = 0; i < count; ++i) {
    env->reset();
    const Clock::time_point start = Clock::now();
    MR_ASSIGN_OR_RETURN(*env, set_up());
    raw_s->push_back(MillisSince(start) / 1e3);
    MR_RETURN_IF_ERROR(host.Slice());
  }
  for (size_t i = 0; i < raw_s->size(); ++i) {
    calibrated_s->push_back((*raw_s)[i] * host.FactorAround(i));
  }
  return Status::OK();
}

}  // namespace

const MiningWorkload* FindMiningWorkload(const std::string& name) {
  static const std::vector<MiningWorkload> kWorkloads = MakeMiningWorkloads();
  for (const MiningWorkload& workload : kWorkloads) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

MiningWorkload ServerMixMiningWorkload() {
  MiningWorkload workload;
  workload.name = "server_mix";
  workload.data = MiningWorkload::Data::kRetail;
  workload.size = kServerMixCustomers;
  workload.statements = {GeneralStatement("MixRules")};
  return workload;
}

Result<RuleDigest> DigestRules(const Catalog& catalog,
                               const std::string& out) {
  MR_ASSIGN_OR_RETURN(std::vector<std::string> rules,
                      DecodeRules(catalog, out));
  RuleDigest digest;
  digest.rules = static_cast<int64_t>(rules.size());
  uint64_t hash = 14695981039346656037ull;  // FNV-1a 64
  for (const std::string& rule : rules) {
    for (unsigned char c : rule) {
      hash = (hash ^ c) * 1099511628211ull;
    }
    hash = (hash ^ '\n') * 1099511628211ull;
  }
  digest.hash = hash;
  return digest;
}

Status CheckFigure2b() {
  Catalog catalog;
  mr::DataMiningSystem system(&catalog);
  MR_RETURN_IF_ERROR(datagen::MakePaperPurchaseTable(&catalog).status());
  const std::string statement = datagen::PaperExampleStatement();
  MR_ASSIGN_OR_RETURN(mr::MiningRunStats stats,
                      system.ExecuteMineRule(statement));
  MR_ASSIGN_OR_RETURN(std::vector<std::string> rules,
                      DecodeRules(catalog, stats.output.rules_table));
  // Figure 2.b: body => head | support | confidence.
  std::vector<std::string> expected = {
      "{brown_boots}=>{col_shirts}|0.5|1",
      "{jackets}=>{col_shirts}|0.5|0.5",
      "{brown_boots,jackets}=>{col_shirts}|0.5|1",
  };
  std::sort(expected.begin(), expected.end());
  if (rules != expected) {
    return Status::Internal("Figure 1 example gave " + Join(rules, "; ") +
                            " instead of the Figure 2.b rules");
  }
  return Status::OK();
}

double ExecuteChecked(const MiningWorkload& workload, MiningEnv* env,
                      size_t index, RunReport* report,
                      mr::MiningRunStats* stats_out) {
  const std::string& text = workload.statements[index];
  const Clock::time_point start = Clock::now();
  Result<mr::MiningRunStats> stats =
      env->system.ExecuteMineRule(text, workload.options);
  const double wall_ms = MillisSince(start);
  ++report->attempted;
  if (!stats.ok()) {
    ++report->failed;
    report->Fail(workload.name + ": " + stats.status().ToString());
    return wall_ms;
  }
  Result<RuleDigest> digest =
      DigestRules(env->catalog, stats->output.rules_table);
  std::optional<RuleDigest>& expected = env->expected[index];
  if (!digest.ok() || digest->rules == 0 ||
      (expected.has_value() && *expected != *digest)) {
    ++report->failed;
    report->Fail(workload.name + ": statement " + std::to_string(index) +
                 (digest.ok() ? " rules differ from the first run or are empty"
                              : ": " + digest.status().ToString()));
  } else if (!expected.has_value()) {
    expected = *digest;
  }
  if (stats_out != nullptr) *stats_out = std::move(*stats);
  return wall_ms;
}

Result<std::unique_ptr<MiningEnv>> SetUpMining(const MiningWorkload& workload,
                                               uint64_t seed,
                                               RunReport* report) {
  auto env = std::make_unique<MiningEnv>();
  env->expected.resize(workload.statements.size());
  MR_RETURN_IF_ERROR(LoadData(workload, seed, &env->catalog));
  if (workload.budget_reference) {
    // The unbudgeted result every spilling run must reproduce.
    mr::MiningOptions unbudgeted = workload.options;
    unbudgeted.memory_limit = -1;
    MR_ASSIGN_OR_RETURN(
        mr::MiningRunStats stats,
        env->system.ExecuteMineRule(workload.statements[0], unbudgeted));
    MR_ASSIGN_OR_RETURN(env->expected[0],
                        DigestRules(env->catalog, stats.output.rules_table));
  }
  for (int i = 0; i < kWarmUpStatements; ++i) {
    const size_t index = static_cast<size_t>(i) % workload.statements.size();
    if (workload.sweep && index == 0) env->system.InvalidateCache();
    ExecuteChecked(workload, env.get(), index, report);
  }
  return env;
}

RunReport RunMining(const MiningWorkload& workload, const RunConfig& config) {
  RunReport report;
  Timings raw;
  Timings calibrated;
  std::unique_ptr<MiningEnv> env;
  const Status set_up = TimeSetUps<MiningEnv>(
      kSetUps, [&] { return SetUpMining(workload, config.seed, &report); },
      &env, &raw.setup_s, &calibrated.setup_s);
  if (!set_up.ok()) {
    report.Fail("set-up: " + set_up.ToString());
    return report;
  }

  // Closed loop, zero think time, one calibration slice between
  // statements. A sweep always completes, so every statement of it is
  // measured equally often.
  const Clock::time_point deadline = DeadlineIn(config.seconds);
  HostCalibration host;
  Status sliced = host.Slice();
  double peak_rss_mb = 0;
  for (size_t k = 0; sliced.ok(); ++k) {
    const size_t index = k % workload.statements.size();
    if (index == 0) {
      if (Clock::now() >= deadline) break;
      if (workload.sweep) env->system.InvalidateCache();
    }
    raw.statement_ms.push_back(
        ExecuteChecked(workload, env.get(), index, &report));
    if (raw.statement_ms.size() == kRssStatements) peak_rss_mb = PeakRssMb();
    sliced = host.Slice();
  }
  if (!sliced.ok()) {
    report.Fail(sliced.ToString());
    return report;
  }
  if (peak_rss_mb == 0) peak_rss_mb = PeakRssMb();
  for (size_t i = 0; i < raw.statement_ms.size(); ++i) {
    calibrated.statement_ms.push_back(raw.statement_ms[i] *
                                      host.FactorAround(i));
    raw.busy_s += raw.statement_ms[i] / 1e3;
    calibrated.busy_s += calibrated.statement_ms.back() / 1e3;
  }
  AddEndToEnd(&report, raw, calibrated, peak_rss_mb, host.MedianSliceMs());
  return report;
}

// --- server_mix ---------------------------------------------------------------

namespace {

constexpr int kMixSessions = 4;

/// The clients stop at a barrier this often for a calibration slice, so the
/// kernel never runs beside a statement.
constexpr double kMixSegmentSeconds = 2.0;

/// Price bands [lo, lo + 100) of the range reads.
constexpr int kPriceBands = 9;
int BandLow(int band) { return 50 * band; }

/// Everything one server_mix run shares: the catalog, the server (default
/// options), one session per client, and the answers every read must
/// return. Member order matters: sessions are destroyed before the server,
/// and the server before the catalog.
struct MixEnv {
  Catalog catalog;
  std::unique_ptr<server::Server> server;
  std::vector<std::unique_ptr<server::Session>> sessions;
  RuleDigest expected_rules;
  int64_t customers = 0;
  std::vector<std::pair<int64_t, double>> customer_totals;  // count, sum(qty)
  std::vector<std::map<std::string, int64_t>> band_counts;  // item -> rows
  std::atomic<int64_t> completed{0};  // statements the clients finished
  double peak_rss_mb = 0;  // written by the client finishing statement
                           // kMixRssStatements, read after the join
};

std::string CustomerRead(int64_t customer) {
  return "SELECT COUNT(*), SUM(qty) FROM Purchase WHERE customer = 'cust" +
         std::to_string(customer + 1) + "'";
}

std::string RangeRead(int band) {
  return "SELECT item, COUNT(*) FROM Purchase WHERE price >= " +
         std::to_string(BandLow(band)) +
         " AND price < " + std::to_string(BandLow(band) + 100) +
         " GROUP BY item";
}

/// Expected answers computed from the generated rows, independently of the
/// SQL engine.
Status ComputeExpectedReads(MixEnv* env) {
  MR_ASSIGN_OR_RETURN(std::shared_ptr<Table> purchase,
                      env->catalog.GetTable("Purchase"));
  const Schema& schema = purchase->schema();
  const int customer_col = schema.FindColumn("customer");
  const int item_col = schema.FindColumn("item");
  const int price_col = schema.FindColumn("price");
  const int qty_col = schema.FindColumn("qty");
  if (customer_col < 0 || item_col < 0 || price_col < 0 || qty_col < 0) {
    return Status::Internal("Purchase lacks a column the reads use");
  }
  env->customer_totals.assign(static_cast<size_t>(env->customers), {0, 0.0});
  env->band_counts.assign(kPriceBands, {});
  for (const Row& row : purchase->rows()) {
    const std::string& customer = row[customer_col].AsString();
    const int64_t index = std::stoll(customer.substr(4)) - 1;  // "custN"
    if (index < 0 || index >= env->customers) {
      return Status::Internal("unexpected customer " + customer);
    }
    env->customer_totals[index].first += 1;
    env->customer_totals[index].second += row[qty_col].AsDouble();
    const double price = row[price_col].AsDouble();
    for (int band = 0; band < kPriceBands; ++band) {
      if (price >= BandLow(band) && price < BandLow(band) + 100) {
        ++env->band_counts[band][row[item_col].AsString()];
      }
    }
  }
  return Status::OK();
}

bool CustomerReadMatches(const MixEnv& env, int64_t customer,
                         const sql::QueryResult& result) {
  if (result.rows.size() != 1 || result.rows[0].size() != 2) return false;
  const Row& row = result.rows[0];
  if (!row[0].is_numeric() || !row[1].is_numeric()) return false;
  const auto& [count, qty] = env.customer_totals[customer];
  return row[0].AsDouble() == static_cast<double>(count) &&
         row[1].AsDouble() == qty;
}

bool RangeReadMatches(const MixEnv& env, int band,
                      const sql::QueryResult& result) {
  std::map<std::string, int64_t> got;
  for (const Row& row : result.rows) {
    if (row.size() != 2 || row[0].type() != DataType::kString ||
        row[1].type() != DataType::kInteger) {
      return false;
    }
    got[row[0].AsString()] = row[1].AsInteger();
  }
  return got == env.band_counts[band];
}

Result<std::unique_ptr<MixEnv>> SetUpMix(uint64_t seed) {
  auto env = std::make_unique<MixEnv>();
  const MiningWorkload mining = ServerMixMiningWorkload();
  env->customers = mining.size;
  MR_RETURN_IF_ERROR(LoadData(mining, seed, &env->catalog));
  MR_RETURN_IF_ERROR(ComputeExpectedReads(env.get()));

  // Serial reference for every MINE RULE the sessions run, with the
  // sessions' own option of dropping the encoded tables afterwards.
  {
    mr::DataMiningSystem serial(&env->catalog);
    mr::MiningOptions options;
    options.keep_encoded_tables = false;
    MR_ASSIGN_OR_RETURN(
        mr::MiningRunStats stats,
        serial.ExecuteMineRule(GeneralStatement("MixReference"), options));
    MR_ASSIGN_OR_RETURN(env->expected_rules,
                        DigestRules(env->catalog, stats.output.rules_table));
  }

  env->server = std::make_unique<server::Server>(&env->catalog);
  for (int s = 0; s < kMixSessions; ++s) {
    env->sessions.push_back(
        env->server->Connect("client-" + std::to_string(s)));
  }
  server::Session* first = env->sessions[0].get();
  MR_RETURN_IF_ERROR(
      first->Execute("CREATE TABLE MixLog (session INTEGER, seq INTEGER, "
                     "amount DOUBLE)")
          .status());

  // Warm-up: one of each read and one MINE RULE.
  MR_ASSIGN_OR_RETURN(server::SessionResult customer,
                      first->Execute(CustomerRead(0)));
  MR_ASSIGN_OR_RETURN(server::SessionResult range,
                      first->Execute(RangeRead(2)));
  MR_RETURN_IF_ERROR(first->Execute(GeneralStatement("MixWarmUp")).status());
  MR_ASSIGN_OR_RETURN(RuleDigest warm, DigestRules(env->catalog, "MixWarmUp"));
  if (!CustomerReadMatches(*env, 0, customer.query) ||
      !RangeReadMatches(*env, 2, range.query) || warm != env->expected_rules ||
      warm.rules == 0) {
    return Status::Internal("server_mix warm-up returned wrong results");
  }
  return env;
}

/// One client: its seeded deck and what it saw, kept across segments.
struct Client {
  int id = 0;
  SplitMix64 rng{0};
  std::vector<ServerMixSample::Kind> deck;
  size_t dealt = 0;
  int64_t seq = 0;
  std::vector<ServerMixSample> samples;
  std::vector<size_t> segment_of_sample;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t inserts_acked = 0;
  std::vector<std::string> mine_tables;
  std::vector<std::string> problems;
};

/// One client's deck of 100: 42 per-customer reads, 40 price-band reads,
/// 15 INSERTs and 3 MINE RULE. It is dealt in a new seeded order every
/// pass, so each client runs the mix in its exact proportions rather than
/// a random draw of them.
std::vector<ServerMixSample::Kind> MixDeck() {
  using Kind = ServerMixSample::Kind;
  std::vector<Kind> deck(42, Kind::kCustomerRead);
  deck.insert(deck.end(), 40, Kind::kRangeRead);
  deck.insert(deck.end(), 15, Kind::kInsert);
  deck.insert(deck.end(), 3, Kind::kMineRule);
  return deck;
}

/// Runs one client's closed loop until `deadline`.
void RunClient(MixEnv* env, Client* client, size_t segment,
               Clock::time_point deadline) {
  server::Session* session = env->sessions[client->id].get();
  while (Clock::now() < deadline) {
    if (client->dealt == client->deck.size()) {
      Shuffle(&client->deck, &client->rng);
      client->dealt = 0;
    }
    ServerMixSample sample;
    sample.kind = client->deck[client->dealt++];
    std::string text;
    int64_t customer = 0;
    int band = 0;
    switch (sample.kind) {
      case ServerMixSample::Kind::kCustomerRead:
        customer = static_cast<int64_t>(client->rng.Next() %
                                        static_cast<uint64_t>(env->customers));
        text = CustomerRead(customer);
        break;
      case ServerMixSample::Kind::kRangeRead:
        band = static_cast<int>(client->rng.Next() % kPriceBands);
        text = RangeRead(band);
        break;
      case ServerMixSample::Kind::kInsert:
        text = "INSERT INTO MixLog VALUES (" + std::to_string(client->id) +
               ", " + std::to_string(client->seq) + ", " +
               std::to_string(static_cast<int>(client->rng.Next() % 1000)) +
               ".5)";
        break;
      case ServerMixSample::Kind::kMineRule:
        text = GeneralStatement("Mix_" + std::to_string(client->id) + "_" +
                                std::to_string(client->seq));
        break;
    }
    ++client->seq;

    const Clock::time_point start = Clock::now();
    Result<server::SessionResult> result = session->Execute(text);
    sample.wall_ms = MillisSince(start);
    ++client->attempted;
    if (env->completed.fetch_add(1) + 1 == kMixRssStatements) {
      env->peak_rss_mb = PeakRssMb();
    }
    client->segment_of_sample.push_back(segment);
    if (!result.ok()) {
      ++client->failed;
      if (client->problems.size() < 4) {
        client->problems.push_back(text + ": " + result.status().ToString());
      }
      client->samples.push_back(sample);
      continue;
    }
    sample.queue_wait_ms =
        static_cast<double>(result->queue_wait_micros) / 1e3;
    sample.queued = result->queued;
    client->samples.push_back(sample);

    bool ok = true;
    switch (sample.kind) {
      case ServerMixSample::Kind::kCustomerRead:
        ok = CustomerReadMatches(*env, customer, result->query);
        break;
      case ServerMixSample::Kind::kRangeRead:
        ok = RangeReadMatches(*env, band, result->query);
        break;
      case ServerMixSample::Kind::kInsert:
        ok = result->query.affected_rows == 1;
        if (ok) ++client->inserts_acked;
        break;
      case ServerMixSample::Kind::kMineRule:
        // Checked after the run, when no session is writing the catalog.
        client->mine_tables.push_back(result->mining.output.rules_table);
        break;
    }
    if (!ok) {
      ++client->failed;
      if (client->problems.size() < 4) {
        client->problems.push_back("wrong result: " + text);
      }
    }
  }
}

}  // namespace

ServerMixResult DriveServerMix(const RunConfig& config, double seconds,
                               RunReport* report) {
  ServerMixResult out;
  std::unique_ptr<MixEnv> env;
  const Status set_up = TimeSetUps<MixEnv>(
      config.traced ? 1 : kSetUps, [&] { return SetUpMix(config.seed); },
      &env, &out.setup_s, &out.calibrated_setup_s);
  if (!set_up.ok()) {
    report->Fail("set-up: " + set_up.ToString());
    return out;
  }

  std::vector<Client> clients(kMixSessions);
  for (int c = 0; c < kMixSessions; ++c) {
    clients[c].id = c;
    clients[c].rng.state = config.seed * 0x100000001b3ull + c;
    clients[c].deck = MixDeck();
    clients[c].dealt = clients[c].deck.size();
  }
  // Segments of kMixSegmentSeconds until `seconds` are measured, with a
  // calibration slice before the first and after each.
  HostCalibration host;
  Status sliced = host.Slice();
  std::vector<double> segment_s;
  while (sliced.ok() && out.elapsed_seconds < seconds) {
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline = DeadlineIn(
        std::min(kMixSegmentSeconds, seconds - out.elapsed_seconds));
    std::vector<std::thread> threads;
    for (Client& client : clients) {
      threads.emplace_back(RunClient, env.get(), &client, segment_s.size(),
                           deadline);
    }
    for (std::thread& thread : threads) thread.join();
    segment_s.push_back(MillisSince(start) / 1e3);
    out.elapsed_seconds += segment_s.back();
    sliced = host.Slice();
  }
  if (!sliced.ok()) report->Fail(sliced.ToString());
  for (size_t s = 0; s < segment_s.size(); ++s) {
    out.calibrated_elapsed_seconds += segment_s[s] * host.FactorAround(s);
  }
  out.calibration_ms = host.MedianSliceMs();
  out.peak_rss_mb = env->peak_rss_mb > 0 ? env->peak_rss_mb : PeakRssMb();

  int64_t inserts_acked = 0;
  for (Client& client : clients) {
    for (size_t i = 0; i < client.samples.size(); ++i) {
      ServerMixSample& sample = client.samples[i];
      sample.calibrated_ms =
          sample.wall_ms * host.FactorAround(client.segment_of_sample[i]);
      out.samples.push_back(sample);
    }
    out.attempted += client.attempted;
    out.failed += client.failed;
    inserts_acked += client.inserts_acked;
    for (const std::string& problem : client.problems) report->Fail(problem);
    for (const std::string& table : client.mine_tables) {
      Result<RuleDigest> digest = DigestRules(env->catalog, table);
      if (!digest.ok() || *digest != env->expected_rules) {
        ++out.failed;
        report->Fail(table + " differs from the serial MINE RULE run");
      }
    }
  }
  Result<std::shared_ptr<Table>> log_table = env->catalog.GetTable("MixLog");
  if (!log_table.ok() ||
      static_cast<int64_t>((*log_table)->num_rows()) != inserts_acked) {
    report->Fail("MixLog row count differs from the acknowledged INSERTs");
  }
  report->attempted += out.attempted;
  report->failed += out.failed;
  return out;
}

RunReport RunServerMix(const RunConfig& config) {
  RunReport report;
  ServerMixResult mix = DriveServerMix(config, config.seconds, &report);
  if (mix.samples.empty()) {
    report.Fail("server_mix ran no statements");
    return report;
  }
  Timings raw{mix.setup_s, {}, mix.elapsed_seconds};
  Timings calibrated{mix.calibrated_setup_s, {},
                     mix.calibrated_elapsed_seconds};
  for (const ServerMixSample& sample : mix.samples) {
    raw.statement_ms.push_back(sample.wall_ms);
    calibrated.statement_ms.push_back(sample.calibrated_ms);
  }
  AddEndToEnd(&report, raw, calibrated, mix.peak_rss_mb, mix.calibration_ms);
  return report;
}

}  // namespace minerule::bench
