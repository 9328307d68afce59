// Traced runs. The workload's statements run through
// DataMiningSystem::ExecuteMineRule exactly as in the untraced run, and the
// per-layer metrics are read from each statement's MiningRunStats: phase
// times, per-query times and row counts, core counters. After a statement
// returns, its generated queries are profiled with EXPLAIN ANALYZE for the
// sql.* operator self times; their inputs are the encoded tables the
// statement left in the catalog, which no later query of it modifies.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "bench.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "decoupled/decoupled_miner.h"
#include "minerule/parser.h"

namespace minerule::bench {
namespace {

const char* const kQueryIds[] = {"Q0", "Q1", "Q2", "Q3", "Q4",  "Q4b", "Q5",
                                 "Q6", "Q7", "Q8", "Q9", "Q10", "Q11"};

const char* const kOperatorMetrics[] = {
    "sql.scan_ms",    "sql.filter_ms",   "sql.project_ms",  "sql.hash_join_ms",
    "sql.nl_join_ms", "sql.hash_agg_ms", "sql.distinct_ms", "sql.sort_ms"};

/// Every per-layer metric with its unit, in print order. A layer the
/// workload does not exercise reads 0.
std::vector<std::pair<std::string, std::string>> LayerMetrics() {
  std::vector<std::pair<std::string, std::string>> m = {
      {"minerule.parse_ms", "ms"},
      {"minerule.translate_ms", "ms"},
      {"preprocess.ms", "ms"},
  };
  for (const char* id : kQueryIds) {
    m.emplace_back(std::string("preprocess.") + id + "_ms", "ms");
  }
  for (const char* id : kQueryIds) {
    m.emplace_back(std::string("preprocess.") + id + "_rows", "rows");
  }
  for (const char* name : kOperatorMetrics) m.emplace_back(name, "ms");
  const std::vector<std::pair<std::string, std::string>> rest = {
      {"sql.vec_share", "ratio"},
      {"sql.spill_bytes", "bytes"},
      {"sql.spill_partitions", "count"},
      {"engine.reuse_frac", "ratio"},
      {"mining.core_phase_ms", "ms"},
      {"mining.candidates", "count"},
      {"mining.large", "count"},
      {"mining.large_per_candidate", "ratio"},
      {"mining.passes", "count"},
      {"mining.cells_evaluated", "count"},
      {"mining.rules", "count"},
      {"postprocess.ms", "ms"},
      {"postprocess.POST0_ms", "ms"},
      {"postprocess.POST1_ms", "ms"},
      {"postprocess.POST2_ms", "ms"},
      {"postprocess.POST3_ms", "ms"},
      {"postprocess.normalize_ms", "ms"},
      {"server.queue_wait_p50_ms", "ms"},
      {"server.queue_wait_p99_ms", "ms"},
      {"server.exec_p50_ms", "ms"},
      {"server.exec_p99_ms", "ms"},
      {"server.queued_frac", "ratio"},
      {"server.read_p50_ms", "ms"},
      {"server.read_p99_ms", "ms"},
      {"server.write_p50_ms", "ms"},
      {"server.mine_p50_ms", "ms"},
      {"server.mine_p90_ms", "ms"},
      {"decoupled.ms", "ms"},
      {"decoupled.coupling_ratio", "ratio"},
      {"trace.overhead_frac", "ratio"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

/// Operator node name -> sql.* metric; nodes not listed (RowNumber, Limit)
/// count only toward sql.vec_share's denominator.
const char* OperatorMetric(const std::string& op) {
  if (op == "TableScan" || op == "VecScan" || op == "Rows" ||
      op == "SystemScan") {
    return "sql.scan_ms";
  }
  if (op == "Filter" || op == "VecFilter") return "sql.filter_ms";
  if (op == "Project") return "sql.project_ms";
  if (op == "HashJoin" || op == "VecHashJoin") return "sql.hash_join_ms";
  if (op == "NestedLoopJoin") return "sql.nl_join_ms";
  if (op == "HashAggregate" || op == "VecHashAggregate") {
    return "sql.hash_agg_ms";
  }
  if (op == "Distinct") return "sql.distinct_ms";
  if (op == "Sort") return "sql.sort_ms";
  return nullptr;
}

/// EXPLAIN ANALYZE runs the statement's query without its side effects.
/// NEXTVAL statements are left out: the analyze pass would advance the
/// sequence and change the ids the next run assigns.
bool Analyzable(const std::string& sql) {
  const std::string upper = ToUpper(sql);
  if (upper.find("NEXTVAL") != std::string::npos) return false;
  return upper.rfind("SELECT", 0) == 0 || upper.rfind("INSERT", 0) == 0;
}

struct SpillTotals {
  int64_t bytes = 0;
  int64_t partitions = 0;
};

SpillTotals ReadSpillCounters() {
  static Counter* const bytes[] = {
      GlobalMetrics().GetCounter("sql.sort.spill_bytes"),
      GlobalMetrics().GetCounter("sql.join.spill_bytes"),
      GlobalMetrics().GetCounter("sql.aggregate.spill_bytes")};
  static Counter* const partitions[] = {
      GlobalMetrics().GetCounter("sql.sort.spill_partitions"),
      GlobalMetrics().GetCounter("sql.join.spill_partitions"),
      GlobalMetrics().GetCounter("sql.aggregate.spill_partitions")};
  SpillTotals totals;
  for (const Counter* c : bytes) totals.bytes += c->Value();
  for (const Counter* c : partitions) totals.partitions += c->Value();
  return totals;
}

/// Per-statement layer samples and per-query operator self times, kept in
/// memory and reported when the run ends.
class Tracer {
 public:
  void Sample(const std::string& metric, double value) {
    samples_[metric].push_back(value);
  }

  /// Self time (inclusive minus children) of every operator of one
  /// EXPLAIN ANALYZE profile, summed into `per_statement` by sql.* metric
  /// and into the per-query operator table.
  void AddProfile(const std::string& query_id,
                  const std::vector<sql::OperatorProfile>& ops,
                  std::map<std::string, double>* per_statement) {
    for (size_t i = 0; i < ops.size(); ++i) {
      double children_micros = 0;
      for (size_t j = i + 1; j < ops.size() && ops[j].depth > ops[i].depth;
           ++j) {
        if (ops[j].depth == ops[i].depth + 1) {
          children_micros += static_cast<double>(ops[j].micros);
        }
      }
      const double self_ms = std::max(
          0.0, (static_cast<double>(ops[i].micros) - children_micros) / 1e3);
      if (const char* metric = OperatorMetric(ops[i].name)) {
        (*per_statement)[metric] += self_ms;
      }
      (*per_statement)["total"] += self_ms;
      if (ops[i].name.rfind("Vec", 0) == 0) (*per_statement)["vec"] += self_ms;
      operator_ms_[query_id][ops[i].name] += self_ms;
    }
  }
  /// Counts one traced statement that profiled `query_id`, so the operator
  /// table reports time per statement.
  void CountQuery(const std::string& query_id) { ++query_runs_[query_id]; }

  /// Median of a metric's samples; 0 when the layer never ran.
  double Median(const std::string& metric) const {
    auto it = samples_.find(metric);
    return it == samples_.end() ? 0 : Percentile(it->second, 0.5);
  }

  /// The top three operators by self time per statement, per query id.
  Status WriteFile(const RunConfig& config) const {
    JsonWriter w;
    w.BeginObject();
    w.Key("workload").String(config.workload);
    w.Key("seed").Int(static_cast<int64_t>(config.seed));
    w.Key("top_operators").BeginObject();
    for (const auto& [query_id, by_op] : operator_ms_) {
      std::vector<std::pair<double, std::string>> ranked;
      auto counted = query_runs_.find(query_id);
      const double runs = counted == query_runs_.end() ? 1 : counted->second;
      for (const auto& [op, ms] : by_op) ranked.emplace_back(ms / runs, op);
      std::sort(ranked.rbegin(), ranked.rend());
      if (ranked.size() > 3) ranked.resize(3);
      w.Key(query_id).BeginArray();
      for (const auto& [ms, op] : ranked) {
        w.BeginObject();
        w.Key("operator").String(op);
        w.Key("self_ms").Double(ms);
        w.EndObject();
      }
      w.EndArray();
    }
    w.EndObject();
    w.EndObject();
    FILE* file = std::fopen(config.trace_out.c_str(), "w");
    if (file == nullptr) {
      return Status::ExecutionError("cannot write " + config.trace_out);
    }
    const bool written =
        std::fwrite(w.str().data(), 1, w.str().size(), file) == w.str().size();
    if (std::fclose(file) != 0 || !written) {
      return Status::ExecutionError("cannot write " + config.trace_out);
    }
    return Status::OK();
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, std::map<std::string, double>> operator_ms_;
  std::map<std::string, int> query_runs_;
};

/// Layer samples of one statement from its MiningRunStats.
void SampleStats(const mr::MiningRunStats& stats, Tracer* tracer) {
  tracer->Sample("minerule.translate_ms", stats.translate_seconds * 1e3);
  tracer->Sample("engine.reuse_frac", stats.preprocessing_reused ? 1 : 0);
  if (!stats.preprocessing_reused) {
    // A reused statement carries the cached run's query stats.
    tracer->Sample("preprocess.ms", stats.preprocess_seconds * 1e3);
    std::map<std::string, std::pair<double, double>> by_id;  // ms, rows
    for (const mr::QueryStat& q : stats.preprocess_queries) {
      by_id[q.id].first += static_cast<double>(q.micros) / 1e3;
      by_id[q.id].second += static_cast<double>(q.rows);
    }
    for (const auto& [id, totals] : by_id) {
      tracer->Sample("preprocess." + id + "_ms", totals.first);
      tracer->Sample("preprocess." + id + "_rows", totals.second);
    }
  }

  const mining::CoreStats& core = stats.core;
  int64_t candidates = 0;
  int64_t large = 0;
  int64_t passes = 0;
  if (core.used_general) {
    candidates = core.general.elementary_candidates;
    large = core.general.elementary_rules;
    for (const auto& set : core.general.sets) {
      candidates += set.candidates;
      large += set.kept;
    }
    passes = static_cast<int64_t>(core.general.sets.size());
  } else {
    for (int64_t c : core.simple.candidates_per_level) candidates += c;
    for (int64_t l : core.simple.large_per_level) large += l;
    passes = core.simple.passes;
  }
  tracer->Sample("mining.core_phase_ms", stats.core_seconds * 1e3);
  tracer->Sample("mining.candidates", static_cast<double>(candidates));
  tracer->Sample("mining.large", static_cast<double>(large));
  tracer->Sample("mining.large_per_candidate",
                 candidates > 0 ? static_cast<double>(large) /
                                      static_cast<double>(candidates)
                                : 0);
  tracer->Sample("mining.passes", static_cast<double>(passes));
  tracer->Sample("mining.cells_evaluated",
                 static_cast<double>(core.general.cells_evaluated));
  tracer->Sample("mining.rules", static_cast<double>(core.rules_found));

  const double post_ms = stats.postprocess_seconds * 1e3;
  double queries_ms = 0;
  for (const mr::QueryStat& q : stats.postprocess_queries) {
    const double ms = static_cast<double>(q.micros) / 1e3;
    queries_ms += ms;
    tracer->Sample("postprocess." + q.id + "_ms", ms);
  }
  tracer->Sample("postprocess.ms", post_ms);
  tracer->Sample("postprocess.normalize_ms",
                 std::max(0.0, post_ms - queries_ms));
}

/// EXPLAIN ANALYZE of every analyzable query the statement ran; returns the
/// time the passes took.
Result<double> ProfileQueries(const mr::MiningRunStats& stats, MiningEnv* env,
                              Tracer* tracer) {
  const Clock::time_point start = Clock::now();
  std::map<std::string, double> operators;
  std::vector<const mr::QueryStat*> queries;
  if (!stats.preprocessing_reused) {
    for (const mr::QueryStat& q : stats.preprocess_queries) queries.push_back(&q);
  }
  for (const mr::QueryStat& q : stats.postprocess_queries) queries.push_back(&q);
  std::map<std::string, bool> profiled;
  for (const mr::QueryStat* q : queries) {
    if (!Analyzable(q->sql)) continue;
    MR_ASSIGN_OR_RETURN(sql::QueryResult analyzed,
                        env->system.ExecuteSql("EXPLAIN ANALYZE " + q->sql));
    tracer->AddProfile(q->id, analyzed.profile, &operators);
    profiled[q->id] = true;
  }
  for (const auto& [query_id, unused] : profiled) tracer->CountQuery(query_id);
  for (const char* metric : kOperatorMetrics) {
    tracer->Sample(metric, operators[metric]);
  }
  tracer->Sample("sql.vec_share", operators["total"] > 0
                                      ? operators["vec"] / operators["total"]
                                      : 0);
  return MillisSince(start);
}

/// Runs the workload's statements until `deadline` (whole sweeps for a
/// sweep workload), sampling each one's layers and profiling its queries.
/// With `run_decoupled`, the decoupled tool mines the same data first.
Status TraceMining(const MiningWorkload& workload, const RunConfig& config,
                   Clock::time_point deadline, bool run_decoupled,
                   Tracer* tracer, RunReport* report) {
  MR_ASSIGN_OR_RETURN(std::unique_ptr<MiningEnv> env,
                      SetUpMining(workload, config.seed, report));

  double decoupled_ms = 0;
  if (run_decoupled) {
    // The decoupled tool on the same data and thresholds; its rule count
    // must match the coupled run's.
    MR_ASSIGN_OR_RETURN(mr::MineRuleStatement stmt,
                        mr::ParseMineRule(workload.statements[0]));
    sql::SqlEngine engine(&env->catalog);
    decoupled::DecoupledMiner miner(&engine);
    std::vector<double> runs;
    for (int i = 0; i < 5; ++i) {
      const Clock::time_point start = Clock::now();
      MR_ASSIGN_OR_RETURN(decoupled::DecoupledStats stats,
                          miner.Run("Baskets", "tid", "item", stmt.min_support,
                                    stmt.min_confidence));
      MR_RETURN_IF_ERROR(miner.ImportRules("DecoupledRules", &stats).status());
      runs.push_back(MillisSince(start));
      const int64_t coupled =
          env->expected[0].has_value() ? env->expected[0]->rules : -1;
      if (stats.num_rules != coupled) {
        report->Fail("decoupled tool found " + std::to_string(stats.num_rules) +
                     " rules, the coupled run " + std::to_string(coupled));
      }
    }
    decoupled_ms = Percentile(runs, 0.5);
  }

  std::vector<double> wall_ms;
  const size_t n = workload.statements.size();
  for (size_t k = 0;; ++k) {
    const size_t index = k % n;
    if (index == 0) {
      if (k > 0 && Clock::now() >= deadline) break;
      if (workload.sweep) env->system.InvalidateCache();
    }
    // ParseMineRule alone; ExecuteMineRule below parses the text again.
    const Clock::time_point parse_start = Clock::now();
    MR_RETURN_IF_ERROR(
        mr::ParseMineRule(workload.statements[index]).status());
    const double parse_ms = MillisSince(parse_start);

    const int64_t failed_before = report->failed;
    const SpillTotals spill_before = ReadSpillCounters();
    mr::MiningRunStats stats;
    const double ms =
        ExecuteChecked(workload, env.get(), index, report, &stats);
    const SpillTotals spill_after = ReadSpillCounters();
    if (report->failed > failed_before) continue;
    wall_ms.push_back(ms);
    tracer->Sample("minerule.parse_ms", parse_ms);
    tracer->Sample("sql.spill_bytes",
                   static_cast<double>(spill_after.bytes - spill_before.bytes));
    tracer->Sample("sql.spill_partitions",
                   static_cast<double>(spill_after.partitions -
                                       spill_before.partitions));
    SampleStats(stats, tracer);
    MR_ASSIGN_OR_RETURN(double profile_ms,
                        ProfileQueries(stats, env.get(), tracer));
    tracer->Sample("trace.overhead_frac", (parse_ms + profile_ms) / ms);
  }

  if (decoupled_ms > 0) {
    tracer->Sample("decoupled.ms", decoupled_ms);
    tracer->Sample("decoupled.coupling_ratio",
                   Percentile(wall_ms, 0.5) / decoupled_ms);
  }
  return Status::OK();
}

void Finish(const RunConfig& config, const Tracer& tracer, RunReport* report) {
  for (const auto& [name, unit] : LayerMetrics()) {
    report->Add(name, tracer.Median(name), unit);
  }
  if (!config.trace_out.empty()) {
    Status written = tracer.WriteFile(config);
    if (!written.ok()) report->Fail(written.ToString());
  }
}

}  // namespace

RunReport RunMiningTraced(const MiningWorkload& workload,
                          const RunConfig& config) {
  RunReport report;
  Tracer tracer;
  Status status = TraceMining(workload, config, DeadlineIn(config.seconds),
                              workload.data == MiningWorkload::Data::kQuest,
                              &tracer, &report);
  if (!status.ok()) {
    report.Fail("traced run: " + status.ToString());
    return report;
  }
  Finish(config, tracer, &report);
  return report;
}

RunReport RunServerMixTraced(const RunConfig& config) {
  RunReport report;
  Tracer tracer;
  // First half: the server mix itself, for the server.* metrics.
  ServerMixResult mix = DriveServerMix(config, config.seconds / 2, &report);
  std::vector<double> waits, execs, reads, writes, mines;
  int64_t queued = 0;
  for (const ServerMixSample& sample : mix.samples) {
    waits.push_back(sample.queue_wait_ms);
    execs.push_back(sample.wall_ms - sample.queue_wait_ms);
    if (sample.queued) ++queued;
    switch (sample.kind) {
      case ServerMixSample::Kind::kCustomerRead:
      case ServerMixSample::Kind::kRangeRead:
        reads.push_back(sample.wall_ms);
        break;
      case ServerMixSample::Kind::kInsert:
        writes.push_back(sample.wall_ms);
        break;
      case ServerMixSample::Kind::kMineRule:
        mines.push_back(sample.wall_ms);
        break;
    }
  }
  if (!mix.samples.empty()) {
    tracer.Sample("server.queue_wait_p50_ms", Percentile(waits, 0.5));
    tracer.Sample("server.queue_wait_p99_ms", Percentile(waits, 0.99));
    tracer.Sample("server.exec_p50_ms", Percentile(execs, 0.5));
    tracer.Sample("server.exec_p99_ms", Percentile(execs, 0.99));
    tracer.Sample("server.queued_frac",
                  static_cast<double>(queued) /
                      static_cast<double>(mix.samples.size()));
    tracer.Sample("server.read_p50_ms", Percentile(reads, 0.5));
    tracer.Sample("server.read_p99_ms", Percentile(reads, 0.99));
    tracer.Sample("server.write_p50_ms", Percentile(writes, 0.5));
    tracer.Sample("server.mine_p50_ms", Percentile(mines, 0.5));
    tracer.Sample("server.mine_p90_ms", Percentile(mines, 0.9));
  }

  // Second half: the mix's MINE RULE statement on its own, for the layers.
  Status status = TraceMining(ServerMixMiningWorkload(), config,
                              DeadlineIn(config.seconds / 2),
                              /*run_decoupled=*/false, &tracer, &report);
  if (!status.ok()) {
    report.Fail("traced run: " + status.ToString());
    return report;
  }
  Finish(config, tracer, &report);
  return report;
}

}  // namespace minerule::bench
