#include "engine/data_mining_system.h"

#include <algorithm>
#include <optional>

#include "common/json.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "sql/system_tables.h"

namespace minerule::mr {

namespace {

/// The error for a value of an encoded table that is not an integer;
/// `position` counts the columns read.
Status NotAnInteger(size_t position) {
  return Status::Internal("encoded table column " + std::to_string(position) +
                          " is not an integer");
}

/// Appends rows row_at(0..count-1) of `columns` to *out, row-major. Plain
/// int64 INTEGER columns without NULLs are copied; any other column is
/// checked value by value, in row-major order like a scan of the rows, so
/// the first value that is not an integer fails as it would there.
template <typename RowAt>
Status AppendIntegerRows(const std::vector<const ColumnVector*>& columns,
                         size_t count, RowAt row_at,
                         std::vector<int64_t>* out) {
  std::vector<const std::vector<int64_t>*> ints(columns.size(), nullptr);
  for (size_t c = 0; c < columns.size(); ++c) {
    const ColumnVector& column = *columns[c];
    if (column.encoding() == ColumnEncoding::kInt64 &&
        column.declared_type() == DataType::kInteger &&
        !column.nulls().AnyNull()) {
      ints[c] = &column.ints();
    }
  }
  for (size_t k = 0; k < count; ++k) {
    const size_t row = row_at(k);
    for (size_t c = 0; c < columns.size(); ++c) {
      if (ints[c] != nullptr) {
        out->push_back((*ints[c])[row]);
        continue;
      }
      const Value v = columns[c]->GetValue(row);
      if (v.type() != DataType::kInteger) return NotAnInteger(c);
      out->push_back(v.AsInteger());
    }
  }
  return Status::OK();
}

/// Visits `relation` and, for a view, everything its SELECT reads, up to
/// `depth` levels of views.
void VisitSourceRelation(const Catalog& catalog, const std::string& relation,
                         int depth, const SourceVisitor& visit) {
  if (depth <= 0) return;
  if (catalog.HasView(relation)) {
    auto view = catalog.GetView(relation);
    if (!view.ok()) return;
    visit(relation, &*view, nullptr);
    auto select = sql::ParseSelectSql(view->select_sql);
    if (!select.ok()) return;
    // Walk the view's FROM list, including nested subqueries.
    std::vector<const sql::SelectStmt*> pending{select->get()};
    while (!pending.empty()) {
      const sql::SelectStmt* stmt = pending.back();
      pending.pop_back();
      for (const sql::TableRef& ref : stmt->from) {
        if (ref.kind == sql::TableRef::Kind::kSubquery) {
          if (ref.subquery) pending.push_back(ref.subquery.get());
        } else {
          VisitSourceRelation(catalog, ref.name, depth - 1, visit);
        }
      }
    }
    return;
  }
  Result<std::shared_ptr<Table>> table = catalog.GetTable(relation);
  visit(relation, nullptr, table.ok() ? *table : nullptr);
}

}  // namespace

void VisitSourceRelations(const Catalog& catalog,
                          const std::vector<sql::TableRef>& from,
                          const SourceVisitor& visit) {
  for (const sql::TableRef& ref : from) {
    VisitSourceRelation(catalog, ref.name, sql::Planner::kMaxViewDepth + 1,
                        visit);
  }
}

std::string SourceFingerprint(const Catalog& catalog,
                              const std::vector<sql::TableRef>& from) {
  std::string fingerprint;
  VisitSourceRelations(
      catalog, from,
      [&](const std::string& name, const ViewDef* view,
          const std::shared_ptr<Table>& table) {
        if (view != nullptr) {
          fingerprint += "view:" + ToLower(name) + "=" + view->select_sql + ",";
        } else {
          fingerprint += ToLower(name) + "@" +
                         std::to_string(table ? table->version() : 0) + ",";
        }
      });
  return fingerprint;
}

std::string DataMiningSystem::PreprocessCacheKey(
    const MineRuleStatement& stmt) const {
  // Only the clauses that reach the generated SQL matter: body/head
  // schemas, FROM / source condition, grouping, clustering, the mining
  // condition, and the support threshold (it sets :mingroups). The
  // cardinalities, the SUPPORT/CONFIDENCE projection flags, the confidence
  // threshold and the output table name only affect later phases.
  std::string key;
  key += "B:" + ToLower(Join(stmt.body_schema, ",")) + ";";
  key += "H:" + ToLower(Join(stmt.head_schema, ",")) + ";";
  key += "M:" + (stmt.mining_cond ? stmt.mining_cond->ToSql() : "") + ";";
  key += "F:";
  for (const sql::TableRef& ref : stmt.from) {
    key += ToLower(ref.name) + " " + ToLower(ref.alias) + ",";
  }
  key += ";W:" + (stmt.source_cond ? stmt.source_cond->ToSql() : "") + ";";
  key += "G:" + ToLower(Join(stmt.group_attrs, ",")) + ";";
  key += "GC:" + (stmt.group_cond ? stmt.group_cond->ToSql() : "") + ";";
  key += "C:" + ToLower(Join(stmt.cluster_attrs, ",")) + ";";
  key += "CC:" + (stmt.cluster_cond ? stmt.cluster_cond->ToSql() : "") + ";";
  key += "S:" + std::to_string(stmt.min_support);
  // Source data epochs: any DML on (or drop/recreate of) a source table
  // changes its version and thus the key, so a stale cache entry can never
  // be served. Views are expanded to the base tables they read.
  key += ";V:" + SourceFingerprint(*catalog_, stmt.from);
  return key;
}

namespace {

void WriteIntArray(JsonWriter* w, const std::vector<int64_t>& values) {
  w->BeginArray();
  for (int64_t v : values) w->Int(v);
  w->EndArray();
}

void WriteQueryStats(JsonWriter* w, const std::vector<QueryStat>& stats) {
  w->BeginArray();
  for (const QueryStat& q : stats) {
    w->BeginObject();
    w->Key("id").String(q.id);
    w->Key("sql").String(q.sql);
    w->Key("micros").Int(q.micros);
    w->Key("rows").Int(q.rows);
    w->Key("operators").BeginArray();
    for (const sql::OperatorProfile& op : q.operators) {
      w->BeginObject();
      w->Key("name").String(op.name);
      w->Key("detail").String(op.detail);
      w->Key("depth").Int(op.depth);
      w->Key("rows").Int(op.rows);
      w->Key("micros").Int(op.micros);
      w->Key("counters").BeginObject();
      for (const auto& [key, value] : op.counters) w->Key(key).Int(value);
      w->EndObject();
      w->EndObject();
    }
    w->EndArray();
    w->EndObject();
  }
  w->EndArray();
}

}  // namespace

std::string MiningRunStats::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("directives").String(directives.ToString());
  w.Key("run_id").Int(run_id);
  w.Key("total_groups").Int(total_groups);
  w.Key("min_group_count").Int(min_group_count);
  w.Key("preprocessing_reused").Bool(preprocessing_reused);
  w.Key("engine_threads").Int(engine_threads);
  w.Key("peak_bytes").Int(peak_bytes);

  w.Key("phases").BeginObject();
  w.Key("translate_seconds").Double(translate_seconds);
  w.Key("preprocess_seconds").Double(preprocess_seconds);
  w.Key("core_seconds").Double(core_seconds);
  w.Key("handoff_seconds").Double(handoff_seconds);
  w.Key("postprocess_seconds").Double(postprocess_seconds);
  w.Key("total_seconds").Double(TotalSeconds());
  w.EndObject();

  w.Key("preprocess_queries");
  WriteQueryStats(&w, preprocess_queries);
  w.Key("postprocess_queries");
  WriteQueryStats(&w, postprocess_queries);

  w.Key("core").BeginObject();
  w.Key("used_general").Bool(core.used_general);
  w.Key("algorithm").String(core.algorithm);
  w.Key("rules_found").Int(core.rules_found);
  if (core.used_general) {
    w.Key("general").BeginObject();
    w.Key("elementary_candidates").Int(core.general.elementary_candidates);
    w.Key("elementary_rules").Int(core.general.elementary_rules);
    w.Key("body_supports_computed").Int(core.general.body_supports_computed);
    w.Key("cells_evaluated").Int(core.general.cells_evaluated);
    w.Key("sets").BeginArray();
    for (const auto& set : core.general.sets) {
      w.BeginObject();
      w.Key("body_size").Int(set.body_size);
      w.Key("head_size").Int(set.head_size);
      w.Key("candidates").Int(set.candidates);
      w.Key("kept").Int(set.kept);
      w.Key("from_body_extension").Bool(set.from_body_extension);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  } else {
    w.Key("simple").BeginObject();
    w.Key("passes").Int(core.simple.passes);
    w.Key("candidates_per_level");
    WriteIntArray(&w, core.simple.candidates_per_level);
    w.Key("large_per_level");
    WriteIntArray(&w, core.simple.large_per_level);
    w.Key("sampling_needed_full_pass")
        .Bool(core.simple.sampling_needed_full_pass);
    w.Key("dhp_unfiltered_pairs").Int(core.simple.dhp_unfiltered_pairs);
    w.Key("dhp_filtered_pairs").Int(core.simple.dhp_filtered_pairs);
    w.Key("partition_slice_sizes");
    WriteIntArray(&w, core.simple.partition_slice_sizes);
    w.EndObject();
  }
  w.EndObject();

  w.Key("thread_pool").BeginObject();
  w.Key("workers").Int(pool.workers);
  w.Key("tasks_run").Int(pool.tasks_run);
  w.Key("busy_micros").Int(pool.busy_micros);
  w.Key("per_worker_busy_micros");
  WriteIntArray(&w, pool.per_worker_busy_micros);
  w.EndObject();

  w.EndObject();
  return w.str();
}

Result<std::vector<int64_t>> DataMiningSystem::ReadEncoded(
    const std::string& relation, const std::vector<std::string>& columns) {
  // A view (the general class's DISTINCT CodedSourceB/H) is a query: the
  // engine runs it and hands over its batches' int64 columns. A base table
  // is read in place, in row order, as the engine's scan would return it:
  // its columns of record when it is column-stored, else its rows. Either
  // way no result set is built in between.
  std::vector<int64_t> values;
  if (catalog_->HasView(relation)) {
    MR_ASSIGN_OR_RETURN(sql::BatchResult result,
                        sql_engine_.ExecuteBatches("SELECT " +
                                                   Join(columns, ", ") +
                                                   " FROM " + relation));
    size_t rows = 0;
    for (const sql::Batch& batch : result.batches) rows += batch.size();
    values.reserve(rows * columns.size());
    std::vector<const ColumnVector*> selected(columns.size());
    for (const sql::Batch& batch : result.batches) {
      for (size_t c = 0; c < columns.size(); ++c) {
        selected[c] = batch.columns[c].get();
      }
      MR_RETURN_IF_ERROR(AppendIntegerRows(
          selected, batch.size(), [&](size_t k) { return batch.sel[k]; },
          &values));
    }
    return values;
  }
  MR_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                      catalog_->GetTable(relation));
  std::vector<size_t> indices;
  for (const std::string& column : columns) {
    MR_ASSIGN_OR_RETURN(size_t index, table->schema().ResolveColumn(column));
    indices.push_back(index);
  }
  if (table->column_stored()) {
    const std::shared_ptr<const ColumnarTable> stored = table->Columnar();
    std::vector<const ColumnVector*> selected;
    for (size_t index : indices) selected.push_back(&stored->columns[index]);
    values.reserve(stored->num_rows * indices.size());
    MR_RETURN_IF_ERROR(AppendIntegerRows(
        selected, stored->num_rows, [](size_t k) { return k; }, &values));
    return values;
  }
  const std::vector<Row>& rows = table->rows();
  values.reserve(rows.size() * indices.size());
  for (const Row& row : rows) {
    for (size_t c = 0; c < indices.size(); ++c) {
      const size_t index = indices[c];
      if (index >= row.size() || row[index].type() != DataType::kInteger) {
        return NotAnInteger(c);
      }
      values.push_back(row[index].AsInteger());
    }
  }
  return values;
}

Result<mining::CodedSourceData> DataMiningSystem::FetchEncodedData(
    const PreprocessProgram& program, const Directives& directives) {
  mining::CodedSourceData data;

  if (!program.coded_source.empty()) {
    MR_ASSIGN_OR_RETURN(std::vector<int64_t> values,
                        ReadEncoded(program.coded_source, {"Gid", "Bid"}));
    data.simple_pairs.reserve(values.size() / 2);
    for (size_t i = 0; i < values.size(); i += 2) {
      data.simple_pairs.emplace_back(
          static_cast<mining::Gid>(values[i]),
          static_cast<mining::ItemId>(values[i + 1]));
    }
    return data;
  }

  // Role rows are (Gid[, Cid], item); without clusters every item belongs
  // to the group's one implicit cluster.
  auto fetch_role = [&](const std::string& relation, const char* item_col,
                        std::vector<mining::CodedSourceData::RoleRow>* out)
      -> Status {
    std::vector<std::string> columns = {"Gid"};
    if (directives.C) columns.push_back("Cid");
    columns.push_back(item_col);
    MR_ASSIGN_OR_RETURN(std::vector<int64_t> values,
                        ReadEncoded(relation, columns));
    const size_t width = columns.size();
    out->reserve(values.size() / width);
    for (size_t i = 0; i < values.size(); i += width) {
      out->push_back(
          {static_cast<mining::Gid>(values[i]),
           directives.C ? static_cast<mining::Cid>(values[i + 1])
                        : mining::kNoCluster,
           static_cast<mining::ItemId>(values[i + width - 1])});
    }
    return Status::OK();
  };

  MR_RETURN_IF_ERROR(
      fetch_role(program.coded_source_b, "Bid", &data.body_rows));
  if (!program.coded_source_h.empty()) {
    MR_RETURN_IF_ERROR(
        fetch_role(program.coded_source_h, "Hid", &data.head_rows));
  }

  if (!program.cluster_couples.empty()) {
    MR_ASSIGN_OR_RETURN(
        std::vector<int64_t> values,
        ReadEncoded(program.cluster_couples, {"Gid", "BCid", "HCid"}));
    data.cluster_couples.reserve(values.size() / 3);
    for (size_t i = 0; i < values.size(); i += 3) {
      data.cluster_couples.emplace_back(
          static_cast<mining::Gid>(values[i]),
          static_cast<mining::Cid>(values[i + 1]),
          static_cast<mining::Cid>(values[i + 2]));
    }
  }

  if (!program.input_rules.empty()) {
    const std::vector<std::string> columns =
        directives.C ? std::vector<std::string>{"Gid", "BCid", "HCid", "Bid",
                                                "Hid"}
                     : std::vector<std::string>{"Gid", "Bid", "Hid"};
    MR_ASSIGN_OR_RETURN(std::vector<int64_t> values,
                        ReadEncoded(program.input_rules, columns));
    const size_t width = columns.size();
    data.input_rules.reserve(values.size() / width);
    for (size_t i = 0; i < values.size(); i += width) {
      mining::GeneralInput::ElementaryOccurrence occ;
      occ.gid = static_cast<mining::Gid>(values[i]);
      occ.bcid = directives.C ? static_cast<mining::Cid>(values[i + 1])
                              : mining::kNoCluster;
      occ.hcid = directives.C ? static_cast<mining::Cid>(values[i + 2])
                              : mining::kNoCluster;
      occ.bid = static_cast<mining::ItemId>(values[i + width - 2]);
      occ.hid = static_cast<mining::ItemId>(values[i + width - 1]);
      data.input_rules.push_back(occ);
    }
  }
  return data;
}

Result<MiningRunStats> DataMiningSystem::ExecuteMineRule(
    std::string_view text, const MiningOptions& options) {
  Result<MineRuleStatement> stmt = ParseMineRule(text);
  if (stmt.ok()) return ExecuteStatement(*stmt, options);
  // A statement the parser rejects still gets its one mr_runs row.
  Result<MiningRunStats> result = stmt.status();
  RecordRun(std::string(text), options, /*total_micros=*/0, &result);
  return result;
}

Result<MiningRunStats> DataMiningSystem::ExecuteStatement(
    const MineRuleStatement& stmt, const MiningOptions& options,
    const InstallHook& install) {
  Stopwatch total;
  Result<MiningRunStats> result = ExecuteStatementImpl(stmt, options);
  if (install) {
    install(&result, [&] { return ExecuteStatementImpl(stmt, options); });
  }
  RecordRun(stmt.ToString(), options, total.ElapsedMicros(), &result);
  return result;
}

void DataMiningSystem::RecordRun(std::string statement,
                                 const MiningOptions& options,
                                 int64_t total_micros,
                                 Result<MiningRunStats>* result) {
  // Every execution — success or failure — becomes one row of the mr_runs
  // system table and feeds the engine.* metrics, so the telemetry is
  // queryable through the same SQL engine that ran the pipeline
  // (DESIGN.md §11).
  MiningRunStats* stats = result->ok() ? &**result : nullptr;
  sql::RunRecord run;
  run.statement = std::move(statement);
  run.threads = ResolveThreadCount(options.num_threads);
  run.total_micros = total_micros;
  run.session_id = attribution_.session_id;
  run.queue_wait_micros = attribution_.queue_wait_micros;
  run.admission = attribution_.admission;
  if (stats != nullptr) {
    run.rules = stats->core.rules_found;
    run.peak_bytes = stats->peak_bytes;
    run.reused_preprocess = stats->preprocessing_reused;
    run.queries = stats->preprocess_queries;
    run.queries.insert(run.queries.end(), stats->postprocess_queries.begin(),
                       stats->postprocess_queries.end());
  } else {
    run.status = result->status().ToString();
  }

  static Counter* runs = GlobalMetrics().GetCounter("engine.runs");
  static Counter* failed = GlobalMetrics().GetCounter("engine.failed_runs");
  static Counter* rules_found =
      GlobalMetrics().GetCounter("engine.rules_found");
  static Histogram* run_micros = GlobalMetrics().GetHistogram(
      "engine.run_micros", LatencyBucketsMicros());
  runs->Increment();
  run_micros->Observe(total_micros);
  if (stats != nullptr) {
    rules_found->Add(stats->core.rules_found);
    GlobalMetrics().GetGauge("engine.peak_bytes")->UpdateMax(
        stats->peak_bytes);
  } else {
    failed->Increment();
  }

  const int64_t run_id = sql::GlobalObservability().RecordRun(std::move(run));
  if (stats != nullptr) stats->run_id = run_id;
}

Result<MiningRunStats> DataMiningSystem::ExecuteStatementImpl(
    const MineRuleStatement& stmt, const MiningOptions& options) {
  MiningRunStats stats;

  // Stage spans for the Chrome trace export; each phase below re-emplaces
  // the span, closing the previous stage at that instant. Inert (one
  // relaxed atomic load each) unless --trace-out enabled the tracer.
  GlobalTracer().SetCurrentThreadName("main");
  std::optional<ScopedSpan> stage_span;

  // The SQL phases (preprocessor Q0..Q11, postprocessor) run morsel-parallel
  // at the same width as the core operator; phases are sequential on the one
  // shared pool, so this never oversubscribes.
  sql_engine_.set_num_threads(options.num_threads);
  if (options.memory_limit != MiningOptions::kMemoryLimitInherit) {
    sql_engine_.set_memory_limit(options.memory_limit);
  }
  stats.engine_threads = ResolveThreadCount(options.num_threads);

  // --- translator --------------------------------------------------------
  stage_span.emplace("translate", "phase");
  Stopwatch phase;
  Translator translator(
      catalog_, [this](const std::string& view) -> Result<Schema> {
        // Resolve a view's output schema by planning (not executing) a
        // zero-row probe through the SQL engine.
        MR_ASSIGN_OR_RETURN(sql::QueryResult probe,
                            sql_engine_.Execute("SELECT * FROM " + view +
                                                " LIMIT 0"));
        return probe.schema;
      });
  MR_ASSIGN_OR_RETURN(Translation translation, translator.Translate(stmt));
  stats.directives = translation.directives;
  stats.translate_seconds = phase.ElapsedSeconds();

  // --- preprocessor ------------------------------------------------------
  stage_span.emplace("preprocess", "phase");
  phase.Restart();
  const std::string cache_key = PreprocessCacheKey(stmt);
  PreprocessResult* preprocess = nullptr;
  if (options.reuse_preprocessing && cache_key_ == cache_key &&
      cached_preprocess_.has_value()) {
    preprocess = &*cached_preprocess_;
    stats.preprocessing_reused = true;
  } else {
    Preprocessor preprocessor(&sql_engine_);
    MR_ASSIGN_OR_RETURN(PreprocessResult fresh,
                        preprocessor.Run(stmt, translation));
    // Only queries that ran belong to this run: a cache hit reports none.
    stats.preprocess_queries = std::move(fresh.stats);
    cached_preprocess_ = std::move(fresh);
    cache_key_ = cache_key;
    preprocess = &*cached_preprocess_;
  }
  stats.total_groups = preprocess->total_groups;
  stats.min_group_count = preprocess->min_group_count;
  stats.preprocess_seconds = phase.ElapsedSeconds();

  // --- core operator -----------------------------------------------------
  stage_span.emplace("core", "phase");
  phase.Restart();
  const ThreadPoolStats pool_before = SharedThreadPool().Stats();
  mining::CoreDirectives core_directives;
  core_directives.general = !translation.directives.IsSimpleClass();
  core_directives.has_clusters = translation.directives.C;
  core_directives.distinct_head = translation.directives.H;
  core_directives.has_input_rules = translation.directives.M;
  core_directives.has_cluster_couples = translation.directives.K;

  std::optional<ScopedSpan> handoff_span(std::in_place, "core.handoff",
                                          "core");
  MR_ASSIGN_OR_RETURN(
      mining::CodedSourceData data,
      FetchEncodedData(preprocess->program, translation.directives));
  handoff_span.reset();
  stats.handoff_seconds = phase.ElapsedSeconds();
  data.total_groups = preprocess->total_groups;

  // Coded-table cache footprint (the in-memory copy handed to the miners).
  const int64_t coded_bytes = static_cast<int64_t>(
      data.simple_pairs.size() *
          sizeof(decltype(data.simple_pairs)::value_type) +
      data.body_rows.size() * sizeof(decltype(data.body_rows)::value_type) +
      data.head_rows.size() * sizeof(decltype(data.head_rows)::value_type) +
      data.cluster_couples.size() *
          sizeof(decltype(data.cluster_couples)::value_type) +
      data.input_rules.size() *
          sizeof(decltype(data.input_rules)::value_type));
  GlobalMetrics().GetGauge("engine.coded_cache_bytes")->UpdateMax(coded_bytes);

  mining::CoreOptions core_options;
  core_options.algorithm = options.algorithm;
  core_options.num_threads = options.num_threads;
  MR_ASSIGN_OR_RETURN(
      std::vector<mining::MinedRule> rules,
      RunCoreOperator(data, core_directives, stmt.min_support,
                      stmt.min_confidence, stmt.body_card, stmt.head_card,
                      core_options, &stats.core));
  stats.core_seconds = phase.ElapsedSeconds();

  // Attribute shared-pool usage to this run's core phase by delta. Anything
  // else on the pool meanwhile counts too: in a server, the statements
  // other sessions run beside this unlatched core phase (PoolUsage).
  const ThreadPoolStats pool_after = SharedThreadPool().Stats();
  stats.pool.workers = SharedThreadPool().size();
  stats.pool.tasks_run = pool_after.tasks_run - pool_before.tasks_run;
  stats.pool.busy_micros = pool_after.busy_micros - pool_before.busy_micros;
  stats.pool.per_worker_busy_micros.resize(
      pool_after.per_worker_busy_micros.size());
  for (size_t i = 0; i < pool_after.per_worker_busy_micros.size(); ++i) {
    stats.pool.per_worker_busy_micros[i] =
        pool_after.per_worker_busy_micros[i] -
        pool_before.per_worker_busy_micros[i];
  }

  // --- postprocessor -----------------------------------------------------
  stage_span.emplace("postprocess", "phase");
  phase.Restart();
  Postprocessor postprocessor(&sql_engine_);
  MR_ASSIGN_OR_RETURN(
      stats.output,
      postprocessor.Run(stmt, translation, rules, preprocess->total_groups,
                        preprocess->program, &stats.postprocess_queries));
  stats.postprocess_seconds = phase.ElapsedSeconds();

  // Peak working-set estimate: the coded cache is alive for the whole core
  // phase; generated queries run one at a time, so only the widest query's
  // operator buffers (summed est_bytes counters) add on top.
  int64_t widest_query_bytes = 0;
  for (const auto* queries :
       {&stats.preprocess_queries, &stats.postprocess_queries}) {
    for (const QueryStat& q : *queries) {
      int64_t bytes = 0;
      for (const sql::OperatorProfile& op : q.operators) {
        bytes += op.Counter("est_bytes");
      }
      widest_query_bytes = std::max(widest_query_bytes, bytes);
    }
  }
  stats.peak_bytes = coded_bytes + widest_query_bytes;

  executed_[ToLower(stmt.output_table)] =
      RenderInfo{stmt.select_support, stmt.select_confidence};

  if (!options.keep_encoded_tables) {
    // Rerun the idempotent drops; this also invalidates the cache.
    for (const GeneratedQuery& q : preprocess->program.drops) {
      MR_RETURN_IF_ERROR(sql_engine_.Execute(q.sql).status());
    }
    // The postprocessor's fixed-name normalized output is scratch too.
    catalog_->DropTableIfExists("OutputBodies");
    catalog_->DropTableIfExists("OutputHeads");
    InvalidateCache();
    cached_preprocess_.reset();
  }
  return stats;
}

Result<std::string> DataMiningSystem::RenderRules(
    const std::string& output_table) {
  auto it = executed_.find(ToLower(output_table));
  if (it == executed_.end()) {
    return Status::NotFound("no MINE RULE run produced table " + output_table);
  }
  MineRuleStatement stmt;
  stmt.output_table = output_table;
  stmt.select_support = it->second.select_support;
  stmt.select_confidence = it->second.select_confidence;
  return RenderRuleTable(&sql_engine_, stmt);
}

}  // namespace minerule::mr
