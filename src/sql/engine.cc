#include "sql/engine.h"

#include <cerrno>
#include <cstdlib>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "sql/ast.h"
#include "sql/parser.h"
#include "sql/planner.h"

namespace minerule::sql {

namespace {

/// The INSERT sink's column path: every batch of the opened `root`, in
/// morsel order, gathered column by column into the target's layout.
/// Produced column i lands at positions[i]; every other column is all-NULL.
Result<std::shared_ptr<const ColumnarTable>> GatherInsertColumns(
    ExecNode* root, int num_threads, const Schema& schema,
    const std::vector<size_t>& positions) {
  std::vector<Batch> morsels(
      MorselCount(root->MorselInputRows(), kMorselRows));
  MR_RETURN_IF_ERROR(
      ForEachBatch(root, num_threads, [&](size_t m, Batch* batch) {
        morsels[m] = std::move(*batch);
        return Status::OK();
      }));
  auto out = std::make_shared<ColumnarTable>();
  out->schema = schema;
  for (const Batch& batch : morsels) out->num_rows += batch.size();
  out->columns.resize(schema.num_columns());
  std::vector<bool> produced(schema.num_columns(), false);
  std::vector<ColumnVector::Slice> slices;
  for (size_t i = 0; i < positions.size(); ++i) {
    slices.clear();
    for (const Batch& batch : morsels) {
      if (!batch.sel.empty()) {
        slices.push_back({batch.columns[i].get(), batch.sel});
      }
    }
    const size_t target = positions[i];
    out->columns[target] =
        ColumnVector::Gather(schema.column(target).type, slices);
    produced[target] = true;
  }
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (produced[c]) continue;
    out->columns[c] = ColumnVector::FromValues(
        schema.column(c).type, std::vector<Value>(out->num_rows));
  }
  return std::shared_ptr<const ColumnarTable>(std::move(out));
}

}  // namespace

SqlEngine::SqlEngine(Catalog* catalog) : catalog_(catalog) {
  // MINERULE_MEMORY_LIMIT (bytes) seeds the operator memory budget so whole
  // test suites and benchmarks can be rerun under a tiny budget — forcing
  // the spill paths of DESIGN.md §13 — without touching their code. An
  // unparsable value is ignored (budget stays off).
  if (const char* env = std::getenv("MINERULE_MEMORY_LIMIT")) {
    char* end = nullptr;
    errno = 0;
    const long long parsed = std::strtoll(env, &end, 10);
    if (end != env && *end == '\0' && errno == 0) {
      memory_limit_ = static_cast<int64_t>(parsed);
    }
  }
}

std::string QueryResult::ToDisplayString(size_t max_rows) const {
  Table tmp("result", schema);
  for (const Row& row : rows) tmp.AppendUnchecked(row);
  return tmp.ToDisplayString(max_rows);
}

Result<QueryResult> SqlEngine::Execute(std::string_view sql) {
  MR_ASSIGN_OR_RETURN(Statement stmt, ParseSql(sql));
  return ExecuteStatement(&stmt);
}

Result<BatchResult> SqlEngine::ExecuteBatches(std::string_view select_sql) {
  MR_ASSIGN_OR_RETURN(auto stmt, ParseSelectSql(select_sql));
  if (!stmt->into_host_var.empty()) {
    return Status::SemanticError("ExecuteBatches does not assign INTO");
  }
  ExecContext ctx = MakeContext();
  Planner planner(catalog_, &ctx);
  MR_ASSIGN_OR_RETURN(PlannedSelect planned, planner.Plan(stmt.get()));
  BatchInput input;
  MR_RETURN_IF_ERROR(input.Open(planned.node.get(), num_threads_));
  BatchResult result;
  result.batches.resize(MorselCount(input.rows(), kMorselRows));
  MR_RETURN_IF_ERROR(input.ForEach(num_threads_, [&](size_t m, Batch* batch) {
    result.batches[m] = std::move(*batch);
    return Status::OK();
  }));
  RecordFeedback(planned);
  result.schema = std::move(planned.out_schema);
  return result;
}

Result<QueryResult> SqlEngine::ExecuteScript(std::string_view sql) {
  MR_ASSIGN_OR_RETURN(std::vector<Statement> stmts, ParseSqlScript(sql));
  QueryResult last;
  for (Statement& stmt : stmts) {
    MR_ASSIGN_OR_RETURN(last, ExecuteStatement(&stmt));
  }
  return last;
}

void SqlEngine::SetHostVariable(const std::string& name, Value value) {
  host_vars_[ToLower(name)] = std::move(value);
}

Result<Value> SqlEngine::GetHostVariable(const std::string& name) const {
  auto it = host_vars_.find(ToLower(name));
  if (it == host_vars_.end()) {
    return Status::NotFound("unset host variable :" + name);
  }
  return it->second;
}

ExecContext SqlEngine::MakeContext() {
  ExecContext ctx;
  ctx.catalog = catalog_;
  ctx.host_vars = &host_vars_;
  ctx.num_threads = num_threads_;
  ctx.memory_limit = memory_limit_;
  ctx.spill_dir = spill_dir_;
  ctx.stats = &statistics_;
  ctx.feedback = &feedback_;
  return ctx;
}

void SqlEngine::RecordFeedback(const PlannedSelect& planned) {
  for (const auto& [fingerprint, node] : planned.feedback) {
    // Zero counts are ambiguous — a probe-skipped subtree never ran its
    // scan — so only positive observations are trusted. Missing feedback
    // degrades to formula estimates; it never changes results.
    const int64_t observed = node->rows_out();
    if (observed > 0) feedback_.Record(fingerprint, observed);
  }
}

Result<QueryResult> SqlEngine::ExecuteStatement(Statement* stmt) {
  switch (stmt->kind) {
    case Statement::Kind::kSelect:
      return ExecuteSelect(stmt->select.get());
    case Statement::Kind::kCreateTable:
      return ExecuteCreateTable(stmt->create_table.get());
    case Statement::Kind::kCreateView:
      return ExecuteCreateView(stmt->create_view.get());
    case Statement::Kind::kCreateSequence:
      return ExecuteCreateSequence(stmt->create_sequence.get());
    case Statement::Kind::kDrop:
      return ExecuteDrop(stmt->drop.get());
    case Statement::Kind::kInsert:
      return ExecuteInsert(stmt->insert.get());
    case Statement::Kind::kDelete:
      return ExecuteDelete(stmt->del.get());
    case Statement::Kind::kUpdate:
      return ExecuteUpdate(stmt->update.get());
    case Statement::Kind::kExplain:
      return ExecuteExplain(stmt->explain.get());
    case Statement::Kind::kAnalyze:
      return ExecuteAnalyze(stmt->analyze.get());
  }
  return Status::Internal("unknown statement kind");
}

Result<QueryResult> SqlEngine::ExecuteSelect(SelectStmt* stmt) {
  ExecContext ctx = MakeContext();
  Planner planner(catalog_, &ctx);
  MR_ASSIGN_OR_RETURN(PlannedSelect planned, planner.Plan(stmt));
  MR_ASSIGN_OR_RETURN(std::vector<Row> rows,
                      CollectRowsParallel(planned.node.get(), num_threads_));
  RecordFeedback(planned);

  QueryResult result;
  result.schema = std::move(planned.out_schema);
  result.rows = std::move(rows);
  if (collect_operator_stats_) {
    result.profile = FlattenPlanProfile(planned.node.get());
  }

  if (!stmt->into_host_var.empty()) {
    if (result.rows.size() != 1 || result.schema.num_columns() != 1) {
      return Status::ExecutionError(
          "SELECT ... INTO :" + stmt->into_host_var +
          " requires a single scalar result, got " +
          std::to_string(result.rows.size()) + " row(s) x " +
          std::to_string(result.schema.num_columns()) + " column(s)");
    }
    SetHostVariable(stmt->into_host_var, result.rows[0][0]);
  }
  return result;
}

Result<QueryResult> SqlEngine::ExecuteCreateTable(CreateTableStmt* stmt) {
  QueryResult result;
  if (stmt->as_select != nullptr) {
    ExecContext ctx = MakeContext();
    Planner planner(catalog_, &ctx);
    MR_ASSIGN_OR_RETURN(PlannedSelect planned,
                        planner.Plan(stmt->as_select.get()));
    MR_ASSIGN_OR_RETURN(std::vector<Row> rows,
                        CollectRowsParallel(planned.node.get(), num_threads_));
    RecordFeedback(planned);
    if (collect_operator_stats_) {
      result.profile = FlattenPlanProfile(planned.node.get());
    }
    MR_ASSIGN_OR_RETURN(
        std::shared_ptr<Table> table,
        catalog_->CreateTable(stmt->name, planned.out_schema));
    table->Reserve(rows.size());
    for (Row& row : rows) {
      MR_RETURN_IF_ERROR(table->Append(std::move(row)));
    }
    result.affected_rows = static_cast<int64_t>(table->num_rows());
    return result;
  }
  MR_RETURN_IF_ERROR(
      catalog_->CreateTable(stmt->name, Schema(stmt->columns)).status());
  return result;
}

Result<QueryResult> SqlEngine::ExecuteCreateView(CreateViewStmt* stmt) {
  // Validate the body parses; execution happens lazily at reference time.
  MR_RETURN_IF_ERROR(ParseSelectSql(stmt->select_sql).status());
  MR_RETURN_IF_ERROR(catalog_->CreateView(stmt->name, stmt->select_sql));
  return QueryResult{};
}

Result<QueryResult> SqlEngine::ExecuteCreateSequence(
    CreateSequenceStmt* stmt) {
  MR_RETURN_IF_ERROR(catalog_->CreateSequence(stmt->name, stmt->start));
  return QueryResult{};
}

Result<QueryResult> SqlEngine::ExecuteDrop(DropStmt* stmt) {
  switch (stmt->object_kind) {
    case DropStmt::ObjectKind::kTable:
      if (stmt->if_exists) {
        catalog_->DropTableIfExists(stmt->name);
        return QueryResult{};
      }
      MR_RETURN_IF_ERROR(catalog_->DropTable(stmt->name));
      return QueryResult{};
    case DropStmt::ObjectKind::kView:
      if (stmt->if_exists) {
        catalog_->DropViewIfExists(stmt->name);
        return QueryResult{};
      }
      MR_RETURN_IF_ERROR(catalog_->DropView(stmt->name));
      return QueryResult{};
    case DropStmt::ObjectKind::kSequence:
      if (stmt->if_exists) {
        catalog_->DropSequenceIfExists(stmt->name);
        return QueryResult{};
      }
      MR_RETURN_IF_ERROR(catalog_->DropSequence(stmt->name));
      return QueryResult{};
  }
  return Status::Internal("unknown drop kind");
}

Result<QueryResult> SqlEngine::ExecuteInsert(InsertStmt* stmt) {
  MR_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                      catalog_->GetTable(stmt->table));
  const Schema& schema = table->schema();
  int64_t inserted = 0;

  // Map provided columns to table positions.
  std::vector<size_t> positions;
  if (stmt->columns.empty()) {
    positions.resize(schema.num_columns());
    for (size_t i = 0; i < positions.size(); ++i) positions[i] = i;
  } else {
    for (const std::string& name : stmt->columns) {
      MR_ASSIGN_OR_RETURN(size_t idx, schema.ResolveColumn(name));
      positions.push_back(idx);
    }
  }

  // Rows laid out for the target: produced column i lands at positions[i],
  // every other column is NULL.
  const size_t width = schema.num_columns();
  bool identity = positions.size() == width;
  for (size_t i = 0; identity && i < positions.size(); ++i) {
    identity = positions[i] == i;
  }
  auto target_row = [&](auto&& value_of) {
    Row full(width, Value::Null());
    for (size_t i = 0; i < positions.size(); ++i) {
      full[positions[i]] = value_of(i);
    }
    return full;
  };
  std::vector<Row> incoming;
  std::vector<OperatorProfile> profile;
  if (stmt->select != nullptr) {
    ExecContext ctx = MakeContext();
    Planner planner(catalog_, &ctx);
    MR_ASSIGN_OR_RETURN(PlannedSelect planned, planner.Plan(stmt->select.get()));
    if (planned.out_schema.num_columns() != positions.size()) {
      return Status::SemanticError(
          "INSERT column count mismatch: query produces " +
          std::to_string(planned.out_schema.num_columns()) +
          " columns, target expects " + std::to_string(positions.size()));
    }
    ExecNode* root = planned.node.get();
    MR_RETURN_IF_ERROR(root->Open());
    // An unbudgeted plan's batches into an empty table become its columns
    // of record when every produced column already has its target's type,
    // so the columns hold exactly what Append would store (DESIGN.md §12).
    bool store_columns = memory_limit_ < 0 && table->num_rows() == 0 &&
                         root->ProducesBatches();
    for (size_t i = 0; store_columns && i < positions.size(); ++i) {
      store_columns = planned.out_schema.column(i).type ==
                      schema.column(positions[i]).type;
    }
    if (store_columns) {
      MR_ASSIGN_OR_RETURN(
          std::shared_ptr<const ColumnarTable> columns,
          GatherInsertColumns(root, num_threads_, schema, positions));
      if (columns->num_rows > 0 && table->StoreColumns(columns)) {
        inserted = static_cast<int64_t>(columns->num_rows);
      } else {
        // No rows (the table keeps its version), or a column fell back to
        // the generic encoding: the values go through Append like any row.
        columns->AppendRows(&incoming);
      }
    } else {
      MR_RETURN_IF_ERROR(DrainOpenedNode(root, num_threads_, &incoming));
      if (!identity) {
        for (Row& in : incoming) {
          in = target_row([&](size_t i) { return std::move(in[i]); });
        }
      }
    }
    RecordFeedback(planned);
    if (collect_operator_stats_) {
      profile = FlattenPlanProfile(planned.node.get());
    }
  } else {
    ExecContext ctx{catalog_, &host_vars_};
    for (const std::vector<ExprPtr>& value_row : stmt->values_rows) {
      if (value_row.size() != positions.size()) {
        return Status::SemanticError("INSERT VALUES arity mismatch");
      }
      std::vector<Value> values;
      values.reserve(value_row.size());
      const Row empty;
      for (const ExprPtr& e : value_row) {
        // VALUES expressions are constant: bind against an empty scope.
        MR_RETURN_IF_ERROR(BindExpr(e.get(), BindScope{}, false));
        MR_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, empty, &ctx));
        values.push_back(std::move(v));
      }
      incoming.push_back(
          target_row([&](size_t i) { return std::move(values[i]); }));
    }
  }

  for (Row& full : incoming) {
    MR_RETURN_IF_ERROR(table->Append(std::move(full)));
    ++inserted;
  }
  QueryResult result;
  result.affected_rows = inserted;
  result.profile = std::move(profile);
  return result;
}

Result<QueryResult> SqlEngine::ExecuteExplain(ExplainStmt* stmt) {
  // EXPLAIN plans (and under ANALYZE, runs) the SELECT at the heart of the
  // target statement. Side effects are never applied: INSERT / CREATE TABLE
  // AS only have their source query executed, and SELECT ... INTO does not
  // assign its host variable.
  SelectStmt* select = nullptr;
  switch (stmt->target->kind) {
    case Statement::Kind::kSelect:
      select = stmt->target->select.get();
      break;
    case Statement::Kind::kInsert:
      select = stmt->target->insert->select.get();
      break;
    case Statement::Kind::kCreateTable:
      select = stmt->target->create_table->as_select.get();
      break;
    default:
      break;
  }
  if (select == nullptr) {
    return Status::SemanticError(
        "EXPLAIN supports SELECT, INSERT ... SELECT and "
        "CREATE TABLE ... AS SELECT");
  }

  ExecContext ctx = MakeContext();
  Planner planner(catalog_, &ctx);
  MR_ASSIGN_OR_RETURN(PlannedSelect planned, planner.Plan(select));
  if (stmt->analyze) {
    planned.node->EnableTimingTree(true);
    MR_RETURN_IF_ERROR(
        CollectRowsParallel(planned.node.get(), num_threads_).status());
    RecordFeedback(planned);
  }

  QueryResult result;
  result.schema.AddColumn(Column{"QUERY PLAN", DataType::kString});
  for (std::string& line : RenderPlan(planned.node.get(), stmt->analyze)) {
    result.rows.push_back(Row{Value::String(std::move(line))});
  }
  if (stmt->analyze) {
    result.profile = FlattenPlanProfile(planned.node.get());
  }
  return result;
}

Result<QueryResult> SqlEngine::ExecuteAnalyze(AnalyzeStmt* stmt) {
  // ANALYZE [table]: full statistics rebuild for one table or, with no
  // argument, every catalog table; affected_rows reports the number of
  // tables analyzed. Only ANALYZE creates statistics, and only FROM lists
  // of analyzed tables are planned from them (DESIGN.md §14).
  QueryResult result;
  std::vector<std::string> names;
  if (stmt->table.empty()) {
    names = catalog_->TableNames();
  } else {
    names.push_back(stmt->table);
  }
  for (const std::string& name : names) {
    MR_ASSIGN_OR_RETURN(std::shared_ptr<Table> table, catalog_->GetTable(name));
    statistics_.Analyze(table);
    ++result.affected_rows;
  }
  return result;
}

Result<QueryResult> SqlEngine::ExecuteDelete(DeleteStmt* stmt) {
  MR_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                      catalog_->GetTable(stmt->table));
  QueryResult result;
  if (stmt->where == nullptr) {
    result.affected_rows = static_cast<int64_t>(table->num_rows());
    table->Clear();
    return result;
  }
  BindScope scope;
  for (const Column& col : table->schema().columns()) {
    scope.Add(table->name(), col.name, col.type);
  }
  MR_RETURN_IF_ERROR(BindExpr(stmt->where.get(), scope, false));
  ExecContext ctx{catalog_, &host_vars_};
  std::vector<Row>& rows = table->mutable_rows();
  std::vector<Row> kept;
  kept.reserve(rows.size());
  for (Row& row : rows) {
    MR_ASSIGN_OR_RETURN(bool matches, EvalPredicate(*stmt->where, row, &ctx));
    if (matches) {
      ++result.affected_rows;
    } else {
      kept.push_back(std::move(row));
    }
  }
  rows = std::move(kept);
  return result;
}

Result<QueryResult> SqlEngine::ExecuteUpdate(UpdateStmt* stmt) {
  MR_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                      catalog_->GetTable(stmt->table));
  const Schema& schema = table->schema();
  BindScope scope;
  for (const Column& col : schema.columns()) {
    scope.Add(table->name(), col.name, col.type);
  }

  std::vector<size_t> positions;
  for (auto& [column, expr] : stmt->assignments) {
    MR_ASSIGN_OR_RETURN(size_t index, schema.ResolveColumn(column));
    positions.push_back(index);
    MR_RETURN_IF_ERROR(BindExpr(expr.get(), scope, false));
  }
  if (stmt->where != nullptr) {
    MR_RETURN_IF_ERROR(BindExpr(stmt->where.get(), scope, false));
  }

  ExecContext ctx{catalog_, &host_vars_};
  QueryResult result;
  for (Row& row : table->mutable_rows()) {
    if (stmt->where != nullptr) {
      MR_ASSIGN_OR_RETURN(bool matches,
                          EvalPredicate(*stmt->where, row, &ctx));
      if (!matches) continue;
    }
    // Evaluate all right-hand sides against the *old* row first, so
    // `SET a = b, b = a` swaps as SQL requires.
    std::vector<Value> new_values;
    new_values.reserve(positions.size());
    for (auto& [column, expr] : stmt->assignments) {
      MR_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr, row, &ctx));
      new_values.push_back(std::move(v));
    }
    for (size_t i = 0; i < positions.size(); ++i) {
      MR_ASSIGN_OR_RETURN(
          row[positions[i]],
          CoerceValueToColumn(new_values[i], schema.column(positions[i]).type,
                              schema.column(positions[i]).name));
    }
    ++result.affected_rows;
  }
  return result;
}

}  // namespace minerule::sql
