#include "sql/operators.h"

#include <algorithm>
#include <cstdio>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "sql/binder.h"
#include "sql/operators_spill_state.h"
#include "sql/spill.h"

namespace minerule::sql {

/// Estimated in-memory footprint of one materialized row: the inline Value
/// storage plus string heap payloads. Used with sampled rows for the
/// rows-times-width working-set estimates (DESIGN.md §11).
int64_t EstimateRowBytes(const Row& row) {
  int64_t bytes = static_cast<int64_t>(sizeof(Row));
  for (const Value& v : row) {
    bytes += static_cast<int64_t>(sizeof(Value));
    if (v.type() == DataType::kString) {
      bytes += static_cast<int64_t>(v.AsString().size());
    }
  }
  return bytes;
}

/// rows times the mean width of up to 64 evenly spaced sample rows. One
/// sampled row is not enough: variable-width (string-bearing) buffers can
/// be misestimated by orders of magnitude when the first row happens to be
/// atypically narrow or wide.
int64_t SampledRowsBytes(const std::vector<Row>& rows) {
  if (rows.empty()) return 0;
  const size_t n = rows.size();
  const size_t samples = n < 64 ? n : 64;
  int64_t width_sum = 0;
  for (size_t s = 0; s < samples; ++s) {
    width_sum += EstimateRowBytes(rows[s * n / samples]);
  }
  return static_cast<int64_t>(n) *
         (width_sum / static_cast<int64_t>(samples));
}

int64_t AccountBufferBytes(const char* gauge, const std::vector<Row>& rows) {
  const int64_t bytes = SampledRowsBytes(rows);
  if (bytes > 0) GlobalMetrics().GetGauge(gauge)->UpdateMax(bytes);
  return bytes;
}

namespace {

/// Workers a morsel loop over `total` input rows actually uses: the thread
/// knob resolved against hardware, clamped by the number of morsels.
int MorselWorkers(size_t total, int num_threads) {
  const size_t morsels = MorselCount(total, kMorselRows);
  return static_cast<int>(std::min(
      morsels, static_cast<size_t>(ResolveThreadCount(num_threads))));
}

/// Returns the first non-OK status in index order (the serial pass would
/// have failed on exactly that morsel first, and within a morsel rows are
/// processed sequentially, so the error message matches the serial one).
Status FirstError(const std::vector<Status>& statuses) {
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return Status::OK();
}

/// Whether a unary operator (Filter, Project, Distinct) runs on batches.
/// An unbudgeted plan batches it; a budgeted one only when parallel workers
/// can drive its child's batches, so a serial budgeted plan runs on rows
/// throughout and stays an independent reference for the batch operators.
/// Either way an operator that draws NEXTVAL (`pure` false) over an input
/// that draws too runs on rows: a batch would draw a whole morsel in the
/// input before the first draw of its own, where rows interleave the two.
bool UnaryBatched(const ExecContext& ctx, const ExecNode& child, bool pure) {
  const bool batches = ctx.memory_limit < 0 ||
                       (ctx.num_threads != 1 && child.ProducesBatches());
  return batches && (pure || child.SideEffectFree());
}

}  // namespace

// ---------------------------------------------------------------------------
// Batches
// ---------------------------------------------------------------------------

void Batch::MaterializeRow(uint32_t row, Row* out) const {
  out->clear();
  out->reserve(columns.size());
  for (const auto& column : columns) out->push_back(column->GetValue(row));
}

void Batch::AppendRows(std::vector<Row>* out) const {
  out->reserve(out->size() + sel.size());
  for (uint32_t row : sel) {
    Row materialized;
    MaterializeRow(row, &materialized);
    out->push_back(std::move(materialized));
  }
}

void Batch::Densify() {
  for (auto& column : columns) {
    if (sel.size() == column->size()) continue;  // already dense (sel ascends)
    column = std::make_shared<const ColumnVector>(
        ColumnVector::Gather(*column, sel));
  }
  for (size_t k = 0; k < sel.size(); ++k) sel[k] = static_cast<uint32_t>(k);
}

void EncodeRowsBatch(const Schema& schema, const std::vector<Row>& rows,
                     size_t begin, size_t end, Batch* out) {
  out->columns.reserve(schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    out->columns.push_back(std::make_shared<const ColumnVector>(
        ColumnVector::EncodeRange(schema.column(c).type, rows, c, begin,
                                  end)));
  }
  out->sel.resize(end - begin);
  for (size_t k = 0; k < end - begin; ++k) out->sel[k] = static_cast<uint32_t>(k);
}

void ColumnSet::Serve(size_t begin, size_t end, Batch* out) const {
  out->columns = columns;
  out->sel.resize(end - begin);
  for (size_t k = 0; k < end - begin; ++k) {
    out->sel[k] = static_cast<uint32_t>(begin + k);
  }
}

int64_t ColumnSet::ByteSize() const {
  int64_t bytes = 0;
  for (const auto& column : columns) bytes += column->ByteSize();
  return bytes;
}

Result<bool> ExecNode::NextFromBatches(Row* out) {
  if (cursor_ == nullptr) cursor_ = std::make_unique<RowCursor>();
  RowCursor& cursor = *cursor_;
  while (cursor.pos >= cursor.batch.size()) {
    const size_t total = MorselInputRows();
    if (cursor.next_begin >= total) return false;
    const size_t end = std::min(cursor.next_begin + kMorselRows, total);
    cursor.batch.Clear();
    // Rows are counted by Next(); only the batch is tallied here.
    MR_RETURN_IF_ERROR(EvaluateBatchImpl(cursor.next_begin, end, &cursor.batch));
    batches_.fetch_add(1, std::memory_order_relaxed);
    cursor.next_begin = end;
    cursor.pos = 0;
  }
  cursor.batch.MaterializeRow(cursor.batch.sel[cursor.pos++], out);
  return true;
}

namespace {

/// Runs run(m, begin, end) over the morsels of [0, total): on up to
/// num_threads workers when `parallel`, else serially in morsel order,
/// stopping at the first error. Returns the first error in morsel order and
/// the worker count used (0 when serial).
std::pair<Status, int> RunMorsels(
    size_t total, int num_threads, bool parallel,
    const std::function<Status(size_t, size_t, size_t)>& run) {
  const size_t morsels = MorselCount(total, kMorselRows);
  if (!parallel || num_threads == 1) {
    for (size_t m = 0; m < morsels; ++m) {
      Status status = run(m, m * kMorselRows,
                          std::min(total, (m + 1) * kMorselRows));
      if (!status.ok()) return {status, 0};
    }
    return {Status::OK(), 0};
  }
  std::vector<Status> statuses(morsels, Status::OK());
  ParallelForMorsels(total, kMorselRows, num_threads,
                     [&](size_t m, size_t begin, size_t end) {
                       statuses[m] = run(m, begin, end);
                     });
  return {FirstError(statuses), MorselWorkers(total, num_threads)};
}

}  // namespace

Status ForEachBatch(ExecNode* node, int num_threads,
                    const std::function<Status(size_t, Batch*)>& fn) {
  auto [status, workers] = RunMorsels(
      node->MorselInputRows(), num_threads, node->SideEffectFree(),
      [&](size_t m, size_t begin, size_t end) -> Status {
        Batch batch;
        MR_RETURN_IF_ERROR(node->RunBatch(begin, end, &batch));
        return fn(m, &batch);
      });
  MR_RETURN_IF_ERROR(status);
  if (workers > 0) node->RecordParallelWorkers(workers);
  return Status::OK();
}

Status DrainOpenedNode(ExecNode* node, int num_threads, std::vector<Row>* out,
                       MemoryAccountant* accountant) {
  if (node->ProducesBatches()) {
    std::vector<std::vector<Row>> slots(
        MorselCount(node->MorselInputRows(), kMorselRows));
    MR_RETURN_IF_ERROR(ForEachBatch(node, num_threads,
                                    [&](size_t m, Batch* batch) {
                                      batch->AppendRows(&slots[m]);
                                      return Status::OK();
                                    }));
    size_t produced = 0;
    for (const std::vector<Row>& slot : slots) produced += slot.size();
    out->reserve(out->size() + produced);
    for (std::vector<Row>& slot : slots) {
      if (accountant != nullptr) {
        // Account each morsel slot as it lands in the buffer (the
        // accountant is not thread-safe, so per-slot here rather than
        // inside the workers).
        for (const Row& row : slot) {
          accountant->AddBytes(EstimateRowBytes(row));
        }
      }
      for (Row& row : slot) out->push_back(std::move(row));
    }
    return Status::OK();
  }
  Row row;
  while (true) {
    MR_ASSIGN_OR_RETURN(bool more, node->Next(&row));
    if (!more) break;
    if (accountant != nullptr) accountant->AddBytes(EstimateRowBytes(row));
    out->push_back(std::move(row));
  }
  return Status::OK();
}

Status BatchInput::Attach(ExecNode* node, int num_threads) {
  node_ = node;
  rows_.clear();
  pos_ = 0;
  drained_ = false;
  if (node->ProducesBatches()) return Status::OK();
  drained_ = true;
  return DrainOpenedNode(node, num_threads, &rows_);
}

Status BatchInput::Run(size_t begin, size_t end, Batch* out) const {
  if (!drained_) return node_->RunBatch(begin, end, out);
  out->Clear();
  EncodeRowsBatch(node_->schema(), rows_, begin, end, out);
  return Status::OK();
}

Result<bool> BatchInput::Next(Row* out) {
  if (!drained_) return node_->Next(out);
  if (pos_ >= rows_.size()) return false;
  *out = rows_[pos_++];
  return true;
}

Status BatchInput::ForEach(
    int num_threads, const std::function<Status(size_t, Batch*)>& fn) const {
  if (!drained_) return ForEachBatch(node_, num_threads, fn);
  return RunMorsels(rows_.size(), num_threads, /*parallel=*/true,
                    [&](size_t m, size_t begin, size_t end) -> Status {
                      Batch batch;
                      MR_RETURN_IF_ERROR(Run(begin, end, &batch));
                      return fn(m, &batch);
                    })
      .first;
}

namespace {

void FlattenInto(ExecNode* node, int depth, std::vector<OperatorProfile>* out) {
  OperatorProfile profile;
  profile.name = node->name();
  profile.detail = node->detail();
  profile.depth = depth;
  profile.rows = node->rows_out();
  profile.micros = node->micros();
  profile.est_rows = node->plan_est_rows();
  profile.est_cost = node->plan_est_cost();
  node->AppendExtraCounters(&profile.counters);
  if (node->batches() > 0) profile.counters.emplace_back("batches", node->batches());
  if (node->parallel_workers() > 0) {
    profile.counters.emplace_back("workers", node->parallel_workers());
    profile.counters.emplace_back("morsels", node->parallel_morsels());
  }
  out->push_back(std::move(profile));
  for (ExecNode* child : node->children()) {
    FlattenInto(child, depth + 1, out);
  }
}

/// Joins the ToSql() renderings of `exprs` with `sep`.
std::string JoinExprs(const std::vector<ExprPtr>& exprs, const char* sep) {
  std::string out;
  for (const ExprPtr& e : exprs) {
    if (!out.empty()) out += sep;
    out += e->ToSql();
  }
  return out;
}

/// True iff none of `exprs` contains a NEXTVAL node (null entries allowed).
bool ExprsNextValFree(const std::vector<ExprPtr>& exprs) {
  for (const ExprPtr& e : exprs) {
    if (e != nullptr && ContainsNextVal(*e)) return false;
  }
  return true;
}

/// KeyIndex path choice for keys computed by `exprs`: encodable unless an
/// inferred type is STRING. A type that cannot be inferred keeps the
/// fallback path, which is correct for any value.
bool KeyExprsEncodable(const std::vector<ExprPtr>& exprs) {
  std::vector<DataType> types;
  types.reserve(exprs.size());
  for (const ExprPtr& e : exprs) {
    Result<DataType> type = InferExprType(*e);
    if (!type.ok()) return false;
    types.push_back(*type);
  }
  return KeyIndex::EncodableTypes(types);
}

}  // namespace

Result<std::vector<Row>> CollectRowsParallel(ExecNode* node, int num_threads) {
  MR_RETURN_IF_ERROR(node->Open());
  std::vector<Row> rows;
  MR_RETURN_IF_ERROR(DrainOpenedNode(node, num_threads, &rows));
  return rows;
}

std::vector<OperatorProfile> FlattenPlanProfile(ExecNode* root) {
  std::vector<OperatorProfile> out;
  FlattenInto(root, 0, &out);
  return out;
}

std::vector<std::string> RenderPlan(ExecNode* root, bool analyze) {
  std::vector<std::string> lines;
  for (const OperatorProfile& op : FlattenPlanProfile(root)) {
    std::string line(static_cast<size_t>(op.depth) * 2, ' ');
    if (op.depth > 0) line += "-> ";
    line += op.name;
    if (!op.detail.empty()) line += " (" + op.detail + ")";
    if (op.est_rows >= 0) {
      line += " est_rows=" +
              std::to_string(static_cast<long long>(op.est_rows + 0.5));
      if (op.est_cost >= 0) {
        line += " est_cost=" +
                std::to_string(static_cast<long long>(op.est_cost + 0.5));
      }
    }
    if (analyze) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), " rows=%lld time=%.3fms",
                    static_cast<long long>(op.rows),
                    static_cast<double>(op.micros) / 1000.0);
      line += buf;
      for (const auto& [key, value] : op.counters) {
        line += " " + key + "=" + std::to_string(value);
      }
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

// ---------------------------------------------------------------------------
// TableScanNode
// ---------------------------------------------------------------------------

TableScanNode::TableScanNode(std::shared_ptr<Table> table, ExecContext* ctx)
    : ExecNode(table->schema()), table_(std::move(table)), ctx_(ctx) {}

std::string TableScanNode::detail() const { return table_->name(); }

int64_t TableScanNode::EstimatedRowCount() const {
  return static_cast<int64_t>(table_->num_rows());
}

void TableScanNode::AppendExtraCounters(
    std::vector<std::pair<std::string, int64_t>>* out) const {
  if (imaged_) out->emplace_back("est_bytes", image_.ByteSize());
}

Status TableScanNode::OpenImpl() {
  pos_ = 0;
  snapshot_size_ = table_->num_rows();
  image_ = ColumnSet();
  imaged_ = ctx_->memory_limit < 0;
  if (!imaged_) return Status::OK();
  std::shared_ptr<const ColumnarTable> columnar = table_->Columnar();
  for (const ColumnVector& column : columnar->columns) {
    // Aliasing pointers: each keeps the whole image alive.
    image_.columns.emplace_back(columnar, &column);
  }
  // The image of the version just snapshotted: the same rows.
  image_.rows = snapshot_size_ = columnar->num_rows;
  return Status::OK();
}

Result<bool> TableScanNode::NextImpl(Row* out) {
  if (pos_ >= snapshot_size_) return false;
  if (imaged_) {
    // The image's row, so a column-stored table builds no rows for it.
    out->clear();
    for (const auto& column : image_.columns) {
      out->push_back(column->GetValue(pos_));
    }
    ++pos_;
    return true;
  }
  *out = table_->row(pos_++);
  return true;
}

Status TableScanNode::EvaluateBatchImpl(size_t begin, size_t end,
                                        Batch* out) {
  if (imaged_) {
    image_.Serve(begin, end, out);
  } else {
    EncodeRowsBatch(schema_, table_->rows(), begin, end, out);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// RowsNode
// ---------------------------------------------------------------------------

RowsNode::RowsNode(Schema schema, std::vector<Row> rows)
    : ExecNode(std::move(schema)), rows_(std::move(rows)) {}

std::string RowsNode::detail() const {
  return std::to_string(rows_.size()) + " rows";
}

Status RowsNode::OpenImpl() {
  pos_ = 0;
  return Status::OK();
}

Result<bool> RowsNode::NextImpl(Row* out) {
  if (pos_ >= rows_.size()) return false;
  *out = rows_[pos_++];
  return true;
}

Status RowsNode::EvaluateBatchImpl(size_t begin, size_t end, Batch* out) {
  EncodeRowsBatch(schema_, rows_, begin, end, out);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// RowNumberNode
// ---------------------------------------------------------------------------

namespace {

Schema SchemaWithRowId(const Schema& base, const std::string& column_name) {
  Schema schema = base;
  schema.AddColumn(Column(column_name, DataType::kInteger));
  return schema;
}

}  // namespace

RowNumberNode::RowNumberNode(ExecNodePtr child, std::string column_name)
    : ExecNode(SchemaWithRowId(child->schema(), column_name)),
      child_(std::move(child)),
      column_name_(std::move(column_name)) {}

Status RowNumberNode::OpenImpl() {
  pos_ = 0;
  return child_->Open();
}

Result<bool> RowNumberNode::NextImpl(Row* out) {
  MR_ASSIGN_OR_RETURN(bool more, child_->Next(out));
  if (!more) return false;
  out->push_back(Value::Integer(static_cast<int64_t>(pos_++)));
  return true;
}

Status RowNumberNode::EvaluateBatchImpl(size_t begin, size_t end,
                                        Batch* out) {
  // The child must be 1:1 over its input (the planner only wraps base
  // scans), so row k of the batch carries source index begin + k.
  MR_RETURN_IF_ERROR(child_->RunBatch(begin, end, out));
  if (out->size() != end - begin) {
    return Status::Internal("RowNumber child is not 1:1 with its input");
  }
  out->Densify();
  std::vector<Value> ids;
  ids.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    ids.push_back(Value::Integer(static_cast<int64_t>(i)));
  }
  out->columns.push_back(std::make_shared<const ColumnVector>(
      ColumnVector::FromValues(DataType::kInteger, ids)));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Batch expressions
// ---------------------------------------------------------------------------

namespace {

/// The input column a bare column or slot reference reads; -1 otherwise.
int DirectColumn(const Expr& e) {
  if (e.kind == ExprKind::kColumnRef) {
    return static_cast<const ColumnRefExpr&>(e).bound_index;
  }
  if (e.kind == ExprKind::kSlotRef) return static_cast<const SlotRefExpr&>(e).index;
  return -1;
}

/// Declared type of each expression's values; kNull (the generic
/// encoding) when it cannot be inferred.
std::vector<DataType> ExprTypes(const std::vector<ExprPtr>& exprs) {
  std::vector<DataType> types;
  types.reserve(exprs.size());
  for (const ExprPtr& e : exprs) {
    Result<DataType> type = InferExprType(*e);
    types.push_back(type.ok() ? *type : DataType::kNull);
  }
  return types;
}

/// True when `sel` selects every row of a column of `rows` rows in order.
bool IsIdentity(const std::vector<uint32_t>& sel, size_t rows) {
  return sel.size() == rows && (rows == 0 || sel.back() + 1 == rows);
}

/// The raw column pointers of a batch (KeyWords' input).
std::vector<const ColumnVector*> RawColumns(const Batch& batch) {
  std::vector<const ColumnVector*> raw;
  raw.reserve(batch.columns.size());
  for (const auto& column : batch.columns) raw.push_back(column.get());
  return raw;
}

/// Evaluates `exprs` over the rows of `in` into the columns of *out
/// (`types` are their declared types). A column or slot reference shares
/// the input column; any other expression is evaluated row by row, in row
/// order and then expression order (so NEXTVAL numbers rows as the row
/// path does), and then every output column is dense over the input's
/// selected rows.
Status EvalBatchExprs(const std::vector<ExprPtr>& exprs,
                      const std::vector<DataType>& types, const Batch& in,
                      ExecContext* ctx, Batch* out) {
  out->Clear();
  std::vector<int> sources(exprs.size());
  bool computed = false;
  for (size_t i = 0; i < exprs.size(); ++i) {
    sources[i] = DirectColumn(*exprs[i]);
    if (sources[i] < 0 ||
        static_cast<size_t>(sources[i]) >= in.columns.size()) {
      sources[i] = -1;
      computed = true;
    }
  }
  out->columns.reserve(exprs.size());
  if (!computed) {
    for (int source : sources) out->columns.push_back(in.columns[source]);
    out->sel = in.sel;
    return Status::OK();
  }
  // Row by row, then expression by expression: the row path's order, so
  // NEXTVAL numbers rows alike and the first error is the same one.
  const size_t n = in.sel.size();
  std::vector<std::vector<Value>> values(exprs.size());
  for (size_t i = 0; i < exprs.size(); ++i) {
    if (sources[i] < 0) values[i].reserve(n);
  }
  for (size_t k = 0; k < n; ++k) {
    const ColumnRow row{in.columns, in.sel[k]};
    for (size_t i = 0; i < exprs.size(); ++i) {
      if (sources[i] >= 0) continue;
      MR_ASSIGN_OR_RETURN(Value v, EvalExpr(*exprs[i], row, ctx));
      values[i].push_back(std::move(v));
    }
  }
  for (size_t i = 0; i < exprs.size(); ++i) {
    if (sources[i] < 0) {
      out->columns.push_back(std::make_shared<const ColumnVector>(
          ColumnVector::FromValues(types[i], values[i])));
      continue;
    }
    const auto& column = in.columns[sources[i]];
    out->columns.push_back(
        IsIdentity(in.sel, column->size())
            ? column
            : std::make_shared<const ColumnVector>(
                  ColumnVector::Gather(*column, in.sel)));
  }
  out->sel.resize(n);
  for (size_t k = 0; k < n; ++k) out->sel[k] = static_cast<uint32_t>(k);
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// FilterNode
// ---------------------------------------------------------------------------

FilterNode::FilterNode(ExecNodePtr child, ExprPtr predicate, ExecContext* ctx)
    : ExecNode(child->schema()),
      child_(std::move(child)),
      predicate_(std::move(predicate)),
      ctx_(ctx),
      pure_(!ContainsNextVal(*predicate_)) {}

std::string FilterNode::detail() const { return predicate_->ToSql(); }

void FilterNode::AppendExtraCounters(
    std::vector<std::pair<std::string, int64_t>>* out) const {
  if (!batched_) return;
  const int64_t scanned = scanned_.load(std::memory_order_relaxed);
  const int64_t selected = selected_.load(std::memory_order_relaxed);
  out->emplace_back("sel_vector_density",
                    scanned > 0 ? 100 * selected / scanned : 0);
}

Status FilterNode::OpenImpl() {
  MR_RETURN_IF_ERROR(child_->Open());
  scanned_.store(0, std::memory_order_relaxed);
  selected_.store(0, std::memory_order_relaxed);
  compiled_at_open_ = use_kernels_ = false;
  batched_ = UnaryBatched(*ctx_, *child_, pure_);
  if (!batched_) return Status::OK();
  MR_RETURN_IF_ERROR(input_.Attach(child_.get(), ctx_->num_threads));
  // Batches that all carry the same columns get the kernels compiled here,
  // once; the batches then only read them, from any worker.
  const ColumnRow::Columns* columns = input_.SharedColumns();
  if (ctx_->memory_limit < 0 && columns != nullptr) {
    compiled_at_open_ = true;
    use_kernels_ = kernels_.Compile(*predicate_, *columns);
  }
  return Status::OK();
}

Result<bool> FilterNode::NextImpl(Row* out) {
  // Row by row on either path, so a LIMIT above evaluates nothing past the
  // rows it takes.
  while (true) {
    MR_ASSIGN_OR_RETURN(bool more,
                        batched_ ? input_.Next(out) : child_->Next(out));
    if (!more) return false;
    MR_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*predicate_, *out, ctx_));
    if (pass) return true;
  }
}

Status FilterNode::EvaluateBatchImpl(size_t begin, size_t end, Batch* out) {
  MR_RETURN_IF_ERROR(input_.Run(begin, end, out));
  std::vector<uint32_t>& sel = out->sel;
  scanned_.fetch_add(static_cast<int64_t>(sel.size()),
                     std::memory_order_relaxed);
  // Columns that differ per batch (drained rows, computed projections,
  // joins) compile kernels against each batch's own.
  FilterKernels local;
  const FilterKernels* kernels = nullptr;
  if (compiled_at_open_) {
    if (use_kernels_) kernels = &kernels_;
  } else if (ctx_->memory_limit < 0 &&
             local.Compile(*predicate_, out->columns)) {
    kernels = &local;
  }
  if (kernels != nullptr) {
    kernels->Apply(&sel);
  } else {
    size_t kept = 0;
    for (uint32_t row : sel) {
      MR_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*predicate_,
                                                   ColumnRow{out->columns, row},
                                                   ctx_));
      if (pass) sel[kept++] = row;
    }
    sel.resize(kept);
  }
  selected_.fetch_add(static_cast<int64_t>(sel.size()),
                      std::memory_order_relaxed);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ProjectNode
// ---------------------------------------------------------------------------

ProjectNode::ProjectNode(ExecNodePtr child, std::vector<ExprPtr> exprs,
                         Schema out_schema, ExecContext* ctx)
    : ExecNode(std::move(out_schema)),
      child_(std::move(child)),
      exprs_(std::move(exprs)),
      ctx_(ctx),
      pure_(ExprsNextValFree(exprs_)) {
  for (const Column& column : schema_.columns()) types_.push_back(column.type);
}

std::string ProjectNode::detail() const { return JoinExprs(exprs_, ", "); }

Status ProjectNode::OpenImpl() {
  MR_RETURN_IF_ERROR(child_->Open());
  shared_.clear();
  batched_ = UnaryBatched(*ctx_, *child_, pure_);
  if (!batched_) return Status::OK();
  MR_RETURN_IF_ERROR(input_.Attach(child_.get(), ctx_->num_threads));
  // A pure column pick of shared columns shares them too (EvalBatchExprs
  // passes referenced columns through).
  const ColumnRow::Columns* in = input_.SharedColumns();
  if (in == nullptr) return Status::OK();
  for (const ExprPtr& e : exprs_) {
    const int source = DirectColumn(*e);
    if (source < 0 || static_cast<size_t>(source) >= in->size()) {
      shared_.clear();
      return Status::OK();
    }
    shared_.push_back((*in)[source]);
  }
  return Status::OK();
}

Result<bool> ProjectNode::NextImpl(Row* out) {
  // Row by row on either path: under a LIMIT, NEXTVAL advances and an
  // expression can fail only for the rows actually returned.
  Row input;
  MR_ASSIGN_OR_RETURN(bool more,
                      batched_ ? input_.Next(&input) : child_->Next(&input));
  if (!more) return false;
  out->clear();
  out->reserve(exprs_.size());
  for (const ExprPtr& e : exprs_) {
    MR_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, input, ctx_));
    out->push_back(std::move(v));
  }
  return true;
}

Status ProjectNode::EvaluateBatchImpl(size_t begin, size_t end, Batch* out) {
  Batch input;
  MR_RETURN_IF_ERROR(input_.Run(begin, end, &input));
  return EvalBatchExprs(exprs_, types_, input, ctx_, out);
}

// ---------------------------------------------------------------------------
// NestedLoopJoinNode
// ---------------------------------------------------------------------------

namespace {

Schema ConcatSchemas(const Schema& a, const Schema& b) {
  Schema out;
  for (const Column& c : a.columns()) out.AddColumn(c);
  for (const Column& c : b.columns()) out.AddColumn(c);
  return out;
}

}  // namespace

Row ConcatRows(const Row& left, const Row& right) {
  Row out;
  out.reserve(left.size() + right.size());
  out.insert(out.end(), left.begin(), left.end());
  out.insert(out.end(), right.begin(), right.end());
  return out;
}

bool JoinResidual::NextValFree() const {
  return predicate_ == nullptr || !ContainsNextVal(*predicate_);
}

void JoinResidual::AppendCounters(
    std::vector<std::pair<std::string, int64_t>>* out) const {
  if (predicate_ == nullptr) return;
  out->emplace_back("residual_checked",
                    checked_.load(std::memory_order_relaxed));
  out->emplace_back("residual_passed", passed_.load(std::memory_order_relaxed));
}

NestedLoopJoinNode::NestedLoopJoinNode(ExecNodePtr left, ExecNodePtr right,
                                       ExprPtr predicate, ExecContext* ctx)
    : ExecNode(ConcatSchemas(left->schema(), right->schema())),
      left_(std::move(left)),
      right_(std::move(right)),
      predicate_(std::move(predicate)),
      ctx_(ctx),
      pure_(predicate_.NextValFree()) {}

std::string NestedLoopJoinNode::detail() const {
  return predicate_.get() != nullptr ? predicate_.get()->ToSql() : "cross";
}

void NestedLoopJoinNode::AppendExtraCounters(
    std::vector<std::pair<std::string, int64_t>>* out) const {
  out->emplace_back("right_rows", static_cast<int64_t>(right_rows_.size()));
  predicate_.AppendCounters(out);
}

Status NestedLoopJoinNode::OpenImpl() {
  predicate_.Reset();
  MR_RETURN_IF_ERROR(left_->Open());
  MR_RETURN_IF_ERROR(right_->Open());
  right_rows_.clear();
  MR_RETURN_IF_ERROR(
      DrainOpenedNode(right_.get(), ctx_->num_threads, &right_rows_));
  have_left_ = false;
  right_pos_ = 0;
  return Status::OK();
}

Result<bool> NestedLoopJoinNode::NextImpl(Row* out) {
  while (true) {
    if (!have_left_) {
      MR_ASSIGN_OR_RETURN(bool more, left_->Next(&current_left_));
      if (!more) return false;
      have_left_ = true;
      right_pos_ = 0;
    }
    while (right_pos_ < right_rows_.size()) {
      const Row& right = right_rows_[right_pos_++];
      MR_ASSIGN_OR_RETURN(bool pass,
                          predicate_.Passes(current_left_, right, ctx_));
      if (!pass) continue;
      *out = ConcatRows(current_left_, right);
      return true;
    }
    have_left_ = false;
  }
}

// ---------------------------------------------------------------------------
// HashJoinNode
// ---------------------------------------------------------------------------

HashJoinNode::HashJoinNode(ExecNodePtr left, ExecNodePtr right,
                           std::vector<ExprPtr> left_keys,
                           std::vector<ExprPtr> right_keys, ExprPtr residual,
                           ExecContext* ctx)
    : ExecNode(ConcatSchemas(left->schema(), right->schema())),
      left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      left_key_types_(ExprTypes(left_keys_)),
      right_key_types_(ExprTypes(right_keys_)),
      residual_(std::move(residual)),
      ctx_(ctx) {
  pure_ = ExprsNextValFree(left_keys_) && ExprsNextValFree(right_keys_) &&
          residual_.NextValFree();
}

std::string HashJoinNode::detail() const {
  std::string out;
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    if (!out.empty()) out += " AND ";
    out += left_keys_[i]->ToSql() + " = " + right_keys_[i]->ToSql();
  }
  if (residual_.get() != nullptr) out += " AND " + residual_.get()->ToSql();
  return out;
}

void HashJoinNode::AppendExtraCounters(
    std::vector<std::pair<std::string, int64_t>>* out) const {
  out->emplace_back("build_rows", build_rows_);
  out->emplace_back("buckets", static_cast<int64_t>(table_.buckets()));
  out->emplace_back("est_bytes", build_bytes_);
  out->emplace_back("encoded_keys", encoded_keys_);
  out->emplace_back("generic_keys", generic_keys_);
  residual_.AppendCounters(out);
  if (probe_skipped_) out->emplace_back("probe_skipped", 1);
  if (spill_bytes_ > 0) {
    out->emplace_back("spill_bytes", spill_bytes_);
    out->emplace_back("spill_partitions", spill_partitions_);
  }
}

Result<bool> HashJoinNode::ComputeKey(const std::vector<ExprPtr>& exprs,
                                      const Row& row, Row* key) const {
  key->clear();
  key->reserve(exprs.size());
  for (const ExprPtr& e : exprs) {
    MR_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, row, ctx_));
    if (v.is_null()) return false;  // NULL keys never join
    // Key values go in as-is: Value::Hash/TotalEquals compare INTEGER and
    // DOUBLE exactly (canonicalized hashes, exact int-vs-double compare),
    // so INTEGER 1 meets DOUBLE 1.0 in the same bucket and this join agrees
    // with NestedLoopJoin on mixed-type keys.
    key->push_back(std::move(v));
  }
  return true;
}

Status HashJoinNode::BuildBatches() {
  // Each build morsel evaluates and encodes its keys (in parallel when the
  // subtree allows); then one serial pass indexes the non-NULL-key rows in
  // build order, so every bucket lists its rows in input order, and the
  // kept rows are gathered into the build columns.
  struct Part {
    Batch batch;
    Batch keys;
    KeyWords words;
    std::vector<uint32_t> kept;  // positions in batch.sel with non-NULL keys
  };
  const int num_threads = ctx_->num_threads;
  BatchInput build;
  MR_RETURN_IF_ERROR(build.Open(right_.get(), num_threads));
  std::vector<Part> parts(MorselCount(build.rows(), kMorselRows));
  MR_RETURN_IF_ERROR(
      build.ForEach(num_threads, [&](size_t m, Batch* batch) -> Status {
        Part& part = parts[m];
        part.batch = std::move(*batch);
        MR_RETURN_IF_ERROR(EvalBatchExprs(right_keys_, right_key_types_,
                                          part.batch, ctx_, &part.keys));
        part.words.Encode(RawColumns(part.keys), part.keys.sel, encodable_);
        for (size_t k = 0; k < part.keys.size(); ++k) {
          if (!part.words.has_null[k]) {
            part.kept.push_back(static_cast<uint32_t>(k));
          }
        }
        return Status::OK();
      }));

  size_t kept = 0;
  for (const Part& part : parts) {
    kept += part.kept.size();
    build_consumed_rows_ += static_cast<int64_t>(part.batch.size());
  }
  table_.Reset(right_keys_.size(), encodable_, kept);
  std::vector<std::vector<uint32_t>> rows(parts.size());
  uint32_t index = 0;
  for (size_t p = 0; p < parts.size(); ++p) {
    const Part& part = parts[p];
    const std::vector<const ColumnVector*> key_columns = RawColumns(part.keys);
    rows[p].reserve(part.kept.size());
    for (uint32_t k : part.kept) {
      if (part.words.state[k] == KeyWords::kWords) {
        table_.AddWords(part.words.row_words(k), index);
      } else {
        table_.Add(KeyRow(key_columns, part.keys.sel[k]), index);
      }
      ++index;
      rows[p].push_back(part.batch.sel[k]);
    }
  }
  table_.Seal();
  build_rows_ = index;
  NoteKeys(table_.index());

  const Schema& right_schema = right_->schema();
  build_columns_.clear();
  for (size_t c = 0; c < right_schema.num_columns(); ++c) {
    std::vector<ColumnVector::Slice> slices;
    slices.reserve(parts.size());
    for (size_t p = 0; p < parts.size(); ++p) {
      slices.push_back({parts[p].batch.columns[c].get(), rows[p]});
    }
    build_columns_.push_back(std::make_shared<const ColumnVector>(
        ColumnVector::Gather(right_schema.column(c).type, slices)));
  }
  int64_t bytes = table_.index().ByteSize();
  for (const auto& column : build_columns_) bytes += column->ByteSize();
  build_bytes_ = bytes;
  // An all-NULL-key build still materialized and hashed its input.
  build_consumed_bytes_ =
      build_consumed_rows_ *
      static_cast<int64_t>(right_schema.num_columns() * sizeof(int64_t));
  if (build_rows_ == 0) build_bytes_ = build_consumed_bytes_;
  return Status::OK();
}

Status HashJoinNode::BuildRows() {
  const int64_t estimate = right_->EstimatedRowCount();
  const size_t expected = estimate > 0 ? static_cast<size_t>(estimate) : 0;
  table_.Reset(right_keys_.size(), encodable_, expected);
  build_side_.reserve(expected);
  Row row;
  Row key;
  while (true) {
    MR_ASSIGN_OR_RETURN(bool more, right_->Next(&row));
    if (!more) break;
    ++build_consumed_rows_;
    MR_ASSIGN_OR_RETURN(bool valid, ComputeKey(right_keys_, row, &key));
    if (!valid) continue;
    table_.Add(key, static_cast<uint32_t>(build_side_.size()));
    build_side_.push_back(std::move(row));
    ++build_rows_;
  }
  table_.Seal();
  NoteKeys(table_.index());
  build_bytes_ = SampledRowsBytes(build_side_);
  return Status::OK();
}

Status HashJoinNode::OpenImpl() {
  build_side_.clear();
  build_columns_.clear();
  table_ = JoinTable();
  build_rows_ = 0;
  build_bytes_ = 0;
  build_consumed_rows_ = 0;
  build_consumed_bytes_ = 0;
  spill_bytes_ = 0;
  spill_partitions_ = 0;
  encoded_keys_ = 0;
  generic_keys_ = 0;
  spill_.reset();
  probe_skipped_ = false;
  current_bucket_ = {};
  bucket_pos_ = 0;
  residual_.Reset();
  encodable_ = KeyExprsEncodable(left_keys_) && KeyExprsEncodable(right_keys_);
  // Unbudgeted plans join on batches. Under a budget the join runs its
  // budgeted serial row path: the working set is bounded by spilling.
  // NEXTVAL in keys or residual keeps the in-memory serial row path in
  // every plan: it draws row by row, probe key then residual, interleaved
  // with the inputs' own draws, where a batch would draw a morsel at a time
  // (and re-ordering the evaluation on disk would change them too).
  batched_ = ctx_->memory_limit < 0 && pure_;
  if (batched_) {
    MR_RETURN_IF_ERROR(BuildBatches());
  } else {
    MR_RETURN_IF_ERROR(right_->Open());
    if (pure_) return OpenBudget();
    MR_RETURN_IF_ERROR(BuildRows());
  }
  if (build_bytes_ > 0) {
    GlobalMetrics()
        .GetGauge("sql.join.build_peak_bytes")
        ->UpdateMax(build_bytes_);
  }

  // An empty build side joins nothing: skip the probe-side scan entirely
  // when that subtree has no observable side effects to preserve.
  if (build_rows_ == 0 && left_->SideEffectFree()) {
    probe_skipped_ = true;
    return Status::OK();
  }
  if (batched_) return probe_.Open(left_.get(), ctx_->num_threads);
  return left_->Open();
}

Result<bool> HashJoinNode::NextImpl(Row* out) {
  // Streams the probe rows one at a time on either path, so a LIMIT above
  // evaluates nothing past the rows it takes. In batch mode the build row
  // is read out of the build columns.
  if (spill_ != nullptr) return NextSpill(out);
  while (true) {
    while (bucket_pos_ < current_bucket_.size()) {
      const uint32_t build_row = current_bucket_[bucket_pos_++];
      if (batched_) {
        build_row_.clear();
        for (const auto& column : build_columns_) {
          build_row_.push_back(column->GetValue(build_row));
        }
      }
      const Row& right = batched_ ? build_row_ : build_side_[build_row];
      MR_ASSIGN_OR_RETURN(bool pass,
                          residual_.Passes(current_left_, right, ctx_));
      if (!pass) continue;
      *out = ConcatRows(current_left_, right);
      return true;
    }
    if (probe_skipped_) return false;
    MR_ASSIGN_OR_RETURN(bool more, batched_ ? probe_.Next(&current_left_)
                                            : left_->Next(&current_left_));
    if (!more) return false;
    MR_ASSIGN_OR_RETURN(bool valid,
                        ComputeKey(left_keys_, current_left_, &probe_key_));
    current_bucket_ = valid ? table_.Find(probe_key_)
                            : std::span<const uint32_t>();
    bucket_pos_ = 0;
  }
}

Status HashJoinNode::EvaluateBatchImpl(size_t begin, size_t end, Batch* out) {
  Batch probe;
  MR_RETURN_IF_ERROR(probe_.Run(begin, end, &probe));
  Batch keys;
  MR_RETURN_IF_ERROR(
      EvalBatchExprs(left_keys_, left_key_types_, probe, ctx_, &keys));
  KeyWords words;
  const std::vector<const ColumnVector*> key_columns = RawColumns(keys);
  words.Encode(key_columns, keys.sel, table_.index().encodable());

  // Matched pairs in probe order, build order within a key.
  std::vector<uint32_t> probe_rows;
  std::vector<uint32_t> build_rows;
  probe_rows.reserve(probe.size());
  build_rows.reserve(probe.size());
  JoinResidual::Tally tally;
  for (size_t k = 0; k < keys.size(); ++k) {
    if (words.has_null[k]) continue;  // NULL keys never join
    const std::span<const uint32_t> bucket =
        words.state[k] == KeyWords::kWords
            ? table_.FindWords(words.row_words(k))
            : table_.Find(KeyRow(key_columns, keys.sel[k]));
    const uint32_t probe_row = probe.sel[k];
    for (uint32_t build_row : bucket) {
      MR_ASSIGN_OR_RETURN(
          bool pass,
          residual_.Passes(
              ColumnRow{probe.columns, probe_row, &build_columns_, build_row},
              ctx_, &tally));
      if (!pass) continue;
      probe_rows.push_back(probe_row);
      build_rows.push_back(build_row);
    }
  }
  residual_.Add(tally);

  out->columns.reserve(probe.columns.size() + build_columns_.size());
  for (const auto& column : probe.columns) {
    out->columns.push_back(std::make_shared<const ColumnVector>(
        ColumnVector::Gather(*column, probe_rows)));
  }
  for (const auto& column : build_columns_) {
    out->columns.push_back(std::make_shared<const ColumnVector>(
        ColumnVector::Gather(*column, build_rows)));
  }
  out->sel.resize(probe_rows.size());
  for (size_t k = 0; k < probe_rows.size(); ++k) {
    out->sel[k] = static_cast<uint32_t>(k);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// HashAggregateNode
// ---------------------------------------------------------------------------

HashAggregateNode::HashAggregateNode(ExecNodePtr child,
                                     std::vector<ExprPtr> group_exprs,
                                     std::vector<AggSpec> aggs,
                                     Schema out_schema, ExecContext* ctx)
    : ExecNode(std::move(out_schema)),
      child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      group_types_(ExprTypes(group_exprs_)),
      aggs_(std::move(aggs)),
      ctx_(ctx) {
  pure_ = ExprsNextValFree(group_exprs_);
  merge_exact_ = true;
  for (const AggSpec& spec : aggs_) {
    if (spec.arg != nullptr && ContainsNextVal(*spec.arg)) pure_ = false;
    if (!AggAccumulator::MergeIsExact(spec.func)) merge_exact_ = false;
  }
  // One expression list per batch: the group keys, then each aggregate's
  // argument (COUNT(*) has none), so row-major evaluation keeps the row
  // path's order.
  for (const ExprPtr& e : group_exprs_) batch_exprs_.push_back(e->Clone());
  for (const AggSpec& spec : aggs_) {
    if (spec.arg == nullptr) {
      arg_columns_.push_back(-1);
      continue;
    }
    arg_columns_.push_back(static_cast<int>(batch_exprs_.size()));
    batch_exprs_.push_back(spec.arg->Clone());
  }
  batch_types_ = ExprTypes(batch_exprs_);
}

std::string HashAggregateNode::detail() const {
  std::string out = "keys=" + std::to_string(group_exprs_.size()) +
                    " aggs=" + std::to_string(aggs_.size());
  if (!group_exprs_.empty()) out += " by " + JoinExprs(group_exprs_, ", ");
  return out;
}

void HashAggregateNode::AppendExtraCounters(
    std::vector<std::pair<std::string, int64_t>>* out) const {
  out->emplace_back("groups", groups_);
  out->emplace_back("est_bytes", table_bytes_);
  out->emplace_back("encoded_keys", encoded_keys_);
  out->emplace_back("generic_keys", generic_keys_);
  if (spill_bytes_ > 0) {
    out->emplace_back("spill_bytes", spill_bytes_);
    out->emplace_back("spill_partitions", spill_partitions_);
  }
}

std::vector<AggAccumulator> HashAggregateNode::MakeAccumulators() const {
  std::vector<AggAccumulator> accs;
  accs.reserve(aggs_.size());
  for (const AggSpec& spec : aggs_) {
    accs.emplace_back(spec.func, spec.distinct);
  }
  return accs;
}

uint32_t HashAggregateNode::FindOrAddGroup(GroupTable* groups, const Row& key,
                                           bool* inserted) const {
  const uint32_t group = groups->index.Insert(key, inserted);
  if (*inserted) {
    groups->keys.push_back(key);
    groups->states.push_back(MakeAccumulators());
  }
  return group;
}

void HashAggregateNode::NoteKeys(const GroupTable& groups) {
  encoded_keys_ += groups.index.encoded_keys();
  generic_keys_ += groups.index.generic_keys();
}

Status HashAggregateNode::AggregateRows(GroupTable* groups) {
  Row row;
  Row key;  // scratch: a key Row is only copied for a new group
  while (true) {
    MR_ASSIGN_OR_RETURN(bool more, child_->Next(&row));
    if (!more) break;
    key.clear();
    for (const ExprPtr& e : group_exprs_) {
      MR_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, row, ctx_));
      key.push_back(std::move(v));
    }
    bool inserted = false;
    const uint32_t group = FindOrAddGroup(groups, key, &inserted);
    std::vector<AggAccumulator>& accs = groups->states[group];
    for (size_t i = 0; i < aggs_.size(); ++i) {
      Value arg;  // NULL placeholder for COUNT(*)
      if (aggs_[i].arg != nullptr) {
        MR_ASSIGN_OR_RETURN(arg, EvalExpr(*aggs_[i].arg, row, ctx_));
      }
      MR_RETURN_IF_ERROR(accs[i].Add(arg));
    }
  }
  return Status::OK();
}

Status HashAggregateNode::AggregateBatch(const Batch& batch,
                                         GroupTable* groups) const {
  Batch evaluated;
  MR_RETURN_IF_ERROR(
      EvalBatchExprs(batch_exprs_, batch_types_, batch, ctx_, &evaluated));
  const size_t width = group_exprs_.size();
  std::vector<const ColumnVector*> key_columns;
  for (size_t c = 0; c < width; ++c) {
    key_columns.push_back(evaluated.columns[c].get());
  }
  KeyWords words;
  words.Encode(key_columns, evaluated.sel, groups->index.encodable());
  const Value no_arg;  // COUNT(*)'s ignored input
  for (size_t k = 0; k < evaluated.size(); ++k) {
    const uint32_t row = evaluated.sel[k];
    bool inserted = false;
    const uint32_t group =
        words.state[k] == KeyWords::kWords
            ? groups->index.InsertWords(words.row_words(k), &inserted)
            : groups->index.Insert(KeyRow(key_columns, row), &inserted);
    if (inserted) {
      groups->keys.push_back(KeyRow(key_columns, row));
      groups->states.push_back(MakeAccumulators());
    }
    std::vector<AggAccumulator>& accs = groups->states[group];
    for (size_t i = 0; i < aggs_.size(); ++i) {
      const int column = arg_columns_[i];
      MR_RETURN_IF_ERROR(accs[i].Add(
          column < 0 ? no_arg : evaluated.columns[column]->GetValue(row)));
    }
  }
  return Status::OK();
}

Status HashAggregateNode::AggregateBatches(GroupTable* groups) {
  const int num_threads = ctx_->num_threads;
  const size_t width = group_exprs_.size();
  const size_t total = input_.rows();
  if (num_threads == 1 || !pure_ || !merge_exact_ ||
      !input_.parallel_safe()) {
    // A global aggregate has one group; otherwise the input count bounds
    // the group count.
    groups->index.Reset(width, encodable_, width == 0 ? 1 : total);
    return input_.ForEach(/*num_threads=*/1, [&](size_t, Batch* batch) {
      return AggregateBatch(*batch, groups);
    });
  }

  const size_t morsels = MorselCount(total, kMorselRows);
  std::vector<GroupTable> locals(morsels);
  MR_RETURN_IF_ERROR(
      input_.ForEach(num_threads, [&](size_t m, Batch* batch) {
        locals[m].index.Reset(width, encodable_, batch->size());
        return AggregateBatch(*batch, &locals[m]);
      }));
  NoteWorkers(MorselWorkers(total, num_threads));
  NoteDrivenMorsels(static_cast<int64_t>(morsels));

  // Fold the local tables together in ascending morsel order. A group's
  // global position is (first morsel containing it, local index there) —
  // morsels are contiguous input ranges, so that is exactly the group's
  // first occurrence in input order, and the fold order matches the serial
  // first-seen emission order bit for bit.
  // The local group counts bound the global one from above.
  size_t local_groups = 0;
  for (const GroupTable& local : locals) local_groups += local.keys.size();
  groups->index.Reset(width, encodable_, local_groups);
  for (GroupTable& local : locals) {
    for (size_t j = 0; j < local.keys.size(); ++j) {
      bool inserted = false;
      const uint32_t group = groups->index.Insert(local.keys[j], &inserted);
      if (inserted) {
        groups->keys.push_back(std::move(local.keys[j]));
        groups->states.push_back(std::move(local.states[j]));
      } else {
        std::vector<AggAccumulator>& accs = groups->states[group];
        for (size_t i = 0; i < aggs_.size(); ++i) {
          MR_RETURN_IF_ERROR(accs[i].Merge(local.states[j][i]));
        }
      }
    }
  }
  return Status::OK();
}

Status HashAggregateNode::OpenImpl() {
  results_.clear();
  output_ = ColumnSet();
  pos_ = 0;
  groups_ = 0;
  spill_bytes_ = 0;
  spill_partitions_ = 0;
  encoded_keys_ = 0;
  generic_keys_ = 0;
  encodable_ = KeyExprsEncodable(group_exprs_);
  // NEXTVAL here over an input that draws too aggregates rows, so the two
  // draw row by row in turn as on the serial path.
  batched_ = ctx_->memory_limit < 0 && (pure_ || child_->SideEffectFree());
  GroupTable groups;
  if (batched_) {
    MR_RETURN_IF_ERROR(input_.Open(child_.get(), ctx_->num_threads));
    MR_RETURN_IF_ERROR(AggregateBatches(&groups));
  } else {
    MR_RETURN_IF_ERROR(child_->Open());
    if (pure_) {
      MR_RETURN_IF_ERROR(OpenBudget());
      groups_ = static_cast<int64_t>(results_.size());
      return Status::OK();
    }
    groups.index.Reset(group_exprs_.size(), encodable_, 0);
    MR_RETURN_IF_ERROR(AggregateRows(&groups));
  }
  NoteKeys(groups);

  // Global aggregate over empty input still yields one row.
  if (group_exprs_.empty() && groups.keys.empty()) {
    groups.keys.emplace_back();
    groups.states.push_back(MakeAccumulators());
  }
  groups_ = static_cast<int64_t>(groups.keys.size());

  if (!batched_) {
    results_.reserve(groups.keys.size());
    for (size_t g = 0; g < groups.keys.size(); ++g) {
      Row out = std::move(groups.keys[g]);
      for (const AggAccumulator& acc : groups.states[g]) {
        MR_ASSIGN_OR_RETURN(Value v, acc.Finish());
        out.push_back(std::move(v));
      }
      results_.push_back(std::move(out));
    }
    table_bytes_ =
        AccountBufferBytes("sql.aggregate.table_peak_bytes", results_);
    return Status::OK();
  }

  // The groups as columns: keys first, then the finished aggregates.
  const size_t width = group_exprs_.size();
  std::vector<Value> values(groups.keys.size());
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    for (size_t g = 0; g < groups.keys.size(); ++g) {
      if (c < width) {
        values[g] = std::move(groups.keys[g][c]);
      } else {
        MR_ASSIGN_OR_RETURN(values[g], groups.states[g][c - width].Finish());
      }
    }
    output_.columns.push_back(std::make_shared<const ColumnVector>(
        ColumnVector::FromValues(schema_.column(c).type, values)));
  }
  output_.rows = groups.keys.size();
  table_bytes_ = output_.ByteSize() + groups.index.ByteSize();
  if (table_bytes_ > 0) {
    GlobalMetrics()
        .GetGauge("sql.aggregate.table_peak_bytes")
        ->UpdateMax(table_bytes_);
  }
  return Status::OK();
}

Result<bool> HashAggregateNode::NextImpl(Row* out) {
  if (batched_) return NextFromBatches(out);
  if (pos_ >= results_.size()) return false;
  *out = std::move(results_[pos_++]);
  return true;
}

Status HashAggregateNode::EvaluateBatchImpl(size_t begin, size_t end,
                                            Batch* out) {
  output_.Serve(begin, end, out);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// DistinctNode
// ---------------------------------------------------------------------------

DistinctNode::DistinctNode(ExecNodePtr child, ExecContext* ctx)
    : ExecNode(child->schema()), child_(std::move(child)), ctx_(ctx) {}

void DistinctNode::AppendExtraCounters(
    std::vector<std::pair<std::string, int64_t>>* out) const {
  out->emplace_back("kept_rows", static_cast<int64_t>(seen_.size()));
  out->emplace_back("est_bytes", seen_.ByteSize() + output_.ByteSize());
  out->emplace_back("encoded_keys", seen_.encoded_keys());
  out->emplace_back("generic_keys", seen_.generic_keys());
}

Status DistinctNode::OpenImpl() {
  output_ = ColumnSet();
  pos_ = 0;
  MR_RETURN_IF_ERROR(child_->Open());

  // The key is the whole row: its types are the output column types.
  std::vector<DataType> types;
  for (const Column& column : schema_.columns()) types.push_back(column.type);
  const size_t width = types.size();
  const bool encodable = KeyIndex::EncodableTypes(types);

  batched_ = UnaryBatched(*ctx_, *child_, /*pure=*/true);
  if (batched_) {
    MR_RETURN_IF_ERROR(input_.Attach(child_.get(), ctx_->num_threads));
    return DistinctBatches(width, encodable);
  }
  const int64_t estimate = child_->EstimatedRowCount();
  seen_.Reset(width, encodable,
              estimate > 0 ? static_cast<size_t>(estimate) : 0);
  return Status::OK();
}

Status DistinctNode::DistinctBatches(size_t width, bool encodable) {
  // Each part keeps its batch and the positions (in batch.sel) of the rows
  // it emits; the survivors are gathered into the output columns at the
  // end, in morsel order.
  struct Part {
    Batch batch;
    std::vector<const ColumnVector*> columns;  // batch.columns, raw
    KeyWords words;
    std::vector<uint32_t> kept;
  };
  const int num_threads = ctx_->num_threads;
  const size_t total = input_.rows();
  const size_t morsels = MorselCount(total, kMorselRows);
  std::vector<Part> parts(morsels);
  // Inserts position k of `part` into `index`; true when its row is new.
  auto insert = [](const Part& part, size_t k, KeyIndex* index) {
    bool inserted = false;
    if (part.words.state[k] == KeyWords::kWords) {
      index->InsertWords(part.words.row_words(k), &inserted);
    } else {
      index->Insert(KeyRow(part.columns, part.batch.sel[k]), &inserted);
    }
    return inserted;
  };

  if (num_threads == 1 || !input_.parallel_safe()) {
    const int64_t estimate = child_->EstimatedRowCount();
    seen_.Reset(width, encodable,
                estimate > 0 ? static_cast<size_t>(estimate) : 0);
    MR_RETURN_IF_ERROR(input_.ForEach(1, [&](size_t m, Batch* batch) {
      Part& part = parts[m];
      part.batch = std::move(*batch);
      part.columns = RawColumns(part.batch);
      part.words.Encode(part.columns, part.batch.sel, seen_.encodable());
      for (size_t k = 0; k < part.batch.size(); ++k) {
        if (insert(part, k, &seen_)) {
          part.kept.push_back(static_cast<uint32_t>(k));
        }
      }
      return Status::OK();
    }));
  } else {
    // Deduplicate each morsel locally (keeping local first-seen order),
    // then fold the survivors through the global seen-set in morsel order —
    // a row survives iff no equal row precedes it in input order, exactly
    // the serial emission order.
    MR_RETURN_IF_ERROR(input_.ForEach(num_threads, [&](size_t m,
                                                       Batch* batch) {
      Part& part = parts[m];
      part.batch = std::move(*batch);
      part.columns = RawColumns(part.batch);
      part.words.Encode(part.columns, part.batch.sel, encodable);
      KeyIndex local;
      local.Reset(width, encodable, part.batch.size());
      for (size_t k = 0; k < part.batch.size(); ++k) {
        if (insert(part, k, &local)) {
          part.kept.push_back(static_cast<uint32_t>(k));
        }
      }
      return Status::OK();
    }));
    NoteWorkers(MorselWorkers(total, num_threads));
    NoteDrivenMorsels(static_cast<int64_t>(morsels));
    // The local survivor counts bound the global one from above.
    size_t survivors = 0;
    for (const Part& part : parts) survivors += part.kept.size();
    seen_.Reset(width, encodable, survivors);
    for (Part& part : parts) {
      size_t kept = 0;
      for (uint32_t k : part.kept) {
        if (insert(part, k, &seen_)) part.kept[kept++] = k;
      }
      part.kept.resize(kept);
    }
  }

  // Gather the survivors.
  std::vector<std::vector<uint32_t>> rows(parts.size());
  for (size_t p = 0; p < parts.size(); ++p) {
    rows[p].reserve(parts[p].kept.size());
    for (uint32_t k : parts[p].kept) rows[p].push_back(parts[p].batch.sel[k]);
    output_.rows += rows[p].size();
  }
  for (size_t c = 0; c < width; ++c) {
    std::vector<ColumnVector::Slice> slices;
    slices.reserve(parts.size());
    for (size_t p = 0; p < parts.size(); ++p) {
      slices.push_back({parts[p].batch.columns[c].get(), rows[p]});
    }
    output_.columns.push_back(std::make_shared<const ColumnVector>(
        ColumnVector::Gather(schema_.column(c).type, slices)));
  }
  return Status::OK();
}

Result<bool> DistinctNode::NextImpl(Row* out) {
  if (batched_) return NextFromBatches(out);
  while (true) {
    MR_ASSIGN_OR_RETURN(bool more, child_->Next(out));
    if (!more) return false;
    bool inserted = false;
    seen_.Insert(*out, &inserted);
    if (inserted) return true;
  }
}

Status DistinctNode::EvaluateBatchImpl(size_t begin, size_t end,
                                       Batch* out) {
  output_.Serve(begin, end, out);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SortNode
// ---------------------------------------------------------------------------

SortNode::SortNode(ExecNodePtr child, std::vector<SortKey> keys,
                   ExecContext* ctx)
    : ExecNode(child->schema()),
      child_(std::move(child)),
      keys_(std::move(keys)),
      ctx_(ctx) {
  pure_ = true;
  for (const SortKey& sk : keys_) {
    if (ContainsNextVal(*sk.expr)) pure_ = false;
  }
}

std::string SortNode::detail() const {
  std::string out;
  for (const SortKey& sk : keys_) {
    if (!out.empty()) out += ", ";
    out += sk.expr->ToSql();
    if (sk.descending) out += " DESC";
  }
  return out;
}

bool SortNode::KeyLess(const Row& a, const Row& b) const {
  for (size_t k = 0; k < keys_.size(); ++k) {
    const Value& va = a[k];
    const Value& vb = b[k];
    if (va.TotalEquals(vb)) continue;
    const bool less = va.TotalLess(vb);
    return keys_[k].descending ? !less : less;
  }
  return false;
}

Status SortNode::OpenImpl() {
  pos_ = 0;
  rows_.clear();
  spill_bytes_ = 0;
  spill_partitions_ = 0;
  external_.reset();
  MR_RETURN_IF_ERROR(child_->Open());
  if (ctx_->memory_limit >= 0 && pure_) return OpenBudget();
  const int num_threads = ctx_->num_threads;
  MemoryAccountant accountant("sql.sort.buffer_peak_bytes", /*limit=*/-1);
  MR_RETURN_IF_ERROR(
      DrainOpenedNode(child_.get(), num_threads, &rows_, &accountant));

  // Precompute sort keys — morsel-parallel into a pre-sized vector when the
  // keys are pure; stable sort keeps input order among ties, so the output
  // depends only on the input order, not on the parallelism.
  std::vector<std::pair<Row, size_t>> keyed(rows_.size());
  auto compute_range = [&](size_t begin, size_t end) -> Status {
    for (size_t i = begin; i < end; ++i) {
      Row key;
      key.reserve(keys_.size());
      for (const SortKey& sk : keys_) {
        MR_ASSIGN_OR_RETURN(Value v, EvalExpr(*sk.expr, rows_[i], ctx_));
        key.push_back(std::move(v));
      }
      keyed[i] = {std::move(key), i};
    }
    return Status::OK();
  };
  if (num_threads != 1 && pure_) {
    const size_t morsels = MorselCount(rows_.size(), kMorselRows);
    std::vector<Status> statuses(morsels, Status::OK());
    ParallelForMorsels(rows_.size(), kMorselRows, num_threads,
                       [&](size_t m, size_t begin, size_t end) {
                         statuses[m] = compute_range(begin, end);
                       });
    MR_RETURN_IF_ERROR(FirstError(statuses));
    NoteWorkers(MorselWorkers(rows_.size(), num_threads));
    NoteDrivenMorsels(static_cast<int64_t>(morsels));
  } else {
    MR_RETURN_IF_ERROR(compute_range(0, rows_.size()));
  }
  // The transient key vector is part of the sort's working set — for wide
  // keys over narrow rows it can dominate — so account it alongside the
  // row buffer while both are alive.
  if (!keyed.empty()) {
    const size_t n = keyed.size();
    const size_t samples = n < 64 ? n : 64;
    int64_t width_sum = 0;
    for (size_t s = 0; s < samples; ++s) {
      width_sum += EstimateRowBytes(keyed[s * n / samples].first) +
                   static_cast<int64_t>(sizeof(size_t));
    }
    accountant.AddBytes(static_cast<int64_t>(n) *
                        (width_sum / static_cast<int64_t>(samples)));
  }
  accountant.Publish();
  buffer_bytes_ = accountant.bytes();
  std::stable_sort(keyed.begin(), keyed.end(),
                   [this](const auto& a, const auto& b) {
                     return KeyLess(a.first, b.first);
                   });
  std::vector<Row> sorted;
  sorted.reserve(rows_.size());
  for (const auto& [key, idx] : keyed) sorted.push_back(std::move(rows_[idx]));
  rows_ = std::move(sorted);
  return Status::OK();
}

void SortNode::AppendExtraCounters(
    std::vector<std::pair<std::string, int64_t>>* out) const {
  out->emplace_back("est_bytes", buffer_bytes_);
  if (spill_bytes_ > 0) {
    out->emplace_back("spill_bytes", spill_bytes_);
    out->emplace_back("spill_partitions", spill_partitions_);
  }
}

Result<bool> SortNode::NextImpl(Row* out) {
  if (external_ != nullptr) return NextExternal(out);
  if (pos_ >= rows_.size()) return false;
  *out = std::move(rows_[pos_++]);
  return true;
}

// ---------------------------------------------------------------------------
// LimitNode
// ---------------------------------------------------------------------------

LimitNode::LimitNode(ExecNodePtr child, int64_t limit)
    : ExecNode(child->schema()), child_(std::move(child)), limit_(limit) {}

std::string LimitNode::detail() const { return std::to_string(limit_); }

Status LimitNode::OpenImpl() {
  produced_ = 0;
  return child_->Open();
}

Result<bool> LimitNode::NextImpl(Row* out) {
  if (produced_ >= limit_) return false;
  MR_ASSIGN_OR_RETURN(bool more, child_->Next(out));
  if (!more) return false;
  ++produced_;
  return true;
}

}  // namespace minerule::sql
