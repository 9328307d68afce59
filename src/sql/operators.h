#ifndef MINERULE_SQL_OPERATORS_H_
#define MINERULE_SQL_OPERATORS_H_

#include <atomic>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/stopwatch.h"
#include "relational/column.h"
#include "relational/table.h"
#include "sql/aggregates.h"
#include "sql/ast.h"
#include "sql/expr_eval.h"
#include "sql/key_index.h"
#include "sql/vectorized.h"

namespace minerule::sql {

/// Rows per morsel for morsel-driven parallel execution (DESIGN.md §9).
/// Morsel boundaries are a pure function of the input size, never of the
/// thread count, so per-morsel results merged in morsel order are
/// bit-identical at any parallelism.
inline constexpr size_t kMorselRows = 1024;

/// Execution statistics for one operator, snapshotted from an executed plan
/// (EXPLAIN ANALYZE, preprocess query profiles).
struct OperatorProfile {
  std::string name;
  std::string detail;
  int depth = 0;       // position in the pre-order flattening of the plan
  int64_t rows = 0;    // rows produced
  int64_t micros = 0;  // inclusive wall time; 0 unless timing was enabled
  std::vector<std::pair<std::string, int64_t>> counters;
  /// Cost-based-planner estimates (DESIGN.md §14); -1 when the planner ran
  /// without statistics (the default, estimate-free EXPLAIN output).
  double est_rows = -1;
  double est_cost = -1;

  /// Value of the named extra counter (est_bytes, workers, ...); 0 when
  /// the operator did not report it.
  int64_t Counter(std::string_view key) const {
    for (const auto& [name, value] : counters) {
      if (name == key) return value;
    }
    return 0;
  }
};

/// Execution record of one generated query of a MINE RULE run: a preprocess
/// Q0..Q11, a postprocess decode step, or a DDL statement of either phase.
/// The one per-query record: MiningRunStats, its JSON and the mr_runs
/// history (mr_query_profile, mr_operator_stats) all hold these.
struct QueryStat {
  std::string id;     // "Q4", "POST2", ...
  std::string phase;  // "preprocess" | "postprocess"
  std::string sql;
  int64_t micros = 0;
  int64_t rows = 0;  // rows inserted / returned

  /// Per-operator plan statistics (row counts; timing only under EXPLAIN
  /// ANALYZE). Empty when the engine's collect_operator_stats flag is off
  /// or the statement had no plan (DDL).
  std::vector<OperatorProfile> operators;
};

/// A batch of typed columns plus a selection vector (DESIGN.md §12): the
/// unit of data between the operators of an unbudgeted plan. Every column
/// spans one row space; `sel` lists the live rows of that space in output
/// order, ascending. Operators that pass a column through share it rather
/// than copy it: a scan's batch borrows its table image's columns, a
/// filter only shortens `sel`, a column-reference projection only picks
/// columns.
struct Batch {
  std::vector<std::shared_ptr<const ColumnVector>> columns;
  std::vector<uint32_t> sel;

  size_t size() const { return sel.size(); }
  void Clear() {
    columns.clear();
    sel.clear();
  }
  /// Row `row` of the column space (a `sel` entry) as a Row.
  void MaterializeRow(uint32_t row, Row* out) const;
  /// Appends the selected rows, in order, as Rows.
  void AppendRows(std::vector<Row>* out) const;
  /// The selected rows gathered into fresh dense columns (sel = 0..n-1).
  void Densify();
};

/// Rows [begin, end) of `rows` encoded under `schema` as a dense batch:
/// how row sources (TableScan, Rows, drained row operators) feed batch
/// operators.
void EncodeRowsBatch(const Schema& schema, const std::vector<Row>& rows,
                     size_t begin, size_t end, Batch* out);

/// Columns served as batches over row ranges: a scan's table image, or the
/// columns a pipeline breaker materialized as its output.
struct ColumnSet {
  std::vector<std::shared_ptr<const ColumnVector>> columns;
  size_t rows = 0;

  void Serve(size_t begin, size_t end, Batch* out) const;
  int64_t ByteSize() const;
};

/// Base class of the executor nodes. A node's output schema is fixed at
/// construction. It produces its rows one of two ways, chosen at Open():
///
/// - Batches (DESIGN.md §12): ProducesBatches() is true and RunBatch(begin,
///   end) evaluates one morsel of input range [0, MorselInputRows()) into a
///   Batch. Every unbudgeted plan runs this way, at every thread count: a
///   driver (DrainOpenedNode, ForEachBatch, a pipeline breaker) claims
///   fixed-size morsels and concatenates per-morsel outputs in morsel
///   order, which reproduces the serial row order exactly. Morsels run
///   concurrently only when the subtree is SideEffectFree(); otherwise one
///   at a time in ascending order, so NEXTVAL numbers rows in serial order.
///   An operator that draws NEXTVAL over an input that draws too (and a
///   hash join with NEXTVAL in its keys or residual) runs on rows instead,
///   so the draws interleave row by row as on the serial path.
/// - Rows (volcano Open/Next): the budgeted plans' path, which feeds the
///   spill operators (DESIGN.md §13). Row consumers work on either kind:
///   Next() on a pipelined batch operator (Filter, Project, HashJoin)
///   streams its input row by row and evaluates nothing ahead of the row
///   it returns (a LIMIT above stops NEXTVAL and errors where the rows
///   stop); a scan reads its table's rows, and a pipeline breaker reads
///   its own batches in order.
///
/// The public wrappers count produced rows (always — a branch and an
/// increment) and, when timing is enabled via EnableTimingTree, accumulate
/// wall time. Timing is *inclusive*: a parent pulls from its children
/// inside its own evaluation, so child time is counted in the parent as well
/// (like EXPLAIN ANALYZE's "actual time" in most engines). The counters are
/// relaxed atomics so concurrent morsels on a fused chain stay race-free.
class ExecNode {
 public:
  explicit ExecNode(Schema schema) : schema_(std::move(schema)) {}
  virtual ~ExecNode() = default;

  ExecNode(const ExecNode&) = delete;
  ExecNode& operator=(const ExecNode&) = delete;

  Status Open() {
    cursor_.reset();
    if (!timing_) return OpenImpl();
    Stopwatch watch;
    Status status = OpenImpl();
    micros_.fetch_add(watch.ElapsedMicros(), std::memory_order_relaxed);
    return status;
  }

  /// Produces the next row into *out; returns false at end of stream.
  Result<bool> Next(Row* out) {
    if (!timing_) {
      Result<bool> more = NextImpl(out);
      if (more.ok() && *more) rows_out_.fetch_add(1, std::memory_order_relaxed);
      return more;
    }
    Stopwatch watch;
    Result<bool> more = NextImpl(out);
    micros_.fetch_add(watch.ElapsedMicros(), std::memory_order_relaxed);
    if (more.ok() && *more) rows_out_.fetch_add(1, std::memory_order_relaxed);
    return more;
  }

  /// True when this node serves RunBatch calls. Only meaningful after
  /// Open(): a unary operator of a budgeted plan, for instance, produces
  /// batches only when parallel workers can drive its child's batches.
  virtual bool ProducesBatches() const { return false; }

  /// Number of input rows morsel ranges are defined over; valid after
  /// Open(). A batch may hold fewer or more rows than its range covers
  /// (filters drop, joins multiply).
  virtual size_t MorselInputRows() const { return 0; }

  /// Evaluates input range [begin, end) into *out, replacing its contents.
  /// Safe to call concurrently for disjoint ranges after Open() when the
  /// subtree is SideEffectFree(). Counts rows/time like Next() and tallies
  /// the batch.
  Status RunBatch(size_t begin, size_t end, Batch* out) {
    out->Clear();
    if (!timing_) {
      Status status = EvaluateBatchImpl(begin, end, out);
      if (status.ok()) CountBatch(static_cast<int64_t>(out->size()));
      return status;
    }
    Stopwatch watch;
    Status status = EvaluateBatchImpl(begin, end, out);
    micros_.fetch_add(watch.ElapsedMicros(), std::memory_order_relaxed);
    if (status.ok()) CountBatch(static_cast<int64_t>(out->size()));
    return status;
  }

  /// The columns every batch of this node carries, when all its batches
  /// share one column set (a scan's table image, a pipeline breaker's
  /// output, and the operators that pass those through); null when batches
  /// build their own columns. Valid after Open(). A filter above compiles
  /// its kernels once against these.
  virtual const ColumnRow::Columns* SharedColumns() const { return nullptr; }

  /// True when executing this subtree has no observable side effects — no
  /// NEXTVAL anywhere in its expressions. Plan-static (valid before Open).
  /// Lets a hash join skip its probe side entirely when the build side is
  /// empty, and lets drivers run batches concurrently. Conservative
  /// default: assume side effects.
  virtual bool SideEffectFree() const { return false; }

  /// Estimated number of output rows before execution, for sizing hash
  /// tables; -1 when unknown. Leaf scans know their size exactly; filters
  /// and projections forward the child's estimate as an upper bound.
  virtual int64_t EstimatedRowCount() const { return -1; }

  /// Records the number of workers that drove this node in parallel (max
  /// over recordings). Nodes that delegate morsels to a child (Filter,
  /// Project, the hash join's probe side) forward the recording down the
  /// fused chain.
  virtual void RecordParallelWorkers(int workers) { NoteWorkers(workers); }

  const Schema& schema() const { return schema_; }

  /// Operator name as shown in EXPLAIN (e.g. "HashJoin").
  virtual const char* name() const = 0;

  /// One-line operator argument (predicate, table name, key list, ...).
  /// Deterministic: depends only on the plan, never on execution.
  virtual std::string detail() const { return ""; }

  /// Child operators in plan order (build/probe inputs, etc.).
  virtual std::vector<ExecNode*> children() { return {}; }

  /// Operator-specific counters (hash-table build size, ...), only
  /// meaningful after execution.
  virtual void AppendExtraCounters(
      std::vector<std::pair<std::string, int64_t>>* /*out*/) const {}

  int64_t rows_out() const { return rows_out_.load(std::memory_order_relaxed); }
  int64_t micros() const { return micros_.load(std::memory_order_relaxed); }

  /// Batches this node produced, on any path and at any thread count.
  int64_t batches() const { return batches_.load(std::memory_order_relaxed); }
  /// Morsels this node evaluated or drove over its input (pipeline
  /// breakers aggregating child batches); reported only when a parallel
  /// driver recorded workers.
  int64_t parallel_morsels() const {
    return morsels_.load(std::memory_order_relaxed);
  }
  /// Max worker count recorded for this node; 0 on the serial path.
  int parallel_workers() const {
    return workers_.load(std::memory_order_relaxed);
  }

  /// Turns per-operator wall-time accounting on/off for this whole subtree.
  void EnableTimingTree(bool enabled) {
    timing_ = enabled;
    for (ExecNode* child : children()) child->EnableTimingTree(enabled);
  }

  /// Cost-based-planner estimates for EXPLAIN (DESIGN.md §14). Plan-static:
  /// set once at plan time, never updated by execution; -1 (the default)
  /// means "not estimated" and renders nothing, so estimate-free plans keep
  /// their historical EXPLAIN output.
  void SetPlanEstimates(double est_rows, double est_cost) {
    plan_est_rows_ = est_rows;
    plan_est_cost_ = est_cost;
  }
  double plan_est_rows() const { return plan_est_rows_; }
  double plan_est_cost() const { return plan_est_cost_; }

 protected:
  virtual Status OpenImpl() = 0;
  virtual Result<bool> NextImpl(Row* out) = 0;

  /// Batch evaluation body; only reached when ProducesBatches() is true.
  virtual Status EvaluateBatchImpl(size_t /*begin*/, size_t /*end*/,
                                   Batch* /*out*/) {
    return Status::Internal(std::string(name()) +
                            " does not produce batches");
  }

  /// NextImpl of a batch-producing node: its own batches in morsel order,
  /// one row at a time (the Next() side of the row adapter).
  Result<bool> NextFromBatches(Row* out);

  /// Max-updates the recorded worker count (relaxed CAS loop).
  void NoteWorkers(int workers) {
    int seen = workers_.load(std::memory_order_relaxed);
    while (workers > seen &&
           !workers_.compare_exchange_weak(seen, workers,
                                           std::memory_order_relaxed)) {
    }
  }

  /// For pipeline breakers that drive their child by morsels internally:
  /// tallies the morsels processed on this node's own counter.
  void NoteDrivenMorsels(int64_t morsels) {
    morsels_.fetch_add(morsels, std::memory_order_relaxed);
  }

  Schema schema_;

 private:
  /// Serial read position of NextFromBatches.
  struct RowCursor {
    size_t next_begin = 0;
    Batch batch;
    size_t pos = 0;
  };

  void CountBatch(int64_t rows_added) {
    rows_out_.fetch_add(rows_added, std::memory_order_relaxed);
    batches_.fetch_add(1, std::memory_order_relaxed);
    morsels_.fetch_add(1, std::memory_order_relaxed);
  }

  bool timing_ = false;
  double plan_est_rows_ = -1;
  double plan_est_cost_ = -1;
  std::unique_ptr<RowCursor> cursor_;
  std::atomic<int64_t> rows_out_{0};
  std::atomic<int64_t> micros_{0};
  std::atomic<int64_t> batches_{0};
  std::atomic<int64_t> morsels_{0};
  std::atomic<int> workers_{0};
};

using ExecNodePtr = std::unique_ptr<ExecNode>;

class MemoryAccountant;  // sql/spill.h

/// Estimated in-memory footprint of one materialized row: the inline Value
/// storage plus string heap payloads. Used with sampled rows for the
/// rows-times-width working-set estimates (DESIGN.md §11).
int64_t EstimateRowBytes(const Row& row);

/// rows times the mean EstimateRowBytes over up to 64 evenly spaced sample
/// rows; 0 for an empty buffer. A single-row sample badly misestimates
/// variable-width data, which is why the working-set estimates sample.
int64_t SampledRowsBytes(const std::vector<Row>& rows);

/// SampledRowsBytes, additionally raising the named process-wide peak gauge
/// so memory spikes survive into mr_metrics.
int64_t AccountBufferBytes(const char* gauge, const std::vector<Row>& rows);

/// Runs fn(morsel, batch) for every morsel of an opened batch-producing
/// node, in morsel order. With num_threads != 1 and a side-effect-free
/// subtree the morsels run on up to num_threads workers (recorded on the
/// node); otherwise one at a time in ascending order, stopping at the first
/// error. Returns the first error in morsel order either way, which is the
/// one the serial pass meets first.
Status ForEachBatch(ExecNode* node, int num_threads,
                    const std::function<Status(size_t, Batch*)>& fn);

/// Drains an already-opened node into *out: its batches materialized as
/// Rows (in parallel per ForEachBatch, concatenated in morsel order) when
/// it produces batches, its Next() rows otherwise. This is the adapter of
/// the row consumers (Sort, nested-loop join, the result set). Appends to
/// *out. When `accountant` is given, the drained rows are accounted while
/// the buffer grows, so the peak gauge reflects the buffer before it is
/// complete.
Status DrainOpenedNode(ExecNode* node, int num_threads, std::vector<Row>* out,
                       MemoryAccountant* accountant = nullptr);

/// A batch operator's view of one child (DESIGN.md §12): the child's own
/// batches when it produces them; otherwise the child's rows, drained once
/// at Open and encoded into a batch per morsel range. The second form
/// serves the row operators (Sort, nested-loop join, Limit) under batch
/// operators of unbudgeted plans.
class BatchInput {
 public:
  /// Opens `node` and decides the form.
  Status Open(ExecNode* node, int num_threads) {
    MR_RETURN_IF_ERROR(node->Open());
    return Attach(node, num_threads);
  }
  /// The same over an already opened `node`.
  Status Attach(ExecNode* node, int num_threads);
  /// Morsel input rows; 0 before Open.
  size_t rows() const {
    if (drained_) return rows_.size();
    return node_ != nullptr ? node_->MorselInputRows() : 0;
  }
  Status Run(size_t begin, size_t end, Batch* out) const;
  /// The input's next row, for a consumer read row by row: the child's
  /// Next() (which evaluates nothing ahead of the row it returns), or the
  /// next drained row.
  Result<bool> Next(Row* out);
  /// ForEachBatch over this input.
  Status ForEach(int num_threads,
                 const std::function<Status(size_t, Batch*)>& fn) const;
  /// Whether morsels may run concurrently.
  bool parallel_safe() const { return drained_ || node_->SideEffectFree(); }
  /// The child's shared columns; null for drained rows, which are encoded
  /// per morsel.
  const ColumnRow::Columns* SharedColumns() const {
    return drained_ || node_ == nullptr ? nullptr : node_->SharedColumns();
  }
  void RecordParallelWorkers(int workers) const {
    if (node_ != nullptr && !drained_) node_->RecordParallelWorkers(workers);
  }

 private:
  ExecNode* node_ = nullptr;
  bool drained_ = false;
  std::vector<Row> rows_;
  size_t pos_ = 0;  // Next()'s read position in rows_
};

/// Opens a plan and drains it with DrainOpenedNode: bit-identical at every
/// thread count. num_threads == 1 is the serial path; <= 0 means hardware
/// concurrency.
Result<std::vector<Row>> CollectRowsParallel(ExecNode* node, int num_threads);

/// Pre-order flattening of the plan's statistics (root first, children at
/// depth + 1). Call after execution for meaningful rows/micros.
std::vector<OperatorProfile> FlattenPlanProfile(ExecNode* root);

/// Renders the plan as indented text lines, one per operator. With
/// `analyze` the lines append actual rows, time and extra counters; without
/// it the output is fully deterministic (golden-testable).
std::vector<std::string> RenderPlan(ExecNode* root, bool analyze);

/// Full scan over a catalog table. The row count is snapshotted at Open()
/// so `INSERT INTO t SELECT ... FROM t` terminates. Unbudgeted, its batches
/// borrow the columns of the table's columnar image (relational/column.h:
/// a column-stored table's columns of record, else the cached image) and
/// select the morsel's rows, copying nothing, and Next() reads the image.
/// Under a memory budget the image, which has no budget story, is never
/// built: each batch encodes its morsel's rows, so the unary batch
/// operators above run in parallel, and a serial budgeted plan reads rows
/// through Next().
class TableScanNode : public ExecNode {
 public:
  TableScanNode(std::shared_ptr<Table> table, ExecContext* ctx);
  const char* name() const override { return "TableScan"; }
  std::string detail() const override;
  bool ProducesBatches() const override { return true; }
  size_t MorselInputRows() const override { return snapshot_size_; }
  const ColumnRow::Columns* SharedColumns() const override {
    return imaged_ ? &image_.columns : nullptr;
  }
  bool SideEffectFree() const override { return true; }
  int64_t EstimatedRowCount() const override;
  void AppendExtraCounters(
      std::vector<std::pair<std::string, int64_t>>* out) const override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;
  Status EvaluateBatchImpl(size_t begin, size_t end, Batch* out) override;

 private:
  std::shared_ptr<Table> table_;
  ExecContext* ctx_;
  size_t pos_ = 0;
  size_t snapshot_size_ = 0;
  bool imaged_ = false;  // unbudgeted: batches serve image_
  ColumnSet image_;      // the image's columns, shared into every batch
};

/// Emits a fixed in-memory row set (subquery materialization, VALUES,
/// and the implicit single empty row of a FROM-less SELECT).
class RowsNode : public ExecNode {
 public:
  RowsNode(Schema schema, std::vector<Row> rows);
  const char* name() const override { return "Rows"; }
  std::string detail() const override;
  bool ProducesBatches() const override { return true; }
  size_t MorselInputRows() const override { return rows_.size(); }
  bool SideEffectFree() const override { return true; }
  int64_t EstimatedRowCount() const override {
    return static_cast<int64_t>(rows_.size());
  }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;
  Status EvaluateBatchImpl(size_t begin, size_t end, Batch* out) override;

 private:
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

/// Scan over a system table (mr_runs, mr_metrics, ...) materialized from
/// the process-wide observability registries at plan time (DESIGN.md §11).
/// Execution-wise a RowsNode; it only reports itself distinctly in EXPLAIN.
class SystemScanNode : public RowsNode {
 public:
  SystemScanNode(std::string table, Schema schema, std::vector<Row> rows)
      : RowsNode(std::move(schema), std::move(rows)),
        table_(std::move(table)) {}
  const char* name() const override { return "SystemScan"; }
  std::string detail() const override { return table_; }

 private:
  std::string table_;
};

/// WHERE / HAVING filter. On batches it shortens the child batch's
/// selection vector. Unbudgeted, a predicate of <column> <cmp> <literal>
/// conjuncts runs as FilterKernels, compiled once at Open() when the
/// input's batches share one column set and per batch otherwise; any other
/// predicate, and every predicate under a budget (whose rows are the
/// reference the kernels are checked against), is evaluated per selected
/// row in place. On the row path it filters the child's Next() rows.
class FilterNode : public ExecNode {
 public:
  FilterNode(ExecNodePtr child, ExprPtr predicate, ExecContext* ctx);
  const char* name() const override { return "Filter"; }
  std::string detail() const override;
  std::vector<ExecNode*> children() override { return {child_.get()}; }
  bool ProducesBatches() const override { return batched_; }
  size_t MorselInputRows() const override { return input_.rows(); }
  const ColumnRow::Columns* SharedColumns() const override {
    return batched_ ? input_.SharedColumns() : nullptr;
  }
  bool SideEffectFree() const override {
    return pure_ && child_->SideEffectFree();
  }
  int64_t EstimatedRowCount() const override {
    return child_->EstimatedRowCount();  // upper bound (filter only drops)
  }
  void RecordParallelWorkers(int workers) override {
    NoteWorkers(workers);
    input_.RecordParallelWorkers(workers);
  }
  void AppendExtraCounters(
      std::vector<std::pair<std::string, int64_t>>* out) const override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;
  Status EvaluateBatchImpl(size_t begin, size_t end, Batch* out) override;

 private:
  ExecNodePtr child_;
  ExprPtr predicate_;
  ExecContext* ctx_;
  bool pure_ = false;  // predicate free of NEXTVAL
  bool batched_ = false;  // decided at Open()
  BatchInput input_;
  // Compiled at Open() against the input's shared columns
  // (`compiled_at_open_`); `use_kernels_` when the predicate compiled.
  FilterKernels kernels_;
  bool compiled_at_open_ = false;
  bool use_kernels_ = false;
  // Rows entering and leaving the selection vectors.
  std::atomic<int64_t> scanned_{0};
  std::atomic<int64_t> selected_{0};
};

/// SELECT-list projection (expressions already bound / rewritten). On
/// batches, column references select the child's columns without copying;
/// other expressions are evaluated per row, row by row and then expression
/// by expression, like the row path, so NEXTVAL numbers rows alike.
class ProjectNode : public ExecNode {
 public:
  ProjectNode(ExecNodePtr child, std::vector<ExprPtr> exprs, Schema out_schema,
              ExecContext* ctx);
  const char* name() const override { return "Project"; }
  std::string detail() const override;
  std::vector<ExecNode*> children() override { return {child_.get()}; }
  bool ProducesBatches() const override { return batched_; }
  size_t MorselInputRows() const override { return input_.rows(); }
  bool SideEffectFree() const override {
    return pure_ && child_->SideEffectFree();
  }
  int64_t EstimatedRowCount() const override {
    return child_->EstimatedRowCount();  // exact: projection is 1:1
  }
  const ColumnRow::Columns* SharedColumns() const override {
    return shared_.empty() ? nullptr : &shared_;
  }
  void RecordParallelWorkers(int workers) override {
    NoteWorkers(workers);
    input_.RecordParallelWorkers(workers);
  }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;
  Status EvaluateBatchImpl(size_t begin, size_t end, Batch* out) override;

 private:
  ExecNodePtr child_;
  std::vector<ExprPtr> exprs_;
  std::vector<DataType> types_;
  ExecContext* ctx_;
  bool pure_ = false;  // all projections free of NEXTVAL
  bool batched_ = false;  // decided at Open()
  BatchInput input_;
  // Set at Open() when every expression references a column of an input
  // with shared columns: the columns every output batch then picks.
  ColumnRow::Columns shared_;
};

/// Appends the 0-based source row index as a trailing INTEGER column
/// (display name "#ridN"). The cost-based planner wraps each base scan of a
/// reordered join with one of these; sorting the join output on the hidden
/// rowid tuple restores the canonical (syntactic-order) row order exactly,
/// because a left-deep hash-join chain emits rows in lexicographic
/// source-index order (DESIGN.md §14). 1:1 with its input, so morsel ranges
/// map directly to input indexes.
class RowNumberNode : public ExecNode {
 public:
  RowNumberNode(ExecNodePtr child, std::string column_name);
  const char* name() const override { return "RowNumber"; }
  std::string detail() const override { return column_name_; }
  std::vector<ExecNode*> children() override { return {child_.get()}; }
  bool ProducesBatches() const override { return child_->ProducesBatches(); }
  size_t MorselInputRows() const override { return child_->MorselInputRows(); }
  bool SideEffectFree() const override { return child_->SideEffectFree(); }
  int64_t EstimatedRowCount() const override {
    return child_->EstimatedRowCount();
  }
  void RecordParallelWorkers(int workers) override {
    NoteWorkers(workers);
    child_->RecordParallelWorkers(workers);
  }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;
  Status EvaluateBatchImpl(size_t begin, size_t end, Batch* out) override;

 private:
  ExecNodePtr child_;
  std::string column_name_;
  size_t pos_ = 0;
};

/// The left row's columns followed by the right row's: the one way a join
/// builds its output row.
Row ConcatRows(const Row& left, const Row& right);

/// The non-equi part of a join condition, bound against the joined layout
/// (left columns, then right). It is evaluated on a borrowed pair
/// (JoinedRow), so a rejected pair is never concatenated. It counts the
/// pairs it checked and passed for EXPLAIN ANALYZE: serial paths count each
/// pair, concurrent morsels count into a local Tally and Add it once.
class JoinResidual {
 public:
  struct Tally {
    int64_t checked = 0;
    int64_t passed = 0;
  };

  explicit JoinResidual(ExprPtr predicate) : predicate_(std::move(predicate)) {}

  /// Null for a pure equi (or cross) join.
  const Expr* get() const { return predicate_.get(); }
  bool NextValFree() const;

  /// True when the pair passes; always true without a predicate.
  Result<bool> Passes(const Row& left, const Row& right, ExecContext* ctx,
                      Tally* tally) const {
    if (predicate_ == nullptr) return true;
    ++tally->checked;
    MR_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*predicate_,
                                                 JoinedRow{left, right}, ctx));
    tally->passed += pass ? 1 : 0;
    return pass;
  }
  /// The same check on a pair read in place from column vectors.
  Result<bool> Passes(const ColumnRow& pair, ExecContext* ctx,
                      Tally* tally) const {
    if (predicate_ == nullptr) return true;
    ++tally->checked;
    MR_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*predicate_, pair, ctx));
    tally->passed += pass ? 1 : 0;
    return pass;
  }
  Result<bool> Passes(const Row& left, const Row& right, ExecContext* ctx) {
    Tally tally;
    Result<bool> pass = Passes(left, right, ctx, &tally);
    Add(tally);
    return pass;
  }

  void Add(const Tally& tally) {
    checked_.fetch_add(tally.checked, std::memory_order_relaxed);
    passed_.fetch_add(tally.passed, std::memory_order_relaxed);
  }
  void Reset() {
    checked_.store(0, std::memory_order_relaxed);
    passed_.store(0, std::memory_order_relaxed);
  }
  /// residual_checked / residual_passed, when there is a predicate.
  void AppendCounters(std::vector<std::pair<std::string, int64_t>>* out) const;

 private:
  ExprPtr predicate_;
  std::atomic<int64_t> checked_{0};
  std::atomic<int64_t> passed_{0};
};

/// Nested-loop join with an optional residual predicate, evaluated on each
/// pair before it is concatenated. The right side is materialized at Open()
/// for rescans.
class NestedLoopJoinNode : public ExecNode {
 public:
  NestedLoopJoinNode(ExecNodePtr left, ExecNodePtr right, ExprPtr predicate,
                     ExecContext* ctx);
  const char* name() const override { return "NestedLoopJoin"; }
  std::string detail() const override;
  std::vector<ExecNode*> children() override {
    return {left_.get(), right_.get()};
  }
  bool SideEffectFree() const override {
    return pure_ && left_->SideEffectFree() && right_->SideEffectFree();
  }
  void AppendExtraCounters(
      std::vector<std::pair<std::string, int64_t>>* out) const override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;

 private:
  ExecNodePtr left_;
  ExecNodePtr right_;
  JoinResidual predicate_;  // empty for a cross join
  ExecContext* ctx_;
  bool pure_ = false;
  std::vector<Row> right_rows_;
  Row current_left_;
  bool have_left_ = false;
  size_t right_pos_ = 0;
};

/// Equi hash join: builds a hash table over the right input keyed on
/// `right_keys`, probes with `left_keys`. A residual predicate (the
/// non-equi part of the join condition) filters key matches before they are
/// gathered. SQL semantics: NULL keys never match. Every build table is a
/// JoinTable (KeyIndex plus build-order row-index lists).
///
/// Unbudgeted plans run it on batches at every thread count: Open() drains
/// the build side's batches into columns and indexes their key words; the
/// join then produces batches morsel by morsel of the probe input, never
/// materializing it. Each probe batch's key words are looked up, the
/// residual is checked on each matched (probe row, build row) pair in
/// place, and the passing pairs gather the probe columns and the build
/// columns into the output batch. Probe order, then build order within a
/// key, is the output order at any parallelism. Next() (a row consumer
/// such as LIMIT) streams the probe rows one at a time against the same
/// table instead. An empty build side skips the probe side entirely when
/// that subtree is side-effect free. Budgeted plans, and any plan with
/// NEXTVAL in the join's keys or residual, keep the row path: a streaming
/// serial probe over a row hash table, or (budgeted and NEXTVAL-free) the
/// grace-hash spill path.
class HashJoinNode : public ExecNode {
 public:
  HashJoinNode(ExecNodePtr left, ExecNodePtr right,
               std::vector<ExprPtr> left_keys, std::vector<ExprPtr> right_keys,
               ExprPtr residual, ExecContext* ctx);
  ~HashJoinNode() override;
  const char* name() const override { return "HashJoin"; }
  std::string detail() const override;
  std::vector<ExecNode*> children() override {
    return {left_.get(), right_.get()};
  }
  bool ProducesBatches() const override { return batched_; }
  size_t MorselInputRows() const override {
    return probe_skipped_ ? 0 : probe_.rows();
  }
  bool SideEffectFree() const override {
    return pure_ && left_->SideEffectFree() && right_->SideEffectFree();
  }
  void RecordParallelWorkers(int workers) override {
    NoteWorkers(workers);
    probe_.RecordParallelWorkers(workers);
  }
  void AppendExtraCounters(
      std::vector<std::pair<std::string, int64_t>>* out) const override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;
  Status EvaluateBatchImpl(size_t begin, size_t end, Batch* out) override;

 private:
  struct Spill;  // grace-hash state, local to operators_spill.cc

  Result<bool> ComputeKey(const std::vector<ExprPtr>& exprs, const Row& row,
                          Row* key) const;
  /// Adds a build table's distinct keys to the encoded/generic counters.
  void NoteKeys(const KeyIndex& index) {
    encoded_keys_ += index.encoded_keys();
    generic_keys_ += index.generic_keys();
  }
  /// Batch mode: drains the build side into build_columns_ and table_.
  Status BuildBatches();
  /// Row mode without a budget story (NEXTVAL in the join's keys or
  /// residual): the serial in-memory build over the right rows.
  Status BuildRows();

  /// Budgeted serial path (ctx->memory_limit >= 0 and pure expressions):
  /// streams the build side under a MemoryAccountant; within budget it
  /// degenerates to the exact serial in-memory join, past it it becomes a
  /// recursive grace-hash join whose merged output reproduces the serial
  /// probe order bit for bit (operators_spill.cc, DESIGN.md §13).
  Status OpenBudget();
  Result<bool> NextSpill(Row* out);

  ExecNodePtr left_;
  ExecNodePtr right_;
  std::vector<ExprPtr> left_keys_;
  std::vector<ExprPtr> right_keys_;
  std::vector<DataType> left_key_types_;
  std::vector<DataType> right_key_types_;
  JoinResidual residual_;
  ExecContext* ctx_;
  bool pure_ = false;      // keys + residual free of NEXTVAL
  bool encodable_ = false; // key types allow KeyIndex encoding (at Open)
  bool batched_ = false;   // decided at Open()
  bool probe_skipped_ = false;
  JoinTable table_;
  /// Batch mode: the build rows with non-NULL keys, as columns.
  std::vector<std::shared_ptr<const ColumnVector>> build_columns_;
  BatchInput probe_;  // batch mode: the probe (left) input
  /// Row mode: the build rows with non-NULL keys.
  std::vector<Row> build_side_;
  int64_t build_rows_ = 0;
  int64_t build_bytes_ = 0;  // estimated build working set
  /// Build rows consumed including NULL-key rows, and their estimated
  /// footprint: an all-NULL-key build still materialized its input, so the
  /// working-set estimate must not read 0 (DESIGN.md §13).
  int64_t build_consumed_rows_ = 0;
  int64_t build_consumed_bytes_ = 0;
  int64_t spill_bytes_ = 0;       // spill file bytes written by this open
  int64_t spill_partitions_ = 0;  // leaf partitions joined on the spill path
  int64_t encoded_keys_ = 0;      // distinct build keys per KeyIndex path
  int64_t generic_keys_ = 0;
  std::unique_ptr<Spill> spill_;  // non-null only when the build overflowed
  Row current_left_;
  Row build_row_;  // batch mode's Next(): the current build row
  Row probe_key_;  // serial probe scratch
  std::span<const uint32_t> current_bucket_;
  size_t bucket_pos_ = 0;
};

/// One aggregate computed by HashAggregateNode.
struct AggSpec {
  AggFunc func = AggFunc::kCountStar;
  bool distinct = false;
  ExprPtr arg;  // bound against the child schema; null for COUNT(*)
};

/// GROUP BY via hashing. Output row layout: group expressions first, then
/// aggregate results, matching the slot rewriting done by the planner.
/// With no group expressions it emits exactly one row (global aggregate),
/// even over empty input.
///
/// Unbudgeted plans aggregate the child's batches, feeding the KeyIndex
/// from the group columns' key words, and emit the groups as columns. With
/// num_threads != 1, NEXTVAL-free expressions and every aggregate
/// merge-exact per AggAccumulator::MergeIsExact, workers aggregate child
/// batches into per-morsel tables which are then folded together in
/// ascending morsel order — a group's position is its (first morsel, first
/// local index), i.e. its global first occurrence, so the emission order
/// and every accumulator value are bit-identical to the serial pass.
/// SUM/AVG are order-sensitive and aggregate the batches serially. NEXTVAL
/// in its expressions over an input that draws too aggregates rows.
class HashAggregateNode : public ExecNode {
 public:
  HashAggregateNode(ExecNodePtr child, std::vector<ExprPtr> group_exprs,
                    std::vector<AggSpec> aggs, Schema out_schema,
                    ExecContext* ctx);
  ~HashAggregateNode() override;
  const char* name() const override { return "HashAggregate"; }
  std::string detail() const override;
  std::vector<ExecNode*> children() override { return {child_.get()}; }
  bool ProducesBatches() const override { return batched_; }
  size_t MorselInputRows() const override { return output_.rows; }
  const ColumnRow::Columns* SharedColumns() const override {
    return batched_ ? &output_.columns : nullptr;
  }
  bool SideEffectFree() const override {
    return pure_ && child_->SideEffectFree();
  }
  void AppendExtraCounters(
      std::vector<std::pair<std::string, int64_t>>* out) const override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;
  Status EvaluateBatchImpl(size_t begin, size_t end, Batch* out) override;

 private:
  struct GroupTable;  // sql/operators_spill_state.h

  std::vector<AggAccumulator> MakeAccumulators() const;
  /// Id of `key`'s group in *groups, adding the group (a copy of the key
  /// and fresh accumulators) when it is new.
  uint32_t FindOrAddGroup(GroupTable* groups, const Row& key,
                          bool* inserted) const;
  /// Adds a group table's distinct keys to the encoded/generic counters.
  void NoteKeys(const GroupTable& groups);
  /// Aggregates one child batch into *groups.
  Status AggregateBatch(const Batch& batch, GroupTable* groups) const;
  Status AggregateBatches(GroupTable* groups);
  /// Row path with NEXTVAL in its expressions: in a budgeted plan, or over
  /// an input that draws NEXTVAL too.
  Status AggregateRows(GroupTable* groups);

  /// Budgeted serial path (ctx->memory_limit >= 0 and pure expressions):
  /// buffers (input index, group key, aggregate args) tuples under a
  /// MemoryAccountant; within budget it aggregates the buffer exactly like
  /// the serial pass, past it the tuples spill to key-hash partitions that
  /// are aggregated independently (recursing on oversized ones) and the
  /// groups are re-emitted in serial first-seen order by their minimum
  /// input index (operators_spill.cc, DESIGN.md §13).
  Status OpenBudget();
  Status AggregatePartition(const struct AggPartitionInput& input, int depth,
                            bool can_split,
                            std::vector<std::pair<uint64_t, Row>>* out);

  ExecNodePtr child_;
  std::vector<ExprPtr> group_exprs_;
  std::vector<DataType> group_types_;
  std::vector<AggSpec> aggs_;
  /// Evaluated over each batch at once: the group keys, then each
  /// aggregate's argument; arg_columns_ maps an aggregate to its column
  /// (-1 for COUNT(*)).
  std::vector<ExprPtr> batch_exprs_;
  std::vector<DataType> batch_types_;
  std::vector<int> arg_columns_;
  ExecContext* ctx_;
  bool pure_ = false;        // group + agg expressions free of NEXTVAL
  bool merge_exact_ = false; // every aggregate is exactly mergeable
  bool encodable_ = false;   // key types allow KeyIndex encoding (at Open)
  bool batched_ = false;     // decided at Open()
  BatchInput input_;
  ColumnSet output_;         // batch mode: the groups
  std::vector<Row> results_;  // row mode: the groups
  int64_t groups_ = 0;
  int64_t table_bytes_ = 0;  // estimated result-table working set
  int64_t spill_bytes_ = 0;       // spill file bytes written by this open
  int64_t spill_partitions_ = 0;  // leaf partitions aggregated on disk
  int64_t encoded_keys_ = 0;      // distinct groups per KeyIndex path
  int64_t generic_keys_ = 0;
  size_t pos_ = 0;
};

/// Hash-based DISTINCT. On batches it keeps, per child batch, the rows
/// whose whole-row key words (KeyIndex) are new, and emits the survivors as
/// columns. With num_threads != 1 and a side-effect-free child it
/// deduplicates batches per morsel and folds the survivors in morsel order
/// through the global seen-set, reproducing the serial first-seen order
/// exactly. The row path (a serial budgeted plan, or a budgeted plan over
/// a row child) streams: emit on first sight.
class DistinctNode : public ExecNode {
 public:
  DistinctNode(ExecNodePtr child, ExecContext* ctx);
  const char* name() const override { return "Distinct"; }
  std::vector<ExecNode*> children() override { return {child_.get()}; }
  bool ProducesBatches() const override { return batched_; }
  size_t MorselInputRows() const override { return output_.rows; }
  const ColumnRow::Columns* SharedColumns() const override {
    return batched_ ? &output_.columns : nullptr;
  }
  bool SideEffectFree() const override { return child_->SideEffectFree(); }
  void AppendExtraCounters(
      std::vector<std::pair<std::string, int64_t>>* out) const override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;
  Status EvaluateBatchImpl(size_t begin, size_t end, Batch* out) override;

 private:
  Status DistinctBatches(size_t width, bool encodable);

  ExecNodePtr child_;
  ExecContext* ctx_;
  KeyIndex seen_;
  bool batched_ = false;  // decided at Open()
  BatchInput input_;
  ColumnSet output_;  // batch mode: the survivors
  size_t pos_ = 0;
};

/// ORDER BY: materializes and sorts at Open() using the total value order.
/// std::stable_sort keeps input order among ties, so the output is a
/// deterministic function of the input order alone. In parallel mode the
/// input is materialized morsel-parallel and the sort keys are computed
/// morsel-parallel into a pre-sized vector; the sort itself stays serial.
class SortNode : public ExecNode {
 public:
  struct SortKey {
    ExprPtr expr;  // bound against the child schema
    bool descending = false;
  };
  SortNode(ExecNodePtr child, std::vector<SortKey> keys, ExecContext* ctx);
  ~SortNode() override;
  const char* name() const override { return "Sort"; }
  std::string detail() const override;
  std::vector<ExecNode*> children() override { return {child_.get()}; }
  bool SideEffectFree() const override {
    return pure_ && child_->SideEffectFree();
  }
  void AppendExtraCounters(
      std::vector<std::pair<std::string, int64_t>>* out) const override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;

 private:
  struct External;  // external-merge-sort state, local to operators_spill.cc

  /// Total key order of `a` vs `b` under keys_ (ties false, so stable
  /// sorting and run-order tie-breaking preserve input order).
  bool KeyLess(const Row& a, const Row& b) const;

  /// Budgeted serial path (ctx->memory_limit >= 0 and pure sort keys):
  /// streams the child into a (key, row) buffer under a MemoryAccountant;
  /// within budget it finishes with the exact in-memory stable sort, past
  /// it each overflow writes a sorted run and NextImpl streams a fan-in-
  /// capped multi-way merge that reproduces the stable order bit for bit
  /// (operators_spill.cc, DESIGN.md §13).
  Status OpenBudget();
  Result<bool> NextExternal(Row* out);

  ExecNodePtr child_;
  std::vector<SortKey> keys_;
  ExecContext* ctx_;
  bool pure_ = false;  // sort keys free of NEXTVAL
  std::vector<Row> rows_;
  int64_t buffer_bytes_ = 0;  // estimated sort-buffer working set
  int64_t spill_bytes_ = 0;       // spill file bytes written by this open
  int64_t spill_partitions_ = 0;  // sorted runs written (incl. merge passes)
  std::unique_ptr<External> external_;  // non-null only when spilling
  size_t pos_ = 0;
};

/// LIMIT n. Stays serial: stopping early is the whole point, so driving the
/// child by morsels would evaluate rows the serial path never touches.
class LimitNode : public ExecNode {
 public:
  LimitNode(ExecNodePtr child, int64_t limit);
  const char* name() const override { return "Limit"; }
  std::string detail() const override;
  std::vector<ExecNode*> children() override { return {child_.get()}; }
  bool SideEffectFree() const override { return child_->SideEffectFree(); }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;

 private:
  ExecNodePtr child_;
  int64_t limit_;
  int64_t produced_ = 0;
};

}  // namespace minerule::sql

#endif  // MINERULE_SQL_OPERATORS_H_
