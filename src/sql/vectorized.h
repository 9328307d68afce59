#ifndef MINERULE_SQL_VECTORIZED_H_
#define MINERULE_SQL_VECTORIZED_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "relational/column.h"
#include "sql/operators.h"

namespace minerule::sql {

/// Vectorized (columnar-batch) counterparts of the row-at-a-time operators
/// (DESIGN.md §12). The planner substitutes them via the Make*Node factories
/// below when ExecContext::vectorized is on and the plan node is eligible;
/// otherwise the row operators are built unchanged. Every vectorized node
/// keeps the volcano Open/Next interface as a shim, so EXPLAIN, operator
/// profiles and the morsel protocol work identically — and every node is
/// bit-identical to its row twin at any thread count (the differential tests
/// pin this).

/// Columnar scan over a catalog table: Open() snapshots the table's cached
/// columnar image (relational/column.h), Next()/RunMorsel materialize rows
/// from it. A fused VecFilterNode reads the column vectors directly and
/// accounts the bypassed rows here so the profile stays truthful.
class VecScanNode : public ExecNode {
 public:
  explicit VecScanNode(std::shared_ptr<Table> table);
  const char* name() const override { return "VecScan"; }
  std::string detail() const override;
  bool SupportsMorsels() const override { return true; }
  size_t MorselInputRows() const override { return snapshot_rows_; }
  bool SideEffectFree() const override { return true; }
  int64_t EstimatedRowCount() const override;
  void AppendExtraCounters(
      std::vector<std::pair<std::string, int64_t>>* out) const override;

  /// The columnar snapshot taken at Open(); null before Open.
  const ColumnarTable* columnar() const { return columnar_.get(); }

  /// Called by a fused parent that consumed `rows` of this scan's columns
  /// without going through Next/RunMorsel.
  void AccountFusedRead(int64_t rows) { CountBypassedRows(rows); }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;
  Status EvaluateMorselImpl(size_t begin, size_t end,
                            std::vector<Row>* out) override;

 private:
  std::shared_ptr<Table> table_;
  std::shared_ptr<const ColumnarTable> columnar_;
  size_t snapshot_rows_ = 0;
  size_t pos_ = 0;
  int64_t bytes_ = 0;
};

/// Scan-fused filter: evaluates the predicate over the scan's column vectors
/// in kMorselRows-sized batches, producing a selection vector of surviving
/// row indexes, and materializes only the survivors. Comparison conjuncts of
/// the form <column> <cmp> <literal> compile to typed kernels over the int64
/// / double / dictionary payload arrays; any other predicate shape falls
/// back to per-row evaluation of the whole predicate (same batching, same
/// results, same errors). Batch boundaries are a pure function of the input
/// size, so per-batch outputs concatenated in batch order reproduce the
/// serial row order at any thread count.
class VecFilterNode : public ExecNode {
 public:
  VecFilterNode(std::unique_ptr<VecScanNode> scan, ExprPtr predicate,
                ExecContext* ctx);
  const char* name() const override { return "VecFilter"; }
  std::string detail() const override;
  std::vector<ExecNode*> children() override { return {scan_.get()}; }
  bool SupportsMorsels() const override { return true; }
  size_t MorselInputRows() const override { return scan_->MorselInputRows(); }
  bool SideEffectFree() const override { return true; }
  int64_t EstimatedRowCount() const override {
    return scan_->EstimatedRowCount();  // upper bound (filter only drops)
  }
  void RecordParallelWorkers(int workers) override {
    NoteWorkers(workers);
    scan_->RecordParallelWorkers(workers);
  }
  void AppendExtraCounters(
      std::vector<std::pair<std::string, int64_t>>* out) const override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;
  Status EvaluateMorselImpl(size_t begin, size_t end,
                            std::vector<Row>* out) override;

 private:
  /// One compiled <column> <cmp> <literal> conjunct. `kind` selects the
  /// payload array and comparison; NULL column slots never pass (SQL
  /// comparisons over NULL yield NULL, which WHERE rejects).
  struct Kernel {
    enum class Kind {
      kIntInt,        // int64 payload vs int64 literal
      kIntDouble,     // int64 payload vs double literal (exact three-way)
      kDoubleDouble,  // double payload vs double literal
      kDictLookup,    // dict codes vs per-code precomputed verdicts
      kPassNotNull,   // constant-true comparison: passes every non-NULL row
      kPassNone,      // constant-false comparison: passes nothing
    };
    Kind kind = Kind::kPassNone;
    const ColumnVector* col = nullptr;
    BinaryOp op = BinaryOp::kEq;
    int64_t ilit = 0;
    double dlit = 0.0;
    // kIntDouble: the literal's truncation and the compare result on ties.
    int64_t trunc = 0;
    int tie_cmp = 0;
    // kDictLookup: verdict per dictionary code.
    std::vector<uint8_t> pass;

    bool Matches(size_t i) const;
  };

  void CompileKernels();
  bool CompileOne(const Expr& conjunct, Kernel* kernel) const;
  Status EvalBatch(size_t begin, size_t end, std::vector<Row>* out);

  std::unique_ptr<VecScanNode> scan_;
  ExprPtr predicate_;
  ExecContext* ctx_;
  const ColumnarTable* columnar_ = nullptr;  // borrowed from scan_
  std::vector<Kernel> kernels_;
  bool use_kernels_ = false;
  // Serial Next() shim: one batch of survivors at a time.
  size_t cursor_ = 0;
  std::vector<Row> buffer_;
  size_t buf_pos_ = 0;
  // Counters.
  std::atomic<int64_t> batches_{0};
  std::atomic<int64_t> scanned_{0};
  std::atomic<int64_t> selected_{0};
};

/// Int-keyed equi hash join (single key pair, no residual — the factory
/// guarantees both). The build table is a JoinTable, whose KeyIndex encodes
/// the INTEGER keys (and any integral DOUBLE) as flat words and keeps the
/// rare non-canonical values on its Row-keyed fallback with identical
/// equality semantics. Bucket contents are inserted in build order and
/// probed in probe order, so the output matches the row HashJoinNode
/// row-for-row.
class VecHashJoinNode : public ExecNode {
 public:
  VecHashJoinNode(ExecNodePtr left, ExecNodePtr right, ExprPtr left_key,
                  ExprPtr right_key, ExecContext* ctx);
  const char* name() const override { return "VecHashJoin"; }
  std::string detail() const override;
  std::vector<ExecNode*> children() override {
    return {left_.get(), right_.get()};
  }
  bool SupportsMorsels() const override { return parallel_; }
  size_t MorselInputRows() const override { return left_rows_.size(); }
  bool SideEffectFree() const override {
    return left_->SideEffectFree() && right_->SideEffectFree();
  }
  void AppendExtraCounters(
      std::vector<std::pair<std::string, int64_t>>* out) const override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;
  Status EvaluateMorselImpl(size_t begin, size_t end,
                            std::vector<Row>* out) override;

 private:
  /// Evaluates the probe key of `left_row` into the one-column *key;
  /// false when it is NULL (NULL keys never join).
  Result<bool> ProbeKey(const Row& left_row, Row* key) const;
  Status ProbeRow(const Row& left_row, Row* key, std::vector<Row>* out);

  ExecNodePtr left_;
  ExecNodePtr right_;
  ExprPtr left_key_;
  ExprPtr right_key_;
  ExecContext* ctx_;
  std::vector<Row> build_rows_;  // valid-key build rows, in build order
  JoinTable table_;              // indexes into build_rows_
  std::vector<Row> left_rows_;  // parallel mode: materialized probe side
  bool parallel_ = false;       // decided at Open()
  bool probe_skipped_ = false;
  int64_t build_bytes_ = 0;
  // Serial Next(): streams the probe side one bucket at a time, no buffering.
  size_t left_pos_ = 0;
  Row current_left_;
  Row probe_key_;
  std::span<const uint32_t> current_bucket_;
  size_t bucket_pos_ = 0;
};

/// Int-keyed GROUP BY with fixed-width aggregate states (the factory admits
/// only INTEGER group keys, no DISTINCT, and COUNT/SUM/AVG/MIN/MAX over
/// numeric arguments). Group keys go through a KeyIndex, which encodes them
/// to flat int64 words, and each aggregate keeps a compact state struct that
/// replicates AggAccumulator::Add/Finish exactly (NULL skipping, the exact
/// integer sum with overflow fallback, first-seen MIN/MAX retention).
/// Emission order is global first-seen order — identical to the row node.
class VecHashAggregateNode : public ExecNode {
 public:
  VecHashAggregateNode(ExecNodePtr child, std::vector<ExprPtr> group_exprs,
                       std::vector<AggSpec> aggs, Schema out_schema,
                       ExecContext* ctx);
  const char* name() const override { return "VecHashAggregate"; }
  std::string detail() const override;
  std::vector<ExecNode*> children() override { return {child_.get()}; }
  bool SideEffectFree() const override { return child_->SideEffectFree(); }
  void AppendExtraCounters(
      std::vector<std::pair<std::string, int64_t>>* out) const override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;

 private:
  /// Fixed-width per-aggregate state; field-for-field the subset of
  /// AggAccumulator a non-DISTINCT numeric aggregate can reach.
  struct AggState {
    int64_t count = 0;
    int64_t int_sum = 0;
    double double_sum = 0.0;
    bool all_integers = true;
    Value extreme;  // running MIN/MAX value
  };

  size_t FindOrAddGroup(const Row& key);
  Status Accumulate(const Row& row);
  Status AddToState(AggState* state, AggFunc func, const Value& value) const;
  Result<Value> FinishState(const AggState& state, AggFunc func) const;

  ExecNodePtr child_;
  std::vector<ExprPtr> group_exprs_;
  std::vector<AggSpec> aggs_;
  ExecContext* ctx_;
  // Key ids index the first-seen-order group storage.
  KeyIndex group_index_;
  std::vector<Row> group_keys_;
  std::vector<std::vector<AggState>> group_states_;
  std::vector<Row> results_;
  // Per-row scratch, reused so group lookups allocate only on new groups.
  Row key_scratch_;
  int64_t table_bytes_ = 0;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Planner factories: vectorized node when eligible, row node otherwise.
// ---------------------------------------------------------------------------

/// Base-table scan.
ExecNodePtr MakeScanNode(std::shared_ptr<Table> table, ExecContext* ctx);

/// WHERE filter. Vectorized iff the child is a VecScanNode (fusion target)
/// and the predicate is NEXTVAL-free.
ExecNodePtr MakeFilterNode(ExecNodePtr child, ExprPtr predicate,
                           ExecContext* ctx);

/// Equi hash join. Vectorized iff there is exactly one key pair, both sides
/// infer INTEGER, the keys are NEXTVAL-free and there is no residual.
/// `swap_build` (cost-based planner) builds over the LEFT input instead of
/// the right; it forces the row-at-a-time node, whose swapped mode emits the
/// canonical output order exactly.
ExecNodePtr MakeHashJoinNode(ExecNodePtr left, ExecNodePtr right,
                             std::vector<ExprPtr> left_keys,
                             std::vector<ExprPtr> right_keys, ExprPtr residual,
                             ExecContext* ctx, bool swap_build = false);

/// GROUP BY. Vectorized iff every group key infers INTEGER, no aggregate is
/// DISTINCT, SUM/AVG/MIN/MAX arguments infer INTEGER or DOUBLE, and all
/// expressions are NEXTVAL-free.
ExecNodePtr MakeHashAggregateNode(ExecNodePtr child,
                                  std::vector<ExprPtr> group_exprs,
                                  std::vector<AggSpec> aggs, Schema out_schema,
                                  ExecContext* ctx);

}  // namespace minerule::sql

#endif  // MINERULE_SQL_VECTORIZED_H_
