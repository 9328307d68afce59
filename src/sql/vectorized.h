#ifndef MINERULE_SQL_VECTORIZED_H_
#define MINERULE_SQL_VECTORIZED_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "relational/column.h"
#include "sql/operators.h"

namespace minerule::sql {

/// Columnar (batch) scan and scan-fused filter (DESIGN.md §12). They are the
/// engine's in-memory scan path: the planner builds them via the factories
/// below whenever ExecContext::vectorized is set, which the engine derives
/// per statement from the absence of a memory budget. A budgeted statement
/// keeps the row TableScan/Filter that feed the spill operators. Joins and
/// aggregates are always the row operators (sql/operators.h), which consume
/// these nodes through the volcano Open/Next shim and the morsel protocol,
/// so EXPLAIN and operator profiles work unchanged. Both nodes are
/// bit-identical to their row twins at any thread count (the differential
/// tests pin this).

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

// ---------------------------------------------------------------------------
// Planner factories: columnar node when eligible, row node otherwise.
// ---------------------------------------------------------------------------

/// Base-table scan: columnar iff ExecContext::vectorized.
ExecNodePtr MakeScanNode(std::shared_ptr<Table> table, ExecContext* ctx);

/// WHERE filter. Columnar iff the child is a VecScanNode (fusion target) and
/// the predicate is NEXTVAL-free.
ExecNodePtr MakeFilterNode(ExecNodePtr child, ExprPtr predicate,
                           ExecContext* ctx);

}  // namespace minerule::sql

#endif  // MINERULE_SQL_VECTORIZED_H_
