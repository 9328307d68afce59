#ifndef MINERULE_SQL_VECTORIZED_H_
#define MINERULE_SQL_VECTORIZED_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "relational/column.h"
#include "sql/operators.h"

namespace minerule::sql {

/// Columnar scan and scan-fused filter (DESIGN.md §12): the leaves of the
/// batch pipelines of unbudgeted plans. The planner builds them via the
/// factories below whenever ExecContext::vectorized is set, which the
/// engine derives per statement from the absence of a memory budget. A
/// budgeted statement keeps the row TableScan/Filter that feed the spill
/// operators. Both nodes are bit-identical to their row twins at any thread
/// count (the differential tests pin this).

/// The conjuncts of a WHERE predicate compiled to typed kernels over the
/// columns of a batch: <column> <cmp> <literal> comparisons over the int64
/// / double / dictionary payload arrays. All-or-nothing: a partially
/// kernelized AND could change which conjunct errors first, so any
/// conjunct without a kernel leaves the whole predicate to per-row
/// evaluation.
class FilterKernels {
 public:
  /// Compiles `predicate` against `columns` (indexed like its bound column
  /// references); false, with no kernels, when some conjunct has none.
  bool Compile(const Expr& predicate, const ColumnRow::Columns& columns);
  /// Keeps the rows of *sel that every kernel passes, in order.
  void Apply(std::vector<uint32_t>* sel) const;

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

  static bool CompileOne(const Expr& conjunct,
                         const ColumnRow::Columns& columns, Kernel* kernel);

  std::vector<Kernel> kernels_;
};

/// Columnar scan over a catalog table: Open() snapshots the table's cached
/// columnar image (relational/column.h); a batch borrows the image's
/// columns and selects the morsel's rows, copying nothing.
class VecScanNode : public ExecNode {
 public:
  explicit VecScanNode(std::shared_ptr<Table> table);
  const char* name() const override { return "VecScan"; }
  std::string detail() const override;
  bool ProducesBatches() const override { return true; }
  size_t MorselInputRows() const override { return image_.rows; }
  bool SideEffectFree() const override { return true; }
  int64_t EstimatedRowCount() const override;
  void AppendExtraCounters(
      std::vector<std::pair<std::string, int64_t>>* out) const override;

  /// The columnar snapshot's columns, taken at Open().
  const ColumnRow::Columns& columns() const { return image_.columns; }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;
  Status EvaluateBatchImpl(size_t begin, size_t end, Batch* out) override;

 private:
  std::shared_ptr<Table> table_;
  std::shared_ptr<const ColumnarTable> columnar_;
  ColumnSet image_;  // columnar_'s columns, shared into every batch
  size_t pos_ = 0;
  int64_t bytes_ = 0;
};

/// Scan-fused filter: evaluates the predicate over the scan's batch,
/// shortening its selection vector. Comparison conjuncts of the form
/// <column> <cmp> <literal> compile to typed kernels over the int64 /
/// double / dictionary payload arrays; any other predicate shape is
/// evaluated per selected row in place (same results, same errors). Batch
/// boundaries are a pure function of the input size, so per-batch outputs
/// concatenated in batch order reproduce the serial row order at any thread
/// count.
class VecFilterNode : public ExecNode {
 public:
  VecFilterNode(std::unique_ptr<VecScanNode> scan, ExprPtr predicate,
                ExecContext* ctx);
  const char* name() const override { return "VecFilter"; }
  std::string detail() const override;
  std::vector<ExecNode*> children() override { return {scan_.get()}; }
  bool ProducesBatches() const override { return true; }
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
  Status EvaluateBatchImpl(size_t begin, size_t end, Batch* out) override;

 private:
  std::unique_ptr<VecScanNode> scan_;
  ExprPtr predicate_;
  ExecContext* ctx_;
  FilterKernels kernels_;
  bool use_kernels_ = false;
  // Counters.
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
