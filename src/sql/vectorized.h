#ifndef MINERULE_SQL_VECTORIZED_H_
#define MINERULE_SQL_VECTORIZED_H_

#include <cstdint>
#include <vector>

#include "relational/column.h"
#include "sql/ast.h"
#include "sql/expr_eval.h"

namespace minerule::sql {

/// The conjuncts of a WHERE predicate compiled to typed kernels over the
/// columns of a batch: <column> <cmp> <literal> comparisons over the int64
/// / double / dictionary payload arrays. All-or-nothing: a partially
/// kernelized AND could change which conjunct errors first, so any
/// conjunct without a kernel leaves the whole predicate to per-row
/// evaluation.
///
/// FilterNode runs them (DESIGN.md §12): compiled once per Open() when its
/// input's batches share one column set, per batch otherwise.
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

}  // namespace minerule::sql

#endif  // MINERULE_SQL_VECTORIZED_H_
