#include "sql/vectorized.h"

#include <algorithm>
#include <cmath>

#include "relational/date.h"

namespace minerule::sql {

namespace {

/// Three-way compare result applied to a comparison operator — the tail of
/// the row path's CompareOp.
bool ApplyCmp(BinaryOp op, int cmp) {
  switch (op) {
    case BinaryOp::kEq:
      return cmp == 0;
    case BinaryOp::kNotEq:
      return cmp != 0;
    case BinaryOp::kLess:
      return cmp < 0;
    case BinaryOp::kLessEq:
      return cmp <= 0;
    case BinaryOp::kGreater:
      return cmp > 0;
    case BinaryOp::kGreaterEq:
      return cmp >= 0;
    default:
      return false;
  }
}

bool IsComparisonOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNotEq:
    case BinaryOp::kLess:
    case BinaryOp::kLessEq:
    case BinaryOp::kGreater:
    case BinaryOp::kGreaterEq:
      return true;
    default:
      return false;
  }
}

/// Mirrors `col <op> lit` for `lit <op> col`.
BinaryOp FlipComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLess:
      return BinaryOp::kGreater;
    case BinaryOp::kLessEq:
      return BinaryOp::kGreaterEq;
    case BinaryOp::kGreater:
      return BinaryOp::kLess;
    case BinaryOp::kGreaterEq:
      return BinaryOp::kLessEq;
    default:
      return op;  // = and <> are symmetric
  }
}

/// Three-way double compare under Value::SqlCompare's total order: NaN
/// after all numbers, NaN equal to NaN.
int CompareDoubleTotal(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  if (a == b) return 0;
  const bool a_nan = std::isnan(a);
  if (a_nan && std::isnan(b)) return 0;
  return a_nan ? 1 : -1;
}

/// Collects the top-level AND conjuncts of a predicate tree.
void CollectConjuncts(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind == ExprKind::kBinary) {
    const auto& bin = static_cast<const BinaryExpr&>(e);
    if (bin.op == BinaryOp::kAnd) {
      CollectConjuncts(*bin.lhs, out);
      CollectConjuncts(*bin.rhs, out);
      return;
    }
  }
  out->push_back(&e);
}

}  // namespace

bool FilterKernels::Kernel::Matches(size_t i) const {
  if (col->IsNull(i)) return false;  // NULL comparison -> NULL -> reject
  switch (kind) {
    case Kind::kIntInt: {
      const int64_t v = col->ints()[i];
      return ApplyCmp(op, v < ilit ? -1 : (v > ilit ? 1 : 0));
    }
    case Kind::kIntDouble: {
      // CompareIntDouble with the literal's truncation precomputed: the
      // integer parts decide, ties fall to the literal's fractional sign.
      const int64_t v = col->ints()[i];
      return ApplyCmp(op, v < trunc ? -1 : (v > trunc ? 1 : tie_cmp));
    }
    case Kind::kDoubleDouble:
      return ApplyCmp(op, CompareDoubleTotal(col->doubles()[i], dlit));
    case Kind::kDictLookup:
      return pass[col->codes()[i]] != 0;
    case Kind::kPassNotNull:
      return true;
    case Kind::kPassNone:
      return false;
  }
  return false;
}

bool FilterKernels::CompileOne(const Expr& conjunct,
                               const ColumnRow::Columns& columns,
                               Kernel* kernel) {
  if (conjunct.kind != ExprKind::kBinary) return false;
  const auto& bin = static_cast<const BinaryExpr&>(conjunct);
  if (!IsComparisonOp(bin.op)) return false;

  const Expr* col_side = bin.lhs.get();
  const Expr* lit_side = bin.rhs.get();
  BinaryOp op = bin.op;
  if (col_side->kind != ExprKind::kColumnRef) {
    std::swap(col_side, lit_side);
    op = FlipComparison(op);
  }
  if (col_side->kind != ExprKind::kColumnRef ||
      lit_side->kind != ExprKind::kLiteral) {
    return false;
  }
  const auto& ref = static_cast<const ColumnRefExpr&>(*col_side);
  if (ref.bound_index < 0 ||
      static_cast<size_t>(ref.bound_index) >= columns.size()) {
    return false;
  }
  const Value& lit = static_cast<const LiteralExpr&>(*lit_side).value;
  if (lit.is_null()) return false;  // NULL literal rejects all; keep row path

  const ColumnVector& col = *columns[ref.bound_index];
  kernel->col = &col;
  kernel->op = op;

  switch (col.encoding()) {
    case ColumnEncoding::kInt64:
      if (col.declared_type() == DataType::kInteger) {
        if (lit.type() == DataType::kInteger) {
          kernel->kind = Kernel::Kind::kIntInt;
          kernel->ilit = lit.AsInteger();
          return true;
        }
        if (lit.type() == DataType::kDouble) {
          const double d = lit.AsDouble();
          if (std::isnan(d) || d >= 9223372036854775808.0) {
            // Every int64 compares below the literal (NaN orders last).
            kernel->kind = ApplyCmp(op, -1) ? Kernel::Kind::kPassNotNull
                                            : Kernel::Kind::kPassNone;
            return true;
          }
          if (d < -9223372036854775808.0) {
            kernel->kind = ApplyCmp(op, 1) ? Kernel::Kind::kPassNotNull
                                           : Kernel::Kind::kPassNone;
            return true;
          }
          kernel->kind = Kernel::Kind::kIntDouble;
          kernel->trunc = static_cast<int64_t>(d);
          const double frac = d - std::trunc(d);
          kernel->tie_cmp = frac > 0.0 ? -1 : (frac < 0.0 ? 1 : 0);
          return true;
        }
        return false;
      }
      if (col.declared_type() == DataType::kDate) {
        if (lit.type() == DataType::kDate) {
          kernel->kind = Kernel::Kind::kIntInt;
          kernel->ilit = lit.AsDate();
          return true;
        }
        if (lit.type() == DataType::kString) {
          // The row path coerces the string to DATE per row; an unparsable
          // literal is a per-row error, so fall back to reproduce it.
          Result<int32_t> days = date::Parse(lit.AsString());
          if (!days.ok()) return false;
          kernel->kind = Kernel::Kind::kIntInt;
          kernel->ilit = *days;
          return true;
        }
        return false;
      }
      return false;  // BOOLEAN comparisons stay on the row path
    case ColumnEncoding::kDouble:
      if (lit.type() == DataType::kDouble) {
        kernel->kind = Kernel::Kind::kDoubleDouble;
        kernel->dlit = lit.AsDouble();
        return true;
      }
      if (lit.type() == DataType::kInteger) {
        const int64_t v = lit.AsInteger();
        // Beyond 2^53 the double conversion rounds; keep the row path's
        // exact int-vs-double compare by not compiling a kernel.
        if (v > (int64_t{1} << 53) || v < -(int64_t{1} << 53)) return false;
        kernel->kind = Kernel::Kind::kDoubleDouble;
        kernel->dlit = static_cast<double>(v);
        return true;
      }
      return false;
    case ColumnEncoding::kDict: {
      if (lit.type() != DataType::kString) return false;
      // Precompute the verdict per dictionary code: at most 2^16 string
      // compares once, then the batch loop is a code-indexed table lookup.
      const std::vector<std::string>& dict = col.dictionary();
      kernel->kind = Kernel::Kind::kDictLookup;
      kernel->pass.resize(dict.size());
      for (size_t c = 0; c < dict.size(); ++c) {
        const int cmp = dict[c].compare(lit.AsString());
        kernel->pass[c] =
            ApplyCmp(op, cmp < 0 ? -1 : (cmp > 0 ? 1 : 0)) ? 1 : 0;
      }
      return true;
    }
    case ColumnEncoding::kGeneric:
      return false;
  }
  return false;
}

bool FilterKernels::Compile(const Expr& predicate,
                            const ColumnRow::Columns& columns) {
  kernels_.clear();
  std::vector<const Expr*> conjuncts;
  CollectConjuncts(predicate, &conjuncts);
  std::vector<Kernel> kernels;
  kernels.reserve(conjuncts.size());
  for (const Expr* c : conjuncts) {
    Kernel kernel;
    if (!CompileOne(*c, columns, &kernel)) return false;
    kernels.push_back(std::move(kernel));
  }
  kernels_ = std::move(kernels);
  return true;
}

void FilterKernels::Apply(std::vector<uint32_t>* sel) const {
  for (const Kernel& kernel : kernels_) {
    size_t kept = 0;
    for (uint32_t i : *sel) {
      if (kernel.Matches(i)) (*sel)[kept++] = i;
    }
    sel->resize(kept);
    if (sel->empty()) return;
  }
}

}  // namespace minerule::sql
