#include "sql/expr_eval.h"

#include <cmath>

#include "common/string_util.h"
#include "relational/date.h"

namespace minerule::sql {

namespace {

/// Coerces STRING literals to DATE when compared against a DATE value, so
/// conditions like the paper's `date BETWEEN '1/1/95' AND '12/31/95'` work.
Status CoerceForComparison(Value* a, Value* b) {
  if (a->type() == DataType::kDate && b->type() == DataType::kString) {
    MR_ASSIGN_OR_RETURN(int32_t days, date::Parse(b->AsString()));
    *b = Value::Date(days);
  } else if (a->type() == DataType::kString && b->type() == DataType::kDate) {
    MR_ASSIGN_OR_RETURN(int32_t days, date::Parse(a->AsString()));
    *a = Value::Date(days);
  }
  return Status::OK();
}

Result<Value> CompareOp(BinaryOp op, Value lhs, Value rhs) {
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  MR_RETURN_IF_ERROR(CoerceForComparison(&lhs, &rhs));
  MR_ASSIGN_OR_RETURN(int cmp, lhs.SqlCompare(rhs));
  switch (op) {
    case BinaryOp::kEq:
      return Value::Boolean(cmp == 0);
    case BinaryOp::kNotEq:
      return Value::Boolean(cmp != 0);
    case BinaryOp::kLess:
      return Value::Boolean(cmp < 0);
    case BinaryOp::kLessEq:
      return Value::Boolean(cmp <= 0);
    case BinaryOp::kGreater:
      return Value::Boolean(cmp > 0);
    case BinaryOp::kGreaterEq:
      return Value::Boolean(cmp >= 0);
    default:
      return Status::Internal("CompareOp called with non-comparison op");
  }
}

Result<Value> ArithmeticOp(BinaryOp op, const Value& lhs, const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  if (!lhs.is_numeric() || !rhs.is_numeric()) {
    return Status::TypeError(std::string("arithmetic requires numeric ") +
                             "operands, got " + DataTypeName(lhs.type()) +
                             " and " + DataTypeName(rhs.type()));
  }
  const bool both_int = lhs.type() == DataType::kInteger &&
                        rhs.type() == DataType::kInteger;
  if (both_int) {
    const int64_t a = lhs.AsInteger(), b = rhs.AsInteger();
    switch (op) {
      case BinaryOp::kAdd:
        return Value::Integer(a + b);
      case BinaryOp::kSub:
        return Value::Integer(a - b);
      case BinaryOp::kMul:
        return Value::Integer(a * b);
      case BinaryOp::kDiv:
        if (b == 0) return Status::ExecutionError("integer division by zero");
        return Value::Integer(a / b);
      case BinaryOp::kMod:
        if (b == 0) return Status::ExecutionError("modulo by zero");
        return Value::Integer(a % b);
      default:
        break;
    }
  } else {
    const double a = lhs.AsDouble(), b = rhs.AsDouble();
    switch (op) {
      case BinaryOp::kAdd:
        return Value::Double(a + b);
      case BinaryOp::kSub:
        return Value::Double(a - b);
      case BinaryOp::kMul:
        return Value::Double(a * b);
      case BinaryOp::kDiv:
        if (b == 0.0) return Status::ExecutionError("division by zero");
        return Value::Double(a / b);
      case BinaryOp::kMod:
        if (b == 0.0) return Status::ExecutionError("modulo by zero");
        return Value::Double(std::fmod(a, b));
      default:
        break;
    }
  }
  return Status::Internal("ArithmeticOp called with non-arithmetic op");
}

template <typename RowT>
Result<Value> EvalExprImpl(const Expr& expr, const RowT& row,
                           ExecContext* ctx);

template <typename RowT>
Result<Value> EvalFunction(const FunctionExpr& f, const RowT& row,
                           ExecContext* ctx) {
  std::vector<Value> args;
  args.reserve(f.args.size());
  for (const ExprPtr& e : f.args) {
    MR_ASSIGN_OR_RETURN(Value v, EvalExprImpl(*e, row, ctx));
    args.push_back(std::move(v));
  }
  auto arity = [&](size_t n) -> Status {
    if (args.size() != n) {
      return Status::SemanticError(f.name + " expects " + std::to_string(n) +
                                   " argument(s)");
    }
    return Status::OK();
  };
  if (f.name == "UPPER" || f.name == "LOWER") {
    MR_RETURN_IF_ERROR(arity(1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].type() != DataType::kString) {
      return Status::TypeError(f.name + " expects a string");
    }
    return Value::String(f.name == "UPPER" ? ToUpper(args[0].AsString())
                                           : ToLower(args[0].AsString()));
  }
  if (f.name == "LENGTH") {
    MR_RETURN_IF_ERROR(arity(1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].type() != DataType::kString) {
      return Status::TypeError("LENGTH expects a string");
    }
    return Value::Integer(static_cast<int64_t>(args[0].AsString().size()));
  }
  if (f.name == "ABS") {
    MR_RETURN_IF_ERROR(arity(1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].type() == DataType::kInteger) {
      return Value::Integer(std::llabs(args[0].AsInteger()));
    }
    if (args[0].type() == DataType::kDouble) {
      return Value::Double(std::fabs(args[0].AsDouble()));
    }
    return Status::TypeError("ABS expects a number");
  }
  if (f.name == "ROUND") {
    MR_RETURN_IF_ERROR(arity(1));
    if (args[0].is_null()) return Value::Null();
    if (!args[0].is_numeric()) return Status::TypeError("ROUND expects a number");
    return Value::Double(std::round(args[0].AsDouble()));
  }
  if (f.name == "YEAR" || f.name == "MONTH" || f.name == "DAY") {
    MR_RETURN_IF_ERROR(arity(1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].type() != DataType::kDate) {
      return Status::TypeError(f.name + " expects a date");
    }
    int y, m, d;
    date::ToCivil(args[0].AsDate(), &y, &m, &d);
    return Value::Integer(f.name == "YEAR" ? y : (f.name == "MONTH" ? m : d));
  }
  if (f.name == "SUBSTR") {
    if (args.size() != 2 && args.size() != 3) {
      return Status::SemanticError("SUBSTR expects 2 or 3 arguments");
    }
    if (args[0].is_null()) return Value::Null();
    if (args[0].type() != DataType::kString ||
        args[1].type() != DataType::kInteger) {
      return Status::TypeError("SUBSTR expects (string, int[, int])");
    }
    const std::string& s = args[0].AsString();
    int64_t start = args[1].AsInteger();  // 1-based, SQL style
    if (start < 1) start = 1;
    if (static_cast<size_t>(start) > s.size()) return Value::String("");
    size_t len = s.size();
    if (args.size() == 3) {
      if (args[2].type() != DataType::kInteger) {
        return Status::TypeError("SUBSTR length must be an integer");
      }
      len = static_cast<size_t>(std::max<int64_t>(0, args[2].AsInteger()));
    }
    return Value::String(s.substr(static_cast<size_t>(start - 1), len));
  }
  return Status::SemanticError("unknown function: " + f.name);
}

/// The one evaluator body, shared by materialized rows and join pairs.
template <typename RowT>
Result<Value> EvalExprImpl(const Expr& expr, const RowT& row,
                           ExecContext* ctx) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return static_cast<const LiteralExpr&>(expr).value;
    case ExprKind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(expr);
      if (ref.bound_index < 0 ||
          static_cast<size_t>(ref.bound_index) >= row.size()) {
        return Status::Internal("unbound or out-of-range column reference: " +
                                ref.ToSql());
      }
      return row[ref.bound_index];
    }
    case ExprKind::kSlotRef: {
      const auto& slot = static_cast<const SlotRefExpr&>(expr);
      if (slot.index < 0 || static_cast<size_t>(slot.index) >= row.size()) {
        return Status::Internal("slot reference out of range: " +
                                slot.display_name);
      }
      return row[slot.index];
    }
    case ExprKind::kHostVar: {
      const auto& hv = static_cast<const HostVarExpr&>(expr);
      if (ctx == nullptr || ctx->host_vars == nullptr) {
        return Status::ExecutionError("no host variables available for :" +
                                      hv.name);
      }
      auto it = ctx->host_vars->find(ToLower(hv.name));
      if (it == ctx->host_vars->end()) {
        return Status::ExecutionError("unset host variable :" + hv.name);
      }
      return it->second;
    }
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(expr);
      MR_ASSIGN_OR_RETURN(Value v, EvalExprImpl(*u.operand, row, ctx));
      if (v.is_null()) return Value::Null();
      if (u.op == UnaryOp::kNot) {
        if (v.type() != DataType::kBoolean) {
          return Status::TypeError("NOT expects a boolean");
        }
        return Value::Boolean(!v.AsBoolean());
      }
      if (v.type() == DataType::kInteger) {
        return Value::Integer(-v.AsInteger());
      }
      if (v.type() == DataType::kDouble) {
        return Value::Double(-v.AsDouble());
      }
      return Status::TypeError("unary minus expects a number");
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      switch (b.op) {
        case BinaryOp::kAnd:
        case BinaryOp::kOr: {
          // Kleene three-valued logic with short-circuit where sound.
          MR_ASSIGN_OR_RETURN(Value lv, EvalExprImpl(*b.lhs, row, ctx));
          if (!lv.is_null() && lv.type() != DataType::kBoolean) {
            return Status::TypeError("AND/OR expects booleans");
          }
          if (b.op == BinaryOp::kAnd && !lv.is_null() && !lv.AsBoolean()) {
            return Value::Boolean(false);
          }
          if (b.op == BinaryOp::kOr && !lv.is_null() && lv.AsBoolean()) {
            return Value::Boolean(true);
          }
          MR_ASSIGN_OR_RETURN(Value rv, EvalExprImpl(*b.rhs, row, ctx));
          if (!rv.is_null() && rv.type() != DataType::kBoolean) {
            return Status::TypeError("AND/OR expects booleans");
          }
          if (b.op == BinaryOp::kAnd) {
            if (!rv.is_null() && !rv.AsBoolean()) return Value::Boolean(false);
            if (lv.is_null() || rv.is_null()) return Value::Null();
            return Value::Boolean(true);
          }
          if (!rv.is_null() && rv.AsBoolean()) return Value::Boolean(true);
          if (lv.is_null() || rv.is_null()) return Value::Null();
          return Value::Boolean(false);
        }
        case BinaryOp::kEq:
        case BinaryOp::kNotEq:
        case BinaryOp::kLess:
        case BinaryOp::kLessEq:
        case BinaryOp::kGreater:
        case BinaryOp::kGreaterEq: {
          MR_ASSIGN_OR_RETURN(Value lv, EvalExprImpl(*b.lhs, row, ctx));
          MR_ASSIGN_OR_RETURN(Value rv, EvalExprImpl(*b.rhs, row, ctx));
          return CompareOp(b.op, std::move(lv), std::move(rv));
        }
        case BinaryOp::kConcat: {
          MR_ASSIGN_OR_RETURN(Value lv, EvalExprImpl(*b.lhs, row, ctx));
          MR_ASSIGN_OR_RETURN(Value rv, EvalExprImpl(*b.rhs, row, ctx));
          if (lv.is_null() || rv.is_null()) return Value::Null();
          return Value::String(lv.ToString() + rv.ToString());
        }
        default: {
          MR_ASSIGN_OR_RETURN(Value lv, EvalExprImpl(*b.lhs, row, ctx));
          MR_ASSIGN_OR_RETURN(Value rv, EvalExprImpl(*b.rhs, row, ctx));
          return ArithmeticOp(b.op, lv, rv);
        }
      }
    }
    case ExprKind::kBetween: {
      const auto& b = static_cast<const BetweenExpr&>(expr);
      MR_ASSIGN_OR_RETURN(Value v, EvalExprImpl(*b.operand, row, ctx));
      MR_ASSIGN_OR_RETURN(Value lo, EvalExprImpl(*b.low, row, ctx));
      MR_ASSIGN_OR_RETURN(Value hi, EvalExprImpl(*b.high, row, ctx));
      MR_ASSIGN_OR_RETURN(Value ge, CompareOp(BinaryOp::kGreaterEq, v, lo));
      MR_ASSIGN_OR_RETURN(Value le, CompareOp(BinaryOp::kLessEq, v, hi));
      if (ge.is_null() || le.is_null()) return Value::Null();
      const bool in_range = ge.AsBoolean() && le.AsBoolean();
      return Value::Boolean(b.negated ? !in_range : in_range);
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(expr);
      MR_ASSIGN_OR_RETURN(Value v, EvalExprImpl(*in.operand, row, ctx));
      if (v.is_null()) return Value::Null();
      bool saw_null = false;
      for (const ExprPtr& e : in.list) {
        MR_ASSIGN_OR_RETURN(Value candidate, EvalExprImpl(*e, row, ctx));
        if (candidate.is_null()) {
          saw_null = true;
          continue;
        }
        MR_ASSIGN_OR_RETURN(Value eq, CompareOp(BinaryOp::kEq, v, candidate));
        if (!eq.is_null() && eq.AsBoolean()) {
          return Value::Boolean(!in.negated);
        }
      }
      if (saw_null) return Value::Null();
      return Value::Boolean(in.negated);
    }
    case ExprKind::kIsNull: {
      const auto& n = static_cast<const IsNullExpr&>(expr);
      MR_ASSIGN_OR_RETURN(Value v, EvalExprImpl(*n.operand, row, ctx));
      return Value::Boolean(n.negated ? !v.is_null() : v.is_null());
    }
    case ExprKind::kFunction:
      return EvalFunction(static_cast<const FunctionExpr&>(expr), row, ctx);
    case ExprKind::kAggregate:
      return Status::Internal(
          "aggregate reached the evaluator without planner rewriting: " +
          expr.ToSql());
    case ExprKind::kNextVal: {
      const auto& nv = static_cast<const NextValExpr&>(expr);
      if (ctx == nullptr || ctx->catalog == nullptr) {
        return Status::ExecutionError("no catalog available for NEXTVAL");
      }
      MR_ASSIGN_OR_RETURN(Sequence * seq, ctx->catalog->GetSequence(nv.sequence));
      return Value::Integer(seq->NextVal());
    }
    case ExprKind::kStar:
      return Status::Internal("'*' reached the evaluator");
  }
  return Status::Internal("unknown expression kind in evaluator");
}

template <typename RowT>
Result<bool> EvalPredicateImpl(const Expr& expr, const RowT& row,
                               ExecContext* ctx) {
  MR_ASSIGN_OR_RETURN(Value v, EvalExprImpl(expr, row, ctx));
  if (v.is_null()) return false;
  if (v.type() != DataType::kBoolean) {
    return Status::TypeError("predicate did not evaluate to a boolean: " +
                             expr.ToSql());
  }
  return v.AsBoolean();
}

}  // namespace

Result<Value> EvalExpr(const Expr& expr, const Row& row, ExecContext* ctx) {
  return EvalExprImpl(expr, row, ctx);
}

Result<Value> EvalExpr(const Expr& expr, const JoinedRow& row,
                       ExecContext* ctx) {
  return EvalExprImpl(expr, row, ctx);
}

Result<bool> EvalPredicate(const Expr& expr, const Row& row,
                           ExecContext* ctx) {
  return EvalPredicateImpl(expr, row, ctx);
}

Result<bool> EvalPredicate(const Expr& expr, const JoinedRow& row,
                           ExecContext* ctx) {
  return EvalPredicateImpl(expr, row, ctx);
}

Result<Value> EvalExpr(const Expr& expr, const ColumnRow& row,
                       ExecContext* ctx) {
  return EvalExprImpl(expr, row, ctx);
}

Result<bool> EvalPredicate(const Expr& expr, const ColumnRow& row,
                           ExecContext* ctx) {
  return EvalPredicateImpl(expr, row, ctx);
}

}  // namespace minerule::sql
