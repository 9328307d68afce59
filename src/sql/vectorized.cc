#include "sql/vectorized.h"

#include <algorithm>
#include <cmath>

#include "common/metrics.h"
#include "relational/date.h"
#include "sql/binder.h"

namespace minerule::sql {

namespace {

Schema ConcatSchemas(const Schema& a, const Schema& b) {
  Schema out;
  for (const Column& c : a.columns()) out.AddColumn(c);
  for (const Column& c : b.columns()) out.AddColumn(c);
  return out;
}

Row ConcatRows(const Row& a, const Row& b) {
  Row out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

std::string JoinExprs(const std::vector<ExprPtr>& exprs, const char* sep) {
  std::string out;
  for (const ExprPtr& e : exprs) {
    if (!out.empty()) out += sep;
    out += e->ToSql();
  }
  return out;
}

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

// ---------------------------------------------------------------------------
// VecScanNode
// ---------------------------------------------------------------------------

VecScanNode::VecScanNode(std::shared_ptr<Table> table)
    : ExecNode(table->schema()), table_(std::move(table)) {}

std::string VecScanNode::detail() const { return table_->name(); }

int64_t VecScanNode::EstimatedRowCount() const {
  return static_cast<int64_t>(table_->num_rows());
}

void VecScanNode::AppendExtraCounters(
    std::vector<std::pair<std::string, int64_t>>* out) const {
  out->emplace_back("est_bytes", bytes_);
}

Status VecScanNode::OpenImpl() {
  columnar_ = table_->Columnar();
  snapshot_rows_ = columnar_->num_rows;
  bytes_ = columnar_->ByteSize();
  pos_ = 0;
  return Status::OK();
}

Result<bool> VecScanNode::NextImpl(Row* out) {
  if (pos_ >= snapshot_rows_) return false;
  columnar_->MaterializeRow(pos_++, out);
  return true;
}

Status VecScanNode::EvaluateMorselImpl(size_t begin, size_t end,
                                       std::vector<Row>* out) {
  out->reserve(out->size() + (end - begin));
  for (size_t i = begin; i < end; ++i) {
    Row row;
    columnar_->MaterializeRow(i, &row);
    out->push_back(std::move(row));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// VecFilterNode
// ---------------------------------------------------------------------------

VecFilterNode::VecFilterNode(std::unique_ptr<VecScanNode> scan,
                             ExprPtr predicate, ExecContext* ctx)
    : ExecNode(scan->schema()),
      scan_(std::move(scan)),
      predicate_(std::move(predicate)),
      ctx_(ctx) {}

std::string VecFilterNode::detail() const { return predicate_->ToSql(); }

void VecFilterNode::AppendExtraCounters(
    std::vector<std::pair<std::string, int64_t>>* out) const {
  const int64_t scanned = scanned_.load(std::memory_order_relaxed);
  const int64_t selected = selected_.load(std::memory_order_relaxed);
  out->emplace_back("batches", batches_.load(std::memory_order_relaxed));
  out->emplace_back("sel_vector_density",
                    scanned > 0 ? 100 * selected / scanned : 0);
}

bool VecFilterNode::Kernel::Matches(size_t i) const {
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

bool VecFilterNode::CompileOne(const Expr& conjunct, Kernel* kernel) const {
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
      static_cast<size_t>(ref.bound_index) >= columnar_->columns.size()) {
    return false;
  }
  const Value& lit = static_cast<const LiteralExpr&>(*lit_side).value;
  if (lit.is_null()) return false;  // NULL literal rejects all; keep row path

  const ColumnVector& col = columnar_->columns[ref.bound_index];
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

void VecFilterNode::CompileKernels() {
  kernels_.clear();
  use_kernels_ = false;
  std::vector<const Expr*> conjuncts;
  CollectConjuncts(*predicate_, &conjuncts);
  std::vector<Kernel> kernels;
  kernels.reserve(conjuncts.size());
  for (const Expr* c : conjuncts) {
    Kernel kernel;
    // All-or-nothing: a partially kernelized AND could change which conjunct
    // errors first, so any non-compiling conjunct keeps the whole predicate
    // on per-row evaluation.
    if (!CompileOne(*c, &kernel)) return;
    kernels.push_back(std::move(kernel));
  }
  kernels_ = std::move(kernels);
  use_kernels_ = true;
}

Status VecFilterNode::OpenImpl() {
  MR_RETURN_IF_ERROR(scan_->Open());
  columnar_ = scan_->columnar();
  cursor_ = 0;
  buffer_.clear();
  buf_pos_ = 0;
  CompileKernels();
  return Status::OK();
}

Status VecFilterNode::EvalBatch(size_t begin, size_t end,
                                std::vector<Row>* out) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  scanned_.fetch_add(static_cast<int64_t>(end - begin),
                     std::memory_order_relaxed);
  scan_->AccountFusedRead(static_cast<int64_t>(end - begin));
  const size_t before = out->size();
  if (use_kernels_) {
    std::vector<size_t> sel;
    sel.reserve(end - begin);
    const Kernel& first = kernels_.front();
    for (size_t i = begin; i < end; ++i) {
      if (first.Matches(i)) sel.push_back(i);
    }
    for (size_t k = 1; k < kernels_.size() && !sel.empty(); ++k) {
      const Kernel& kernel = kernels_[k];
      size_t w = 0;
      for (size_t i : sel) {
        if (kernel.Matches(i)) sel[w++] = i;
      }
      sel.resize(w);
    }
    out->reserve(out->size() + sel.size());
    for (size_t i : sel) {
      Row row;
      columnar_->MaterializeRow(i, &row);
      out->push_back(std::move(row));
    }
  } else {
    Row row;
    for (size_t i = begin; i < end; ++i) {
      columnar_->MaterializeRow(i, &row);
      MR_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*predicate_, row, ctx_));
      if (keep) out->push_back(std::move(row));
    }
  }
  selected_.fetch_add(static_cast<int64_t>(out->size() - before),
                      std::memory_order_relaxed);
  return Status::OK();
}

Result<bool> VecFilterNode::NextImpl(Row* out) {
  while (true) {
    if (buf_pos_ < buffer_.size()) {
      *out = std::move(buffer_[buf_pos_++]);
      return true;
    }
    buffer_.clear();
    buf_pos_ = 0;
    const size_t total = columnar_->num_rows;
    if (cursor_ >= total) return false;
    const size_t end = std::min(cursor_ + kMorselRows, total);
    MR_RETURN_IF_ERROR(EvalBatch(cursor_, end, &buffer_));
    cursor_ = end;
  }
}

Status VecFilterNode::EvaluateMorselImpl(size_t begin, size_t end,
                                         std::vector<Row>* out) {
  return EvalBatch(begin, end, out);
}

// ---------------------------------------------------------------------------
// VecHashJoinNode
// ---------------------------------------------------------------------------

VecHashJoinNode::VecHashJoinNode(ExecNodePtr left, ExecNodePtr right,
                                 ExprPtr left_key, ExprPtr right_key,
                                 ExecContext* ctx)
    : ExecNode(ConcatSchemas(left->schema(), right->schema())),
      left_(std::move(left)),
      right_(std::move(right)),
      left_key_(std::move(left_key)),
      right_key_(std::move(right_key)),
      ctx_(ctx) {}

std::string VecHashJoinNode::detail() const {
  return left_key_->ToSql() + " = " + right_key_->ToSql();
}

void VecHashJoinNode::AppendExtraCounters(
    std::vector<std::pair<std::string, int64_t>>* out) const {
  out->emplace_back("build_rows", static_cast<int64_t>(build_rows_.size()));
  out->emplace_back("buckets", static_cast<int64_t>(table_.buckets()));
  out->emplace_back("est_bytes", build_bytes_);
  out->emplace_back("encoded_keys", table_.index().encoded_keys());
  out->emplace_back("generic_keys", table_.index().generic_keys());
  if (probe_skipped_) out->emplace_back("probe_skipped", 1);
}

Result<bool> VecHashJoinNode::ProbeKey(const Row& left_row, Row* key) const {
  MR_ASSIGN_OR_RETURN(Value v, EvalExpr(*left_key_, left_row, ctx_));
  if (v.is_null()) return false;
  key->resize(1);
  (*key)[0] = std::move(v);
  return true;
}

Status VecHashJoinNode::OpenImpl() {
  build_rows_.clear();
  left_rows_.clear();
  left_pos_ = 0;
  current_bucket_ = {};
  bucket_pos_ = 0;
  parallel_ = false;
  probe_skipped_ = false;
  build_bytes_ = 0;

  MR_RETURN_IF_ERROR(right_->Open());
  std::vector<Row> build;
  const int64_t estimate = right_->EstimatedRowCount();
  if (estimate > 0) build.reserve(static_cast<size_t>(estimate));
  MR_RETURN_IF_ERROR(DrainOpenedNode(right_.get(), ctx_->num_threads, &build));

  // The factory admits INTEGER keys only, so the encoded path applies.
  table_.Reset(/*width=*/1, /*encodable=*/true, build.size());
  build_rows_.reserve(build.size());
  Row key(1);
  for (Row& row : build) {
    MR_ASSIGN_OR_RETURN(key[0], EvalExpr(*right_key_, row, ctx_));
    if (key[0].is_null()) continue;  // NULL keys never join
    table_.Add(key, static_cast<uint32_t>(build_rows_.size()));
    build_rows_.push_back(std::move(row));
  }
  table_.Seal();

  if (!build_rows_.empty()) {
    build_bytes_ = static_cast<int64_t>(build_rows_.size()) *
                   EstimateRowBytes(build_rows_.front());
    GlobalMetrics()
        .GetGauge("sql.join.build_peak_bytes")
        ->UpdateMax(build_bytes_);
  }

  // An empty build side joins nothing: skip the probe-side scan entirely
  // when that subtree has no observable side effects to preserve.
  if (build_rows_.empty() && left_->SideEffectFree()) {
    probe_skipped_ = true;
    return Status::OK();
  }

  MR_RETURN_IF_ERROR(left_->Open());
  // Parallel probing needs random access over the probe side; the serial
  // path streams it through Next() with no buffering, like the row join.
  parallel_ = ctx_->num_threads != 1 && left_->SupportsMorsels();
  if (!parallel_) return Status::OK();
  const int64_t left_estimate = left_->EstimatedRowCount();
  if (left_estimate > 0) left_rows_.reserve(static_cast<size_t>(left_estimate));
  return DrainOpenedNode(left_.get(), ctx_->num_threads, &left_rows_);
}

Status VecHashJoinNode::ProbeRow(const Row& left_row, Row* key,
                                 std::vector<Row>* out) {
  MR_ASSIGN_OR_RETURN(bool valid, ProbeKey(left_row, key));
  if (!valid) return Status::OK();
  for (uint32_t index : table_.Find(*key)) {
    out->push_back(ConcatRows(left_row, build_rows_[index]));
  }
  return Status::OK();
}

Result<bool> VecHashJoinNode::NextImpl(Row* out) {
  while (true) {
    if (bucket_pos_ < current_bucket_.size()) {
      *out = ConcatRows(current_left_,
                        build_rows_[current_bucket_[bucket_pos_++]]);
      return true;
    }
    if (probe_skipped_) return false;
    if (parallel_) {
      if (left_pos_ >= left_rows_.size()) return false;
      current_left_ = std::move(left_rows_[left_pos_++]);
    } else {
      MR_ASSIGN_OR_RETURN(bool more, left_->Next(&current_left_));
      if (!more) return false;
    }
    MR_ASSIGN_OR_RETURN(bool valid, ProbeKey(current_left_, &probe_key_));
    current_bucket_ = valid ? table_.Find(probe_key_)
                            : std::span<const uint32_t>();
    bucket_pos_ = 0;
  }
}

Status VecHashJoinNode::EvaluateMorselImpl(size_t begin, size_t end,
                                           std::vector<Row>* out) {
  Row key;
  for (size_t i = begin; i < end; ++i) {
    MR_RETURN_IF_ERROR(ProbeRow(left_rows_[i], &key, out));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// VecHashAggregateNode
// ---------------------------------------------------------------------------

VecHashAggregateNode::VecHashAggregateNode(ExecNodePtr child,
                                           std::vector<ExprPtr> group_exprs,
                                           std::vector<AggSpec> aggs,
                                           Schema out_schema, ExecContext* ctx)
    : ExecNode(std::move(out_schema)),
      child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      aggs_(std::move(aggs)),
      ctx_(ctx) {}

std::string VecHashAggregateNode::detail() const {
  std::string out = "keys=" + std::to_string(group_exprs_.size()) +
                    " aggs=" + std::to_string(aggs_.size());
  if (!group_exprs_.empty()) out += " by " + JoinExprs(group_exprs_, ", ");
  return out;
}

void VecHashAggregateNode::AppendExtraCounters(
    std::vector<std::pair<std::string, int64_t>>* out) const {
  out->emplace_back("groups", static_cast<int64_t>(results_.size()));
  out->emplace_back("est_bytes", table_bytes_);
  out->emplace_back("encoded_keys", group_index_.encoded_keys());
  out->emplace_back("generic_keys", group_index_.generic_keys());
}

size_t VecHashAggregateNode::FindOrAddGroup(const Row& key) {
  // Lookups of existing groups — the hot case — never allocate; the key is
  // copied only when a group is new.
  bool inserted = false;
  const uint32_t group = group_index_.Insert(key, &inserted);
  if (inserted) {
    group_keys_.push_back(key);
    group_states_.emplace_back(aggs_.size());
  }
  return group;
}

Status VecHashAggregateNode::Accumulate(const Row& row) {
  key_scratch_.clear();
  for (const ExprPtr& e : group_exprs_) {
    MR_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, row, ctx_));
    key_scratch_.push_back(std::move(v));
  }
  const size_t group = FindOrAddGroup(key_scratch_);
  std::vector<AggState>& states = group_states_[group];
  for (size_t i = 0; i < aggs_.size(); ++i) {
    Value arg;  // NULL placeholder for COUNT(*)
    if (aggs_[i].arg != nullptr) {
      MR_ASSIGN_OR_RETURN(arg, EvalExpr(*aggs_[i].arg, row, ctx_));
    }
    MR_RETURN_IF_ERROR(AddToState(&states[i], aggs_[i].func, arg));
  }
  return Status::OK();
}

Status VecHashAggregateNode::AddToState(AggState* state, AggFunc func,
                                        const Value& value) const {
  // Field-for-field the row path's AggAccumulator::Add, restricted to the
  // non-DISTINCT shapes the factory admits.
  if (func == AggFunc::kCountStar) {
    ++state->count;
    return Status::OK();
  }
  if (value.is_null()) return Status::OK();
  switch (func) {
    case AggFunc::kCount:
      ++state->count;
      return Status::OK();
    case AggFunc::kSum:
    case AggFunc::kAvg: {
      if (!value.is_numeric()) {
        return Status::TypeError("SUM/AVG over non-numeric value");
      }
      ++state->count;
      if (value.type() == DataType::kInteger) {
        if (state->all_integers &&
            __builtin_add_overflow(state->int_sum, value.AsInteger(),
                                   &state->int_sum)) {
          state->all_integers = false;
        }
      } else {
        state->all_integers = false;
      }
      state->double_sum += value.AsDouble();
      return Status::OK();
    }
    case AggFunc::kMin: {
      ++state->count;
      if (state->extreme.is_null()) {
        state->extreme = value;
      } else {
        MR_ASSIGN_OR_RETURN(int cmp, value.SqlCompare(state->extreme));
        if (cmp < 0) state->extreme = value;
      }
      return Status::OK();
    }
    case AggFunc::kMax: {
      ++state->count;
      if (state->extreme.is_null()) {
        state->extreme = value;
      } else {
        MR_ASSIGN_OR_RETURN(int cmp, value.SqlCompare(state->extreme));
        if (cmp > 0) state->extreme = value;
      }
      return Status::OK();
    }
    case AggFunc::kCountStar:
      break;
  }
  return Status::Internal("unhandled aggregate in vectorized Add");
}

Result<Value> VecHashAggregateNode::FinishState(const AggState& state,
                                                AggFunc func) const {
  switch (func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return Value::Integer(state.count);
    case AggFunc::kSum:
      if (state.count == 0) return Value::Null();
      if (state.all_integers) return Value::Integer(state.int_sum);
      return Value::Double(state.double_sum);
    case AggFunc::kAvg:
      if (state.count == 0) return Value::Null();
      return Value::Double(state.double_sum /
                           static_cast<double>(state.count));
    case AggFunc::kMin:
    case AggFunc::kMax:
      return state.extreme;
  }
  return Status::Internal("unhandled aggregate in vectorized Finish");
}

Status VecHashAggregateNode::OpenImpl() {
  group_keys_.clear();
  group_states_.clear();
  results_.clear();
  pos_ = 0;

  MR_RETURN_IF_ERROR(child_->Open());
  // Aggregation happens serially in input order either way, so the
  // order-sensitive SUM/AVG states match the row path bit-for-bit at any
  // thread count. A parallel-capable child is drained morsel-parallel first
  // (morsel-order concatenation reproduces the serial row order); a serial
  // child streams straight into the accumulators with no buffering.
  // The factory admits INTEGER group keys only, so the encoded path
  // applies; the index is presized from the input count.
  const int64_t estimate = child_->EstimatedRowCount();
  if (ctx_->num_threads != 1 && child_->SupportsMorsels()) {
    std::vector<Row> input;
    if (estimate > 0) input.reserve(static_cast<size_t>(estimate));
    MR_RETURN_IF_ERROR(
        DrainOpenedNode(child_.get(), ctx_->num_threads, &input));
    group_index_.Reset(group_exprs_.size(), /*encodable=*/true, input.size());
    for (const Row& row : input) {
      MR_RETURN_IF_ERROR(Accumulate(row));
    }
  } else {
    group_index_.Reset(group_exprs_.size(), /*encodable=*/true,
                       estimate > 0 ? static_cast<size_t>(estimate) : 0);
    Row row;
    while (true) {
      MR_ASSIGN_OR_RETURN(bool more, child_->Next(&row));
      if (!more) break;
      MR_RETURN_IF_ERROR(Accumulate(row));
    }
  }

  // Global aggregate over empty input still emits one row.
  if (group_exprs_.empty() && group_keys_.empty()) {
    group_keys_.emplace_back();
    group_states_.emplace_back(aggs_.size());
  }

  results_.reserve(group_keys_.size());
  for (size_t g = 0; g < group_keys_.size(); ++g) {
    Row out = group_keys_[g];
    out.reserve(out.size() + aggs_.size());
    for (size_t i = 0; i < aggs_.size(); ++i) {
      MR_ASSIGN_OR_RETURN(Value v, FinishState(group_states_[g][i],
                                               aggs_[i].func));
      out.push_back(std::move(v));
    }
    results_.push_back(std::move(out));
  }
  table_bytes_ = AccountBufferBytes("sql.aggregate.table_peak_bytes", results_);
  return Status::OK();
}

Result<bool> VecHashAggregateNode::NextImpl(Row* out) {
  if (pos_ >= results_.size()) return false;
  *out = results_[pos_++];
  return true;
}

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

namespace {

/// True when `expr` is a NEXTVAL-free expression whose bound type is
/// `want` (an InferExprType error just means "not eligible" — the row
/// operator will surface it, identically, at execution).
bool InfersTo(const ExprPtr& expr, DataType want) {
  if (ContainsNextVal(*expr)) return false;
  Result<DataType> type = InferExprType(*expr);
  return type.ok() && *type == want;
}

bool VecAggEligible(const std::vector<ExprPtr>& group_exprs,
                    const std::vector<AggSpec>& aggs) {
  for (const ExprPtr& g : group_exprs) {
    if (!InfersTo(g, DataType::kInteger)) return false;
  }
  for (const AggSpec& spec : aggs) {
    if (spec.distinct) return false;
    if (spec.arg != nullptr && ContainsNextVal(*spec.arg)) return false;
    switch (spec.func) {
      case AggFunc::kCountStar:
      case AggFunc::kCount:
        break;  // count any (or no) argument type
      case AggFunc::kSum:
      case AggFunc::kAvg:
      case AggFunc::kMin:
      case AggFunc::kMax:
        if (spec.arg == nullptr) return false;
        if (!InfersTo(spec.arg, DataType::kInteger) &&
            !InfersTo(spec.arg, DataType::kDouble)) {
          return false;
        }
        break;
    }
  }
  return true;
}

}  // namespace

// A memory budget (ctx->memory_limit >= 0) disables the vectorized
// substitutions wholesale: the budgeted operators are the row-at-a-time
// spill paths of DESIGN.md §13, and the columnar shims buffer whole columns
// with no spill story. Results are bit-identical either way, so the budget
// only changes the execution strategy — exactly like the vectorized flag
// itself.
ExecNodePtr MakeScanNode(std::shared_ptr<Table> table, ExecContext* ctx) {
  if (ctx->vectorized && ctx->memory_limit < 0) {
    return std::make_unique<VecScanNode>(std::move(table));
  }
  return std::make_unique<TableScanNode>(std::move(table));
}

ExecNodePtr MakeFilterNode(ExecNodePtr child, ExprPtr predicate,
                           ExecContext* ctx) {
  if (ctx->vectorized && ctx->memory_limit < 0 &&
      dynamic_cast<VecScanNode*>(child.get()) != nullptr &&
      !ContainsNextVal(*predicate)) {
    std::unique_ptr<VecScanNode> scan(
        static_cast<VecScanNode*>(child.release()));
    return std::make_unique<VecFilterNode>(std::move(scan),
                                           std::move(predicate), ctx);
  }
  return std::make_unique<FilterNode>(std::move(child), std::move(predicate),
                                      ctx);
}

ExecNodePtr MakeHashJoinNode(ExecNodePtr left, ExecNodePtr right,
                             std::vector<ExprPtr> left_keys,
                             std::vector<ExprPtr> right_keys, ExprPtr residual,
                             ExecContext* ctx, bool swap_build) {
  if (!swap_build && ctx->vectorized && ctx->memory_limit < 0 &&
      residual == nullptr && left_keys.size() == 1 &&
      InfersTo(left_keys[0], DataType::kInteger) &&
      InfersTo(right_keys[0], DataType::kInteger)) {
    return std::make_unique<VecHashJoinNode>(
        std::move(left), std::move(right), std::move(left_keys[0]),
        std::move(right_keys[0]), ctx);
  }
  return std::make_unique<HashJoinNode>(
      std::move(left), std::move(right), std::move(left_keys),
      std::move(right_keys), std::move(residual), ctx, swap_build);
}

ExecNodePtr MakeHashAggregateNode(ExecNodePtr child,
                                  std::vector<ExprPtr> group_exprs,
                                  std::vector<AggSpec> aggs, Schema out_schema,
                                  ExecContext* ctx) {
  if (ctx->vectorized && ctx->memory_limit < 0 &&
      VecAggEligible(group_exprs, aggs)) {
    return std::make_unique<VecHashAggregateNode>(
        std::move(child), std::move(group_exprs), std::move(aggs),
        std::move(out_schema), ctx);
  }
  return std::make_unique<HashAggregateNode>(
      std::move(child), std::move(group_exprs), std::move(aggs),
      std::move(out_schema), ctx);
}

}  // namespace minerule::sql
