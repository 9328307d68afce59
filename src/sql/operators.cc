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

}  // namespace

Status DrainOpenedNode(ExecNode* node, int num_threads, std::vector<Row>* out,
                       MemoryAccountant* accountant) {
  if (num_threads != 1 && node->SupportsMorsels()) {
    const size_t total = node->MorselInputRows();
    const size_t morsels = MorselCount(total, kMorselRows);
    std::vector<std::vector<Row>> slots(morsels);
    std::vector<Status> statuses(morsels, Status::OK());
    ParallelForMorsels(total, kMorselRows, num_threads,
                       [&](size_t m, size_t begin, size_t end) {
                         statuses[m] = node->RunMorsel(begin, end, &slots[m]);
                       });
    MR_RETURN_IF_ERROR(FirstError(statuses));
    node->RecordParallelWorkers(MorselWorkers(total, num_threads));
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
  if (node->parallel_morsels() > 0) {
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

Result<std::vector<Row>> CollectRows(ExecNode* node) {
  MR_RETURN_IF_ERROR(node->Open());
  std::vector<Row> rows;
  Row row;
  while (true) {
    MR_ASSIGN_OR_RETURN(bool more, node->Next(&row));
    if (!more) break;
    rows.push_back(std::move(row));
  }
  return rows;
}

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

TableScanNode::TableScanNode(std::shared_ptr<Table> table)
    : ExecNode(table->schema()), table_(std::move(table)) {}

std::string TableScanNode::detail() const { return table_->name(); }

int64_t TableScanNode::EstimatedRowCount() const {
  return static_cast<int64_t>(table_->num_rows());
}

Status TableScanNode::OpenImpl() {
  pos_ = 0;
  snapshot_size_ = table_->num_rows();
  return Status::OK();
}

Result<bool> TableScanNode::NextImpl(Row* out) {
  if (pos_ >= snapshot_size_) return false;
  *out = table_->row(pos_++);
  return true;
}

Status TableScanNode::EvaluateMorselImpl(size_t begin, size_t end,
                                         std::vector<Row>* out) {
  out->reserve(out->size() + (end - begin));
  for (size_t i = begin; i < end; ++i) out->push_back(table_->row(i));
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

Status RowsNode::EvaluateMorselImpl(size_t begin, size_t end,
                                    std::vector<Row>* out) {
  out->reserve(out->size() + (end - begin));
  for (size_t i = begin; i < end; ++i) out->push_back(rows_[i]);
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

Status RowNumberNode::EvaluateMorselImpl(size_t begin, size_t end,
                                         std::vector<Row>* out) {
  // The child must be 1:1 over its input (the planner only wraps base
  // scans), so row i of the morsel carries source index begin + i.
  const size_t before = out->size();
  MR_RETURN_IF_ERROR(child_->RunMorsel(begin, end, out));
  if (out->size() - before != end - begin) {
    return Status::Internal("RowNumber child is not 1:1 with its input");
  }
  for (size_t i = begin; i < end; ++i) {
    (*out)[before + (i - begin)].push_back(
        Value::Integer(static_cast<int64_t>(i)));
  }
  return Status::OK();
}

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

Status FilterNode::OpenImpl() { return child_->Open(); }

Result<bool> FilterNode::NextImpl(Row* out) {
  while (true) {
    MR_ASSIGN_OR_RETURN(bool more, child_->Next(out));
    if (!more) return false;
    MR_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*predicate_, *out, ctx_));
    if (pass) return true;
  }
}

Status FilterNode::EvaluateMorselImpl(size_t begin, size_t end,
                                      std::vector<Row>* out) {
  std::vector<Row> input;
  MR_RETURN_IF_ERROR(child_->RunMorsel(begin, end, &input));
  for (Row& row : input) {
    MR_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*predicate_, row, ctx_));
    if (pass) out->push_back(std::move(row));
  }
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
      pure_(ExprsNextValFree(exprs_)) {}

std::string ProjectNode::detail() const { return JoinExprs(exprs_, ", "); }

Status ProjectNode::OpenImpl() { return child_->Open(); }

Result<bool> ProjectNode::NextImpl(Row* out) {
  Row input;
  MR_ASSIGN_OR_RETURN(bool more, child_->Next(&input));
  if (!more) return false;
  out->clear();
  out->reserve(exprs_.size());
  for (const ExprPtr& e : exprs_) {
    MR_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, input, ctx_));
    out->push_back(std::move(v));
  }
  return true;
}

Status ProjectNode::EvaluateMorselImpl(size_t begin, size_t end,
                                       std::vector<Row>* out) {
  std::vector<Row> input;
  MR_RETURN_IF_ERROR(child_->RunMorsel(begin, end, &input));
  out->reserve(out->size() + input.size());
  for (const Row& row : input) {
    Row projected;
    projected.reserve(exprs_.size());
    for (const ExprPtr& e : exprs_) {
      MR_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, row, ctx_));
      projected.push_back(std::move(v));
    }
    out->push_back(std::move(projected));
  }
  return Status::OK();
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
  int64_t buckets = static_cast<int64_t>(table_.buckets());
  for (const JoinTable& partition : partitions_) {
    buckets += static_cast<int64_t>(partition.buckets());
  }
  out->emplace_back("buckets", buckets);
  out->emplace_back("est_bytes", build_bytes_);
  out->emplace_back("encoded_keys", encoded_keys_);
  out->emplace_back("generic_keys", generic_keys_);
  if (parallel_) {
    out->emplace_back("partitions", static_cast<int64_t>(partitions_.size()));
  }
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

std::span<const uint32_t> HashJoinNode::FindBucket(const Row& key) const {
  if (parallel_) {
    return partitions_[RowHash{}(key) % partitions_.size()].Find(key);
  }
  return table_.Find(key);
}

Status HashJoinNode::BuildParallel(int num_threads) {
  // Materialize the build side (morsel-parallel when its subtree allows),
  // then evaluate all build keys in parallel and index the rows in
  // fixed-fanout partition tables — one task per partition, each scanning
  // the build rows in index order, so every bucket holds its rows in the
  // serial insertion order.
  std::vector<Row>& build = build_side_;
  const int64_t estimate = right_->EstimatedRowCount();
  if (estimate > 0) build.reserve(static_cast<size_t>(estimate));
  MR_RETURN_IF_ERROR(DrainOpenedNode(right_.get(), num_threads, &build));
  build_consumed_rows_ = static_cast<int64_t>(build.size());
  build_consumed_bytes_ = SampledRowsBytes(build);

  const size_t total = build.size();
  std::vector<Row> keys(total);
  std::vector<uint8_t> valid(total, 0);
  std::vector<size_t> partition_of(total, 0);
  {
    const size_t morsels = MorselCount(total, kMorselRows);
    std::vector<Status> statuses(morsels, Status::OK());
    ParallelForMorsels(
        total, kMorselRows, num_threads,
        [&](size_t m, size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            Result<bool> ok = ComputeKey(right_keys_, build[i], &keys[i]);
            if (!ok.ok()) {
              statuses[m] = ok.status();
              return;
            }
            if (*ok) {
              valid[i] = 1;
              partition_of[i] = RowHash{}(keys[i]) % kJoinPartitions;
            }
          }
        });
    MR_RETURN_IF_ERROR(FirstError(statuses));
  }

  // Exact per-partition row counts presize each table.
  std::vector<size_t> partition_rows(kJoinPartitions, 0);
  for (size_t i = 0; i < total; ++i) {
    if (valid[i]) ++partition_rows[partition_of[i]];
  }
  partitions_ = std::vector<JoinTable>(kJoinPartitions);
  ParallelFor(kJoinPartitions, num_threads,
              [&](size_t, size_t begin, size_t end) {
                for (size_t p = begin; p < end; ++p) {
                  JoinTable& table = partitions_[p];
                  table.Reset(right_keys_.size(), encodable_,
                              partition_rows[p]);
                  for (size_t i = 0; i < total; ++i) {
                    if (valid[i] && partition_of[i] == p) {
                      table.Add(keys[i], static_cast<uint32_t>(i));
                    }
                  }
                  table.Seal();
                }
              });
  for (size_t p = 0; p < kJoinPartitions; ++p) {
    build_rows_ += static_cast<int64_t>(partition_rows[p]);
    NoteKeys(partitions_[p].index());
  }
  return Status::OK();
}

Status HashJoinNode::OpenImpl() {
  build_side_.clear();
  table_ = JoinTable();
  partitions_.clear();
  left_rows_.clear();
  left_pos_ = 0;
  build_rows_ = 0;
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
  const int num_threads = ctx_->num_threads;
  const bool budget = ctx_->memory_limit >= 0 && pure_;
  // Under a budget the join runs its budgeted serial path: the working set
  // is bounded by spilling, and serial execution makes the result trivially
  // thread-count invariant. Impure plans (NEXTVAL in keys or residual)
  // keep the in-memory serial path — re-ordering their evaluation on disk
  // would change observable side effects.
  parallel_ = pure_ && num_threads != 1 && ctx_->memory_limit < 0;

  MR_RETURN_IF_ERROR(right_->Open());
  if (budget) return OpenBudget();
  if (parallel_) {
    MR_RETURN_IF_ERROR(BuildParallel(num_threads));
  } else {
    const int64_t estimate = right_->EstimatedRowCount();
    const size_t expected = estimate > 0 ? static_cast<size_t>(estimate) : 0;
    table_.Reset(right_keys_.size(), encodable_, expected);
    build_side_.reserve(expected);
    Row row;
    Row key;
    int consumed_samples = 0;
    int64_t consumed_width = 0;
    while (true) {
      MR_ASSIGN_OR_RETURN(bool more, right_->Next(&row));
      if (!more) break;
      ++build_consumed_rows_;
      if (consumed_samples < 64) {
        consumed_width += EstimateRowBytes(row);
        ++consumed_samples;
      }
      MR_ASSIGN_OR_RETURN(bool valid, ComputeKey(right_keys_, row, &key));
      if (!valid) continue;
      table_.Add(key, static_cast<uint32_t>(build_side_.size()));
      build_side_.push_back(std::move(row));
      ++build_rows_;
    }
    table_.Seal();
    NoteKeys(table_.index());
    if (consumed_samples > 0) {
      build_consumed_bytes_ =
          build_consumed_rows_ * (consumed_width / consumed_samples);
    }
  }

  // Estimated build-side working set: kept rows times the mean width of up
  // to 64 rows sampled across the table (a single sample misestimates
  // variable-width data). When every consumed row had a NULL key nothing
  // was kept, but the build input was still materialized and hashed —
  // report the consumed-row estimate rather than 0.
  build_bytes_ = 0;
  if (build_rows_ > 0) {
    const int64_t stride = (build_rows_ + 63) / 64;
    int64_t seen = 0;
    int64_t sampled = 0;
    int64_t width_sum = 0;
    auto sample_table = [&](const JoinTable& table) {
      for (uint32_t r : table.rows()) {
        if (seen % stride == 0) {
          width_sum += EstimateRowBytes(build_side_[r]);
          ++sampled;
        }
        ++seen;
      }
    };
    sample_table(table_);
    for (const JoinTable& partition : partitions_) sample_table(partition);
    if (sampled > 0) build_bytes_ = build_rows_ * (width_sum / sampled);
  } else if (build_consumed_rows_ > 0) {
    build_bytes_ = build_consumed_bytes_;
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

  MR_RETURN_IF_ERROR(left_->Open());
  if (parallel_) {
    MR_RETURN_IF_ERROR(
        DrainOpenedNode(left_.get(), num_threads, &left_rows_));
  }
  return Status::OK();
}

Result<bool> HashJoinNode::PullLeft(Row* out) {
  if (probe_skipped_) return false;
  if (parallel_) {
    if (left_pos_ >= left_rows_.size()) return false;
    *out = left_rows_[left_pos_++];
    return true;
  }
  return left_->Next(out);
}

Result<bool> HashJoinNode::NextImpl(Row* out) {
  if (spill_ != nullptr) return NextSpill(out);
  while (true) {
    while (bucket_pos_ < current_bucket_.size()) {
      const Row& right = build_side_[current_bucket_[bucket_pos_++]];
      MR_ASSIGN_OR_RETURN(bool pass,
                          residual_.Passes(current_left_, right, ctx_));
      if (!pass) continue;
      *out = ConcatRows(current_left_, right);
      return true;
    }
    MR_ASSIGN_OR_RETURN(bool more, PullLeft(&current_left_));
    if (!more) return false;
    MR_ASSIGN_OR_RETURN(bool valid,
                        ComputeKey(left_keys_, current_left_, &probe_key_));
    current_bucket_ = valid ? FindBucket(probe_key_)
                            : std::span<const uint32_t>();
    bucket_pos_ = 0;
  }
}

Status HashJoinNode::ProbeRow(const Row& left_row, Row* key,
                              JoinResidual::Tally* tally,
                              std::vector<Row>* out) {
  MR_ASSIGN_OR_RETURN(bool valid, ComputeKey(left_keys_, left_row, key));
  if (!valid) return Status::OK();
  for (uint32_t r : FindBucket(*key)) {
    MR_ASSIGN_OR_RETURN(bool pass, residual_.Passes(left_row, build_side_[r],
                                                    ctx_, tally));
    if (pass) out->push_back(ConcatRows(left_row, build_side_[r]));
  }
  return Status::OK();
}

Status HashJoinNode::EvaluateMorselImpl(size_t begin, size_t end,
                                        std::vector<Row>* out) {
  Row key;
  JoinResidual::Tally tally;
  for (size_t i = begin; i < end; ++i) {
    MR_RETURN_IF_ERROR(ProbeRow(left_rows_[i], &key, &tally, out));
  }
  residual_.Add(tally);
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
      aggs_(std::move(aggs)),
      ctx_(ctx) {
  pure_ = ExprsNextValFree(group_exprs_);
  merge_exact_ = true;
  for (const AggSpec& spec : aggs_) {
    if (spec.arg != nullptr && ContainsNextVal(*spec.arg)) pure_ = false;
    if (!AggAccumulator::MergeIsExact(spec.func)) merge_exact_ = false;
  }
}

std::string HashAggregateNode::detail() const {
  std::string out = "keys=" + std::to_string(group_exprs_.size()) +
                    " aggs=" + std::to_string(aggs_.size());
  if (!group_exprs_.empty()) out += " by " + JoinExprs(group_exprs_, ", ");
  return out;
}

void HashAggregateNode::AppendExtraCounters(
    std::vector<std::pair<std::string, int64_t>>* out) const {
  out->emplace_back("groups", static_cast<int64_t>(results_.size()));
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

Status HashAggregateNode::AggregateSerial(GroupTable* groups,
                                          MemoryAccountant* accountant) {
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
    // Account the table as it grows, not just once it is complete: a query
    // killed mid-aggregation still shows its spike in the gauge.
    if (inserted && accountant != nullptr) {
      accountant->AddBytes(
          EstimateRowBytes(key) +
          static_cast<int64_t>(aggs_.size() * sizeof(AggAccumulator)));
    }
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

Status HashAggregateNode::AggregateParallel(int num_threads,
                                            GroupTable* groups) {
  const size_t total = child_->MorselInputRows();
  const size_t morsels = MorselCount(total, kMorselRows);
  std::vector<GroupTable> locals(morsels);
  std::vector<Status> statuses(morsels, Status::OK());

  ParallelForMorsels(
      total, kMorselRows, num_threads,
      [&](size_t m, size_t begin, size_t end) {
        GroupTable& local = locals[m];
        std::vector<Row> input;
        Status status = child_->RunMorsel(begin, end, &input);
        if (!status.ok()) {
          statuses[m] = status;
          return;
        }
        local.index.Reset(group_exprs_.size(), encodable_, input.size());
        Row key;
        for (const Row& row : input) {
          key.clear();
          for (const ExprPtr& e : group_exprs_) {
            Result<Value> v = EvalExpr(*e, row, ctx_);
            if (!v.ok()) {
              statuses[m] = v.status();
              return;
            }
            key.push_back(std::move(*v));
          }
          bool inserted = false;
          const uint32_t group = FindOrAddGroup(&local, key, &inserted);
          std::vector<AggAccumulator>& accs = local.states[group];
          for (size_t i = 0; i < aggs_.size(); ++i) {
            Value arg;  // NULL placeholder for COUNT(*)
            if (aggs_[i].arg != nullptr) {
              Result<Value> v = EvalExpr(*aggs_[i].arg, row, ctx_);
              if (!v.ok()) {
                statuses[m] = v.status();
                return;
              }
              arg = std::move(*v);
            }
            Status add = accs[i].Add(arg);
            if (!add.ok()) {
              statuses[m] = add;
              return;
            }
          }
        }
      });
  MR_RETURN_IF_ERROR(FirstError(statuses));
  child_->RecordParallelWorkers(MorselWorkers(total, num_threads));
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
  groups->index.Reset(group_exprs_.size(), encodable_, local_groups);
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
  pos_ = 0;
  spill_bytes_ = 0;
  spill_partitions_ = 0;
  encoded_keys_ = 0;
  generic_keys_ = 0;
  encodable_ = KeyExprsEncodable(group_exprs_);
  MR_RETURN_IF_ERROR(child_->Open());
  if (ctx_->memory_limit >= 0 && pure_) return OpenBudget();

  GroupTable groups;
  const int num_threads = ctx_->num_threads;
  const bool parallel = num_threads != 1 && pure_ && merge_exact_ &&
                        child_->SupportsMorsels();
  if (parallel) {
    MR_RETURN_IF_ERROR(AggregateParallel(num_threads, &groups));
  } else {
    // A global aggregate has one group; otherwise the input count bounds
    // the group count.
    const int64_t estimate = child_->EstimatedRowCount();
    const size_t expected =
        group_exprs_.empty() ? 1
                             : (estimate > 0 ? static_cast<size_t>(estimate) : 0);
    groups.index.Reset(group_exprs_.size(), encodable_, expected);
    MemoryAccountant accountant("sql.aggregate.table_peak_bytes",
                                /*limit=*/-1);
    MR_RETURN_IF_ERROR(AggregateSerial(&groups, &accountant));
  }
  NoteKeys(groups);

  // Global aggregate over empty input still yields one row.
  if (group_exprs_.empty() && groups.keys.empty()) {
    groups.keys.emplace_back();
    groups.states.push_back(MakeAccumulators());
  }

  results_.reserve(groups.keys.size());
  for (size_t g = 0; g < groups.keys.size(); ++g) {
    Row out = std::move(groups.keys[g]);
    for (const AggAccumulator& acc : groups.states[g]) {
      MR_ASSIGN_OR_RETURN(Value v, acc.Finish());
      out.push_back(std::move(v));
    }
    results_.push_back(std::move(out));
  }
  table_bytes_ = AccountBufferBytes("sql.aggregate.table_peak_bytes", results_);
  return Status::OK();
}

Result<bool> HashAggregateNode::NextImpl(Row* out) {
  if (pos_ >= results_.size()) return false;
  *out = std::move(results_[pos_++]);
  return true;
}

// ---------------------------------------------------------------------------
// DistinctNode
// ---------------------------------------------------------------------------

DistinctNode::DistinctNode(ExecNodePtr child, ExecContext* ctx)
    : ExecNode(child->schema()), child_(std::move(child)), ctx_(ctx) {}

void DistinctNode::AppendExtraCounters(
    std::vector<std::pair<std::string, int64_t>>* out) const {
  out->emplace_back("kept_rows", static_cast<int64_t>(seen_.size()));
  out->emplace_back("est_bytes", seen_.ByteSize() + results_bytes_);
  out->emplace_back("encoded_keys", seen_.encoded_keys());
  out->emplace_back("generic_keys", seen_.generic_keys());
}

Status DistinctNode::OpenImpl() {
  results_.clear();
  results_bytes_ = 0;
  pos_ = 0;
  materialized_ = false;
  MR_RETURN_IF_ERROR(child_->Open());

  // The key is the whole row: its types are the output column types.
  std::vector<DataType> types;
  for (const Column& column : schema_.columns()) types.push_back(column.type);
  const size_t width = types.size();
  const bool encodable = KeyIndex::EncodableTypes(types);

  const int num_threads = ctx_->num_threads;
  if (num_threads == 1 || !child_->SupportsMorsels()) {
    const int64_t estimate = child_->EstimatedRowCount();
    seen_.Reset(width, encodable,
                estimate > 0 ? static_cast<size_t>(estimate) : 0);
    return Status::OK();
  }

  // Parallel: deduplicate each child morsel locally (keeping local first-
  // seen order), then fold the survivors through the global seen-set in
  // morsel order — a row survives iff no equal row precedes it in input
  // order, exactly the streaming emission order.
  materialized_ = true;
  const size_t total = child_->MorselInputRows();
  const size_t morsels = MorselCount(total, kMorselRows);
  std::vector<std::vector<Row>> locals(morsels);
  std::vector<Status> statuses(morsels, Status::OK());
  ParallelForMorsels(
      total, kMorselRows, num_threads,
      [&](size_t m, size_t begin, size_t end) {
        std::vector<Row> input;
        Status status = child_->RunMorsel(begin, end, &input);
        if (!status.ok()) {
          statuses[m] = status;
          return;
        }
        KeyIndex local_seen;
        local_seen.Reset(width, encodable, input.size());
        for (Row& row : input) {
          bool inserted = false;
          local_seen.Insert(row, &inserted);
          if (inserted) locals[m].push_back(std::move(row));
        }
      });
  MR_RETURN_IF_ERROR(FirstError(statuses));
  child_->RecordParallelWorkers(MorselWorkers(total, num_threads));
  NoteWorkers(MorselWorkers(total, num_threads));
  NoteDrivenMorsels(static_cast<int64_t>(morsels));

  // The local survivor counts bound the global one from above.
  size_t survivors = 0;
  for (const std::vector<Row>& local : locals) survivors += local.size();
  seen_.Reset(width, encodable, survivors);
  results_.reserve(survivors);
  for (std::vector<Row>& local : locals) {
    for (Row& row : local) {
      bool inserted = false;
      seen_.Insert(row, &inserted);
      if (inserted) results_.push_back(std::move(row));
    }
  }
  results_bytes_ = SampledRowsBytes(results_);
  return Status::OK();
}

Result<bool> DistinctNode::NextImpl(Row* out) {
  if (materialized_) {
    if (pos_ >= results_.size()) return false;
    *out = std::move(results_[pos_++]);
    return true;
  }
  while (true) {
    MR_ASSIGN_OR_RETURN(bool more, child_->Next(out));
    if (!more) return false;
    bool inserted = false;
    seen_.Insert(*out, &inserted);
    if (inserted) return true;
  }
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
