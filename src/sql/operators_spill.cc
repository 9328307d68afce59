// Budgeted serial paths of the buffering operators (DESIGN.md §13): the
// external merge sort, the recursive grace-hash join and the partitioned
// spilling aggregate. All three stream their input under a MemoryAccountant;
// within the budget they degenerate to the exact in-memory serial algorithms,
// past it their working sets spill to anonymous temp files and the merged
// results reproduce the serial output bit for bit.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "sql/operators.h"
#include "sql/operators_spill_state.h"
#include "sql/spill.h"
#include "storage/row_codec.h"
#include "storage/spill.h"

namespace minerule::sql {

namespace {

Counter* SortSpillBytesCounter() {
  static Counter* counter = GlobalMetrics().GetCounter("sql.sort.spill_bytes");
  return counter;
}

Counter* SortSpillPartitionsCounter() {
  static Counter* counter =
      GlobalMetrics().GetCounter("sql.sort.spill_partitions");
  return counter;
}

Counter* JoinSpillBytesCounter() {
  static Counter* counter = GlobalMetrics().GetCounter("sql.join.spill_bytes");
  return counter;
}

Counter* JoinSpillPartitionsCounter() {
  static Counter* counter =
      GlobalMetrics().GetCounter("sql.join.spill_partitions");
  return counter;
}

Counter* AggSpillBytesCounter() {
  static Counter* counter =
      GlobalMetrics().GetCounter("sql.aggregate.spill_bytes");
  return counter;
}

Counter* AggSpillPartitionsCounter() {
  static Counter* counter =
      GlobalMetrics().GetCounter("sql.aggregate.spill_partitions");
  return counter;
}

/// Planner-chosen spill fan-out (ExecContext::spill_partitions), defaulting
/// to the historical kSpillPartitions. Every spill path restores output
/// order from recorded input indexes, so the fan-out never affects results —
/// only how many partition files a scatter produces.
size_t SpillFanOut(const ExecContext* ctx) {
  return ctx->spill_partitions == 0 ? kSpillPartitions : ctx->spill_partitions;
}

}  // namespace

// ---------------------------------------------------------------------------
// SortNode: external merge sort
// ---------------------------------------------------------------------------

SortNode::~SortNode() = default;

Status SortNode::OpenBudget() {
  // Stream the child serially into a (key, row) buffer tracked by the
  // accountant. Keys are computed at buffering time, in input order — the
  // same expression evaluation order (and first error) as the in-memory
  // path — and are spilled beside their rows so no expression is ever
  // re-evaluated during the merges.
  MemoryAccountant accountant("sql.sort.buffer_peak_bytes",
                              ctx_->memory_limit);
  std::vector<std::pair<Row, Row>> buffer;  // (key, row), input order

  auto sort_buffer = [&] {
    std::stable_sort(
        buffer.begin(), buffer.end(),
        [&](const auto& a, const auto& b) { return KeyLess(a.first, b.first); });
  };
  auto write_run = [&]() -> Status {
    sort_buffer();
    std::string record;
    for (const auto& [key, row] : buffer) {
      record.clear();
      storage::EncodeRow(key, &record);
      storage::EncodeRow(row, &record);
      MR_RETURN_IF_ERROR(external_->file->Append(record));
    }
    MR_ASSIGN_OR_RETURN(storage::SpillRun run, external_->file->FinishRun());
    external_->runs.push_back(run);
    ++spill_partitions_;
    buffer.clear();
    accountant.Reset();
    return Status::OK();
  };

  Row row;
  while (true) {
    MR_ASSIGN_OR_RETURN(bool more, child_->Next(&row));
    if (!more) break;
    Row key;
    key.reserve(keys_.size());
    for (const SortKey& sk : keys_) {
      MR_ASSIGN_OR_RETURN(Value v, EvalExpr(*sk.expr, row, ctx_));
      key.push_back(std::move(v));
    }
    accountant.AddBytes(EstimateRowBytes(key) + EstimateRowBytes(row));
    buffer.emplace_back(std::move(key), std::move(row));
    if (accountant.OverBudget()) {
      if (external_ == nullptr) {
        external_ = std::make_unique<External>();
        MR_ASSIGN_OR_RETURN(external_->file,
                            storage::SpillFile::Create(ctx_->spill_dir));
      }
      MR_RETURN_IF_ERROR(write_run());
    }
  }

  if (external_ == nullptr) {
    // Never overflowed: finish exactly like the in-memory path — one stable
    // sort of the complete buffer with the same comparator and tie order.
    buffer_bytes_ = accountant.bytes();
    sort_buffer();
    rows_.reserve(buffer.size());
    for (auto& entry : buffer) rows_.push_back(std::move(entry.second));
    return Status::OK();
  }
  if (!buffer.empty()) MR_RETURN_IF_ERROR(write_run());
  buffer_bytes_ = accountant.peak();

  // Each run is a sorted, consecutive chunk of the input, so a merge that
  // breaks key ties by run order reproduces the global stable sort exactly.
  // Collapse to the fan-in first so the final merge holds a bounded number
  // of run readers; batches are taken in run order, which keeps the
  // tie-break consistent across passes.
  while (external_->runs.size() > kMergeFanIn) {
    std::vector<storage::SpillRun> collapsed;
    for (size_t begin = 0; begin < external_->runs.size();
         begin += kMergeFanIn) {
      const size_t end = std::min(external_->runs.size(), begin + kMergeFanIn);
      std::vector<External::Source> sources(end - begin);
      for (size_t i = begin; i < end; ++i) {
        sources[i - begin].reader =
            external_->file->OpenRun(external_->runs[i]);
        MR_RETURN_IF_ERROR(External::Advance(&sources[i - begin]));
      }
      while (true) {
        int best = -1;
        for (size_t i = 0; i < sources.size(); ++i) {
          if (sources[i].done) continue;
          // Strict comparison keeps the earliest source on ties (run order).
          if (best < 0 || KeyLess(sources[i].key, sources[best].key)) {
            best = static_cast<int>(i);
          }
        }
        if (best < 0) break;
        // Records carry their key, so merge passes append them verbatim.
        MR_RETURN_IF_ERROR(external_->file->Append(sources[best].record));
        MR_RETURN_IF_ERROR(External::Advance(&sources[best]));
      }
      MR_ASSIGN_OR_RETURN(storage::SpillRun merged,
                          external_->file->FinishRun());
      collapsed.push_back(merged);
      ++spill_partitions_;
    }
    external_->runs = std::move(collapsed);
  }

  external_->sources.resize(external_->runs.size());
  for (size_t i = 0; i < external_->runs.size(); ++i) {
    external_->sources[i].reader = external_->file->OpenRun(external_->runs[i]);
    MR_RETURN_IF_ERROR(External::Advance(&external_->sources[i]));
  }
  spill_bytes_ = static_cast<int64_t>(external_->file->bytes_written());
  SortSpillBytesCounter()->Add(spill_bytes_);
  SortSpillPartitionsCounter()->Add(spill_partitions_);
  return Status::OK();
}

Result<bool> SortNode::NextExternal(Row* out) {
  std::vector<External::Source>& sources = external_->sources;
  int best = -1;
  for (size_t i = 0; i < sources.size(); ++i) {
    if (sources[i].done) continue;
    if (best < 0 || KeyLess(sources[i].key, sources[best].key)) {
      best = static_cast<int>(i);
    }
  }
  if (best < 0) return false;
  External::Source& source = sources[best];
  size_t pos = source.row_pos;
  MR_RETURN_IF_ERROR(
      storage::DecodeRow(source.record.data(), source.record.size(), &pos, out));
  MR_RETURN_IF_ERROR(External::Advance(&source));
  return true;
}

// ---------------------------------------------------------------------------
// HashJoinNode: recursive grace-hash join
// ---------------------------------------------------------------------------

HashJoinNode::~HashJoinNode() = default;

namespace {

/// Recursive grace-hash partition joiner. Operates purely on spill files —
/// everything it needs from the node is passed in, so it stays a plain
/// helper. Each leaf joins one partition in memory and appends its matches,
/// tagged with the probe-row index, to the shared output file.
struct GraceJoin {
  ExecContext* ctx;
  JoinResidual* residual;
  size_t key_width;
  bool encodable;  // KeyIndex path of the leaf tables
  storage::SpillFile* output;
  std::vector<storage::SpillRun>* output_runs;
  int64_t* spill_bytes;
  int64_t* spill_partitions;
  int64_t* encoded_keys;
  int64_t* generic_keys;

  Status Process(const storage::SpillFile* build_file,
                 const std::vector<storage::SpillRun>& build_runs,
                 uint64_t build_records, uint64_t build_bytes,
                 const storage::SpillFile* probe_file,
                 const std::vector<storage::SpillRun>& probe_runs,
                 uint64_t probe_records, int depth, bool can_split) {
    if (build_records == 0 || probe_records == 0) return Status::OK();
    if (can_split && depth < kMaxSpillDepth && build_records > 1 &&
        build_bytes > static_cast<uint64_t>(ctx->memory_limit)) {
      return Recurse(build_file, build_runs, build_records, probe_file,
                     probe_runs, depth);
    }
    return Leaf(build_file, build_runs, build_records, probe_file, probe_runs);
  }

  /// Re-scatters both sides on the depth-seeded hash and recurses. A child
  /// that absorbed the whole parent (every key in one bucket again) loses
  /// can_split, which stops the recursion from chasing duplicate-heavy keys.
  Status Recurse(const storage::SpillFile* build_file,
                 const std::vector<storage::SpillRun>& build_runs,
                 uint64_t build_records, const storage::SpillFile* probe_file,
                 const std::vector<storage::SpillRun>& probe_runs, int depth) {
    const size_t fan_out = SpillFanOut(ctx);
    MR_ASSIGN_OR_RETURN(std::unique_ptr<storage::SpillFile> sub_build,
                        storage::SpillFile::Create(ctx->spill_dir));
    MR_ASSIGN_OR_RETURN(std::unique_ptr<storage::SpillFile> sub_probe,
                        storage::SpillFile::Create(ctx->spill_dir));
    PartitionedSpillWriter build_writer(sub_build.get(), fan_out);
    PartitionedSpillWriter probe_writer(sub_probe.get(), fan_out);
    std::string record;
    Row key;
    {
      PartitionReader reader(build_file, build_runs);
      while (true) {
        MR_ASSIGN_OR_RETURN(bool more, reader.Next(&record));
        if (!more) break;
        size_t pos = 0;
        MR_RETURN_IF_ERROR(
            storage::DecodeRow(record.data(), record.size(), &pos, &key));
        MR_RETURN_IF_ERROR(
            build_writer.Add(SpillHash(key, depth) % fan_out, record));
      }
      MR_RETURN_IF_ERROR(build_writer.Finish());
    }
    {
      PartitionReader reader(probe_file, probe_runs);
      uint64_t index = 0;
      while (true) {
        MR_ASSIGN_OR_RETURN(bool more, reader.Next(&record));
        if (!more) break;
        size_t pos = 0;
        MR_RETURN_IF_ERROR(
            storage::DecodeU64(record.data(), record.size(), &pos, &index));
        MR_RETURN_IF_ERROR(
            storage::DecodeRow(record.data(), record.size(), &pos, &key));
        MR_RETURN_IF_ERROR(
            probe_writer.Add(SpillHash(key, depth) % fan_out, record));
      }
      MR_RETURN_IF_ERROR(probe_writer.Finish());
    }
    *spill_bytes += static_cast<int64_t>(sub_build->bytes_written() +
                                         sub_probe->bytes_written());
    for (size_t p = 0; p < fan_out; ++p) {
      MR_RETURN_IF_ERROR(Process(sub_build.get(), build_writer.runs(p),
                                 build_writer.records(p),
                                 build_writer.bytes(p), sub_probe.get(),
                                 probe_writer.runs(p), probe_writer.records(p),
                                 depth + 1,
                                 build_writer.records(p) < build_records));
    }
    return Status::OK();
  }

  /// Joins one partition in memory. Partitioning preserved the append order
  /// of both sides, so the build table's buckets hold their rows in serial
  /// insertion order and the probe stream replays the probe input order —
  /// the output run carries strictly ascending probe indexes.
  Status Leaf(const storage::SpillFile* build_file,
              const std::vector<storage::SpillRun>& build_runs,
              uint64_t build_records, const storage::SpillFile* probe_file,
              const std::vector<storage::SpillRun>& probe_runs) {
    ++*spill_partitions;
    JoinTable table;
    table.Reset(key_width, encodable, static_cast<size_t>(build_records));
    std::vector<Row> build_rows;
    build_rows.reserve(static_cast<size_t>(build_records));
    {
      PartitionReader reader(build_file, build_runs);
      std::string record;
      Row key;
      while (true) {
        MR_ASSIGN_OR_RETURN(bool more, reader.Next(&record));
        if (!more) break;
        size_t pos = 0;
        Row row;
        MR_RETURN_IF_ERROR(
            storage::DecodeRow(record.data(), record.size(), &pos, &key));
        MR_RETURN_IF_ERROR(
            storage::DecodeRow(record.data(), record.size(), &pos, &row));
        table.Add(key, static_cast<uint32_t>(build_rows.size()));
        build_rows.push_back(std::move(row));
      }
    }
    table.Seal();
    *encoded_keys += table.index().encoded_keys();
    *generic_keys += table.index().generic_keys();
    PartitionReader reader(probe_file, probe_runs);
    std::string record;
    std::string out_record;
    Row key;
    Row row;
    uint64_t index = 0;
    while (true) {
      MR_ASSIGN_OR_RETURN(bool more, reader.Next(&record));
      if (!more) break;
      size_t pos = 0;
      MR_RETURN_IF_ERROR(
          storage::DecodeU64(record.data(), record.size(), &pos, &index));
      MR_RETURN_IF_ERROR(
          storage::DecodeRow(record.data(), record.size(), &pos, &key));
      MR_RETURN_IF_ERROR(
          storage::DecodeRow(record.data(), record.size(), &pos, &row));
      for (uint32_t b : table.Find(key)) {
        MR_ASSIGN_OR_RETURN(bool pass,
                            residual->Passes(row, build_rows[b], ctx));
        if (!pass) continue;
        out_record.clear();
        storage::EncodeU64(index, &out_record);
        storage::EncodeRow(ConcatRows(row, build_rows[b]), &out_record);
        MR_RETURN_IF_ERROR(output->Append(out_record));
      }
    }
    MR_ASSIGN_OR_RETURN(storage::SpillRun run, output->FinishRun());
    if (run.records > 0) output_runs->push_back(run);
    return Status::OK();
  }
};

}  // namespace

Status HashJoinNode::OpenBudget() {
  // Build side under the accountant: within the budget this finishes as the
  // exact serial in-memory join; past it the build — and then the probe —
  // scatter to key-hash partitions, the partitions are joined independently
  // and the outputs merge back into probe order.
  MemoryAccountant accountant("sql.join.build_peak_bytes", ctx_->memory_limit);
  const size_t fan_out = SpillFanOut(ctx_);
  std::vector<std::pair<Row, Row>> buffer;  // (key, row) with non-NULL keys
  std::unique_ptr<storage::SpillFile> build_file;
  std::unique_ptr<PartitionedSpillWriter> build_writer;
  std::string record;
  Row row;
  Row key;
  int consumed_samples = 0;
  int64_t consumed_width = 0;

  auto spill_build = [&](const Row& k, const Row& r) -> Status {
    record.clear();
    storage::EncodeRow(k, &record);
    storage::EncodeRow(r, &record);
    return build_writer->Add(SpillHash(k, 0) % fan_out, record);
  };

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
    ++build_rows_;
    if (build_writer != nullptr) {
      MR_RETURN_IF_ERROR(spill_build(key, row));
      continue;
    }
    accountant.AddBytes(EstimateRowBytes(key) + EstimateRowBytes(row));
    buffer.emplace_back(std::move(key), std::move(row));
    if (accountant.OverBudget()) {
      MR_ASSIGN_OR_RETURN(build_file,
                          storage::SpillFile::Create(ctx_->spill_dir));
      build_writer = std::make_unique<PartitionedSpillWriter>(
          build_file.get(), fan_out);
      for (const auto& [buffered_key, buffered_row] : buffer) {
        MR_RETURN_IF_ERROR(spill_build(buffered_key, buffered_row));
      }
      buffer.clear();
      accountant.Reset();
    }
  }
  if (consumed_samples > 0) {
    build_consumed_bytes_ =
        build_consumed_rows_ * (consumed_width / consumed_samples);
  }
  // est_bytes reports the resident build working set: the full buffer when
  // it fit, the peak between spills when it did not. An all-NULL-key build
  // still materialized its input, so report the consumed-row estimate
  // rather than 0.
  build_bytes_ =
      build_writer != nullptr ? accountant.peak() : accountant.bytes();
  if (build_rows_ == 0 && build_consumed_rows_ > 0) {
    build_bytes_ = build_consumed_bytes_;
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
  if (build_writer == nullptr) {
    // Within budget: the buffered pairs become the serial hash table —
    // insertion order per bucket is build input order — and the probe
    // streams through the regular serial NextImpl.
    table_.Reset(right_keys_.size(), encodable_, buffer.size());
    build_side_.reserve(buffer.size());
    for (auto& [buffered_key, buffered_row] : buffer) {
      table_.Add(buffered_key, static_cast<uint32_t>(build_side_.size()));
      build_side_.push_back(std::move(buffered_row));
    }
    table_.Seal();
    NoteKeys(table_.index());
    return Status::OK();
  }
  MR_RETURN_IF_ERROR(build_writer->Finish());

  // Grace mode: scatter the probe side to the same key-hash partitions,
  // tagging every row with its probe index so the merged output reproduces
  // the serial probe order.
  spill_ = std::make_unique<Spill>();
  spill_->build_file = std::move(build_file);
  MR_ASSIGN_OR_RETURN(spill_->probe_file,
                      storage::SpillFile::Create(ctx_->spill_dir));
  PartitionedSpillWriter probe_writer(spill_->probe_file.get(), fan_out);
  uint64_t probe_index = 0;
  while (true) {
    MR_ASSIGN_OR_RETURN(bool more, left_->Next(&row));
    if (!more) break;
    const uint64_t index = probe_index++;
    MR_ASSIGN_OR_RETURN(bool valid, ComputeKey(left_keys_, row, &key));
    if (!valid) continue;
    record.clear();
    storage::EncodeU64(index, &record);
    storage::EncodeRow(key, &record);
    storage::EncodeRow(row, &record);
    MR_RETURN_IF_ERROR(
        probe_writer.Add(SpillHash(key, 0) % fan_out, record));
  }
  MR_RETURN_IF_ERROR(probe_writer.Finish());
  MR_ASSIGN_OR_RETURN(spill_->output,
                      storage::SpillFile::Create(ctx_->spill_dir));

  GraceJoin grace{ctx_,
                  &residual_,
                  right_keys_.size(),
                  encodable_,
                  spill_->output.get(),
                  &spill_->output_runs,
                  &spill_bytes_,
                  &spill_partitions_,
                  &encoded_keys_,
                  &generic_keys_};
  const uint64_t total_build = static_cast<uint64_t>(build_rows_);
  for (size_t p = 0; p < fan_out; ++p) {
    MR_RETURN_IF_ERROR(grace.Process(
        spill_->build_file.get(), build_writer->runs(p),
        build_writer->records(p), build_writer->bytes(p),
        spill_->probe_file.get(), probe_writer.runs(p),
        probe_writer.records(p), /*depth=*/1,
        build_writer->records(p) < total_build));
  }

  // Every probe index lives in exactly one output run, so merging runs by
  // their leading index is a disjoint interleave — no tie-break needed.
  // Collapse to the fan-in first to bound the final merge's reader count.
  while (spill_->output_runs.size() > kMergeFanIn) {
    std::vector<storage::SpillRun> collapsed;
    for (size_t begin = 0; begin < spill_->output_runs.size();
         begin += kMergeFanIn) {
      const size_t end =
          std::min(spill_->output_runs.size(), begin + kMergeFanIn);
      std::vector<Spill::Source> sources(end - begin);
      for (size_t i = begin; i < end; ++i) {
        sources[i - begin].reader =
            spill_->output->OpenRun(spill_->output_runs[i]);
        MR_RETURN_IF_ERROR(Spill::Advance(&sources[i - begin]));
      }
      while (true) {
        int best = -1;
        for (size_t i = 0; i < sources.size(); ++i) {
          if (sources[i].done) continue;
          if (best < 0 || sources[i].index < sources[best].index) {
            best = static_cast<int>(i);
          }
        }
        if (best < 0) break;
        MR_RETURN_IF_ERROR(spill_->output->Append(sources[best].record));
        MR_RETURN_IF_ERROR(Spill::Advance(&sources[best]));
      }
      MR_ASSIGN_OR_RETURN(storage::SpillRun merged,
                          spill_->output->FinishRun());
      if (merged.records > 0) collapsed.push_back(merged);
    }
    spill_->output_runs = std::move(collapsed);
  }

  spill_->sources.resize(spill_->output_runs.size());
  for (size_t i = 0; i < spill_->output_runs.size(); ++i) {
    spill_->sources[i].reader = spill_->output->OpenRun(spill_->output_runs[i]);
    MR_RETURN_IF_ERROR(Spill::Advance(&spill_->sources[i]));
  }
  spill_bytes_ += static_cast<int64_t>(spill_->build_file->bytes_written() +
                                       spill_->probe_file->bytes_written() +
                                       spill_->output->bytes_written());
  JoinSpillBytesCounter()->Add(spill_bytes_);
  JoinSpillPartitionsCounter()->Add(spill_partitions_);
  return Status::OK();
}

Result<bool> HashJoinNode::NextSpill(Row* out) {
  std::vector<Spill::Source>& sources = spill_->sources;
  int best = -1;
  for (size_t i = 0; i < sources.size(); ++i) {
    if (sources[i].done) continue;
    if (best < 0 || sources[i].index < sources[best].index) {
      best = static_cast<int>(i);
    }
  }
  if (best < 0) return false;
  Spill::Source& source = sources[best];
  size_t pos = source.row_pos;
  MR_RETURN_IF_ERROR(
      storage::DecodeRow(source.record.data(), source.record.size(), &pos, out));
  MR_RETURN_IF_ERROR(Spill::Advance(&source));
  return true;
}

// ---------------------------------------------------------------------------
// HashAggregateNode: partitioned spilling aggregation
// ---------------------------------------------------------------------------

/// Descriptor of one spilled aggregate partition: a record extent in `file`
/// plus its totals, which decide whether the partition recurses.
struct AggPartitionInput {
  const storage::SpillFile* file = nullptr;
  const std::vector<storage::SpillRun>* runs = nullptr;
  uint64_t records = 0;
  uint64_t bytes = 0;
};

HashAggregateNode::~HashAggregateNode() = default;

Status HashAggregateNode::OpenBudget() {
  // Stream the child serially, evaluating group keys and aggregate
  // arguments per row in input order — the same evaluation order (and first
  // error) as the serial pass — into (input index, key, args) tuples
  // tracked by the accountant.
  MemoryAccountant accountant("sql.aggregate.table_peak_bytes",
                              ctx_->memory_limit);
  const size_t fan_out = SpillFanOut(ctx_);
  struct Tuple {
    uint64_t index = 0;
    Row key;
    Row args;
  };
  std::vector<Tuple> buffer;
  std::unique_ptr<storage::SpillFile> file;
  std::unique_ptr<PartitionedSpillWriter> writer;
  std::string record;

  auto spill_tuple = [&](const Tuple& tuple) -> Status {
    record.clear();
    storage::EncodeU64(tuple.index, &record);
    storage::EncodeRow(tuple.key, &record);
    storage::EncodeRow(tuple.args, &record);
    return writer->Add(SpillHash(tuple.key, 0) % fan_out, record);
  };

  Row row;
  uint64_t input_index = 0;
  while (true) {
    MR_ASSIGN_OR_RETURN(bool more, child_->Next(&row));
    if (!more) break;
    Tuple tuple;
    tuple.index = input_index++;
    tuple.key.reserve(group_exprs_.size());
    for (const ExprPtr& e : group_exprs_) {
      MR_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, row, ctx_));
      tuple.key.push_back(std::move(v));
    }
    tuple.args.reserve(aggs_.size());
    for (const AggSpec& spec : aggs_) {
      Value arg;  // NULL placeholder for COUNT(*)
      if (spec.arg != nullptr) {
        MR_ASSIGN_OR_RETURN(arg, EvalExpr(*spec.arg, row, ctx_));
      }
      tuple.args.push_back(std::move(arg));
    }
    if (writer != nullptr) {
      MR_RETURN_IF_ERROR(spill_tuple(tuple));
      continue;
    }
    accountant.AddBytes(static_cast<int64_t>(sizeof(uint64_t)) +
                        EstimateRowBytes(tuple.key) +
                        EstimateRowBytes(tuple.args));
    buffer.push_back(std::move(tuple));
    if (accountant.OverBudget()) {
      MR_ASSIGN_OR_RETURN(file, storage::SpillFile::Create(ctx_->spill_dir));
      writer = std::make_unique<PartitionedSpillWriter>(file.get(), fan_out);
      for (const Tuple& buffered : buffer) {
        MR_RETURN_IF_ERROR(spill_tuple(buffered));
      }
      buffer.clear();
      accountant.Reset();
    }
  }

  std::vector<std::pair<uint64_t, Row>> groups_out;  // (first index, out row)
  if (writer == nullptr) {
    // Within budget: aggregate the buffered tuples in input order — the
    // same group lookup/Add sequence as the serial pass, so the emission
    // order and every accumulator value match it exactly.
    GroupTable groups;
    groups.index.Reset(group_exprs_.size(), encodable_, buffer.size());
    std::vector<uint64_t> first_index;
    for (const Tuple& tuple : buffer) {
      bool inserted = false;
      const uint32_t group = FindOrAddGroup(&groups, tuple.key, &inserted);
      if (inserted) first_index.push_back(tuple.index);
      std::vector<AggAccumulator>& accs = groups.states[group];
      for (size_t i = 0; i < aggs_.size(); ++i) {
        MR_RETURN_IF_ERROR(accs[i].Add(tuple.args[i]));
      }
    }
    NoteKeys(groups);
    groups_out.reserve(groups.keys.size());
    for (size_t g = 0; g < groups.keys.size(); ++g) {
      Row out = std::move(groups.keys[g]);
      for (const AggAccumulator& acc : groups.states[g]) {
        MR_ASSIGN_OR_RETURN(Value v, acc.Finish());
        out.push_back(std::move(v));
      }
      groups_out.emplace_back(first_index[g], std::move(out));
    }
  } else {
    MR_RETURN_IF_ERROR(writer->Finish());
    spill_bytes_ += static_cast<int64_t>(file->bytes_written());
    const uint64_t total = input_index;
    for (size_t p = 0; p < fan_out; ++p) {
      AggPartitionInput input;
      input.file = file.get();
      input.runs = &writer->runs(p);
      input.records = writer->records(p);
      input.bytes = writer->bytes(p);
      MR_RETURN_IF_ERROR(AggregatePartition(
          input, /*depth=*/1, writer->records(p) < total, &groups_out));
    }
    // Every group's first-occurrence index is unique, so sorting on it
    // reconstructs the serial first-seen emission order exactly.
    std::sort(groups_out.begin(), groups_out.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    AggSpillBytesCounter()->Add(spill_bytes_);
    AggSpillPartitionsCounter()->Add(spill_partitions_);
  }

  results_.reserve(groups_out.size() + 1);
  for (auto& entry : groups_out) results_.push_back(std::move(entry.second));

  // Global aggregate over empty input still yields one row.
  if (group_exprs_.empty() && results_.empty()) {
    Row out;
    for (const AggAccumulator& acc : MakeAccumulators()) {
      MR_ASSIGN_OR_RETURN(Value v, acc.Finish());
      out.push_back(std::move(v));
    }
    results_.push_back(std::move(out));
  }
  table_bytes_ = AccountBufferBytes("sql.aggregate.table_peak_bytes", results_);
  return Status::OK();
}

Status HashAggregateNode::AggregatePartition(
    const AggPartitionInput& input, int depth, bool can_split,
    std::vector<std::pair<uint64_t, Row>>* out) {
  if (input.records == 0) return Status::OK();
  if (can_split && depth < kMaxSpillDepth && input.records > 1 &&
      input.bytes > static_cast<uint64_t>(ctx_->memory_limit)) {
    // Still over budget: re-scatter on the depth-seeded hash and recurse. A
    // child that absorbed the whole parent loses can_split, which stops the
    // recursion from chasing a single heavy group forever.
    MR_ASSIGN_OR_RETURN(std::unique_ptr<storage::SpillFile> file,
                        storage::SpillFile::Create(ctx_->spill_dir));
    const size_t fan_out = SpillFanOut(ctx_);
    PartitionedSpillWriter writer(file.get(), fan_out);
    {
      PartitionReader reader(input.file, *input.runs);
      std::string record;
      Row key;
      uint64_t index = 0;
      while (true) {
        MR_ASSIGN_OR_RETURN(bool more, reader.Next(&record));
        if (!more) break;
        size_t pos = 0;
        MR_RETURN_IF_ERROR(
            storage::DecodeU64(record.data(), record.size(), &pos, &index));
        MR_RETURN_IF_ERROR(
            storage::DecodeRow(record.data(), record.size(), &pos, &key));
        MR_RETURN_IF_ERROR(
            writer.Add(SpillHash(key, depth) % fan_out, record));
      }
      MR_RETURN_IF_ERROR(writer.Finish());
    }
    spill_bytes_ += static_cast<int64_t>(file->bytes_written());
    for (size_t p = 0; p < fan_out; ++p) {
      AggPartitionInput child;
      child.file = file.get();
      child.runs = &writer.runs(p);
      child.records = writer.records(p);
      child.bytes = writer.bytes(p);
      MR_RETURN_IF_ERROR(AggregatePartition(
          child, depth + 1, writer.records(p) < input.records, out));
    }
    return Status::OK();
  }

  // Leaf: aggregate this partition in record order. Partitioning preserved
  // the input order, so each group's Add sequence is an input-order
  // subsequence — order-sensitive accumulators (SUM/AVG over doubles) see
  // exactly the serial operand order.
  ++spill_partitions_;
  GroupTable groups;
  groups.index.Reset(group_exprs_.size(), encodable_,
                     static_cast<size_t>(input.records));
  std::vector<uint64_t> first_index;
  PartitionReader reader(input.file, *input.runs);
  std::string record;
  Row key;
  Row args;
  while (true) {
    MR_ASSIGN_OR_RETURN(bool more, reader.Next(&record));
    if (!more) break;
    size_t pos = 0;
    uint64_t tuple_index = 0;
    MR_RETURN_IF_ERROR(
        storage::DecodeU64(record.data(), record.size(), &pos, &tuple_index));
    MR_RETURN_IF_ERROR(
        storage::DecodeRow(record.data(), record.size(), &pos, &key));
    MR_RETURN_IF_ERROR(
        storage::DecodeRow(record.data(), record.size(), &pos, &args));
    bool inserted = false;
    const uint32_t group = FindOrAddGroup(&groups, key, &inserted);
    if (inserted) first_index.push_back(tuple_index);
    std::vector<AggAccumulator>& accs = groups.states[group];
    for (size_t i = 0; i < aggs_.size(); ++i) {
      MR_RETURN_IF_ERROR(accs[i].Add(args[i]));
    }
  }
  NoteKeys(groups);
  for (size_t g = 0; g < groups.keys.size(); ++g) {
    Row out_row = std::move(groups.keys[g]);
    for (const AggAccumulator& acc : groups.states[g]) {
      MR_ASSIGN_OR_RETURN(Value v, acc.Finish());
      out_row.push_back(std::move(v));
    }
    out->emplace_back(first_index[g], std::move(out_row));
  }
  return Status::OK();
}

}  // namespace minerule::sql
