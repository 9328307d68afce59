#include "sql/statistics.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace minerule::sql {

namespace {

/// Rough per-value payload estimate for spill sizing; strings are the only
/// heap-owning alternative.
int64_t ApproxValueBytes(const Value& v) {
  int64_t bytes = 16;
  if (v.type() == DataType::kString) {
    bytes += static_cast<int64_t>(v.AsString().size());
  }
  return bytes;
}

}  // namespace

uint64_t NdvSketch::MixHash(uint64_t h) {
  h += 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

void NdvSketch::AddHash(uint64_t hash) {
  const size_t bucket = hash >> (64 - kPrecision);
  const uint64_t rest = hash << kPrecision;
  // Rank of the first set bit of the remaining 64 - kPrecision bits, 1-based;
  // an all-zero remainder gets the maximum rank.
  const int rank =
      rest == 0 ? (64 - kPrecision + 1) : (std::countl_zero(rest) + 1);
  registers_[bucket] =
      std::max(registers_[bucket], static_cast<uint8_t>(rank));
}

void NdvSketch::Merge(const NdvSketch& other) {
  for (size_t i = 0; i < kRegisters; ++i) {
    registers_[i] = std::max(registers_[i], other.registers_[i]);
  }
}

double NdvSketch::Estimate() const {
  const double m = static_cast<double>(kRegisters);
  const double alpha = 0.7213 / (1.0 + 1.079 / m);
  double sum = 0.0;
  int zeros = 0;
  for (uint8_t reg : registers_) {
    sum += std::ldexp(1.0, -static_cast<int>(reg));
    if (reg == 0) ++zeros;
  }
  const double raw = alpha * m * m / sum;
  if (raw <= 2.5 * m && zeros > 0) {
    // Linear counting: near-exact in the small range.
    return m * std::log(m / zeros);
  }
  return raw;
}

void ColumnStats::AddValue(const Value& v) {
  if (v.is_null()) {
    ++null_count;
    return;
  }
  ++non_null_count;
  sketch.Add(v);
  if (min_value.is_null() || v.TotalLess(min_value)) min_value = v;
  if (max_value.is_null() || max_value.TotalLess(v)) max_value = v;
}

double ColumnStats::Ndv() const {
  if (non_null_count == 0) return 0.0;
  const double est = sketch.Estimate();
  return std::clamp(est, 1.0, static_cast<double>(non_null_count));
}

void StatisticsCatalog::FoldRows(const Table& table, size_t begin, size_t end,
                                 Entry* entry) {
  TableStats& stats = entry->stats;
  stats.columns.resize(table.schema().num_columns());
  stats.column_names.clear();
  for (const Column& col : table.schema().columns()) {
    stats.column_names.push_back(col.name);
  }
  for (size_t r = begin; r < end; ++r) {
    const Row& row = table.row(r);
    for (size_t c = 0; c < row.size() && c < stats.columns.size(); ++c) {
      stats.columns[c].AddValue(row[c]);
      stats.total_row_bytes += ApproxValueBytes(row[c]);
    }
  }
  stats.row_count = static_cast<int64_t>(end);
  ++stats.epoch;
  entry->version = table.version();
  entry->shape_version = table.shape_version();
  entry->rows_covered = static_cast<int64_t>(end);
}

void StatisticsCatalog::Rebuild(const Table& table, Entry* entry) {
  TableStats fresh;
  fresh.epoch = entry->stats.epoch;  // epochs keep counting across rebuilds
  entry->stats = std::move(fresh);
  FoldRows(table, 0, table.num_rows(), entry);
}

const TableStats* StatisticsCatalog::Lookup(const Table& table) {
  auto it = entries_.find(table.name());
  if (it == entries_.end() || it->second.table.lock().get() != &table) {
    return nullptr;
  }
  Entry& entry = it->second;
  if (entry.version == table.version()) return &entry.stats;
  if (entry.shape_version == table.shape_version() &&
      entry.rows_covered <= static_cast<int64_t>(table.num_rows())) {
    // Append-only growth since collection: fold just the new suffix.
    FoldRows(table, static_cast<size_t>(entry.rows_covered), table.num_rows(),
             &entry);
  } else {
    Rebuild(table, &entry);
  }
  return &entry.stats;
}

const TableStats* StatisticsCatalog::Analyze(
    const std::shared_ptr<const Table>& table) {
  Entry& entry = entries_[table->name()];
  entry.table = table;
  Rebuild(*table, &entry);
  return &entry.stats;
}

std::vector<std::pair<std::string, const TableStats*>>
StatisticsCatalog::Entries() const {
  std::vector<std::pair<std::string, const TableStats*>> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    out.emplace_back(name, &entry.stats);
  }
  return out;
}

void PlanFeedback::Record(const std::string& fingerprint, int64_t rows) {
  if (observed_.size() >= kMaxEntries &&
      observed_.find(fingerprint) == observed_.end()) {
    observed_.clear();
  }
  observed_[fingerprint] = rows;
}

int64_t PlanFeedback::Lookup(const std::string& fingerprint) const {
  auto it = observed_.find(fingerprint);
  return it == observed_.end() ? -1 : it->second;
}

}  // namespace minerule::sql
