#ifndef MINERULE_SQL_OPERATORS_SPILL_STATE_H_
#define MINERULE_SQL_OPERATORS_SPILL_STATE_H_

// Definitions of the state structs owned by the buffering operators
// (DESIGN.md §13). operators.cc needs the complete types to construct and
// reset the owning unique_ptrs; operators_spill.cc implements the budgeted
// paths that fill them. Both files build the aggregate's group tables.
// Internal to the sql library — not part of its API.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sql/operators.h"
#include "storage/row_codec.h"
#include "storage/spill.h"

namespace minerule::sql {

/// Group state of a hash aggregation: key ids from the KeyIndex index the
/// first-seen-order keys and accumulators. Used by the serial pass, as the
/// per-morsel local table of the parallel pass, and by the budgeted paths.
struct HashAggregateNode::GroupTable {
  KeyIndex index;
  std::vector<Row> keys;
  std::vector<std::vector<AggAccumulator>> states;
};

/// External-merge-sort state: one spill file holding sorted runs, plus the
/// open run readers of the final merge.
struct SortNode::External {
  std::unique_ptr<storage::SpillFile> file;
  std::vector<storage::SpillRun> runs;  // sorted runs, in input-chunk order

  /// One open run in a merge: the current record decoded just far enough to
  /// compare (its key); the row payload stays encoded until emitted.
  struct Source {
    storage::SpillFile::Reader reader;
    std::string record;
    Row key;
    size_t row_pos = 0;  // offset of the encoded row inside `record`
    bool done = true;
  };
  std::vector<Source> sources;  // final merge inputs, in run order

  static Status Advance(Source* source) {
    MR_ASSIGN_OR_RETURN(bool more, source->reader.Next(&source->record));
    if (!more) {
      source->done = true;
      return Status::OK();
    }
    size_t pos = 0;
    MR_RETURN_IF_ERROR(storage::DecodeRow(source->record.data(),
                                          source->record.size(), &pos,
                                          &source->key));
    source->row_pos = pos;
    source->done = false;
    return Status::OK();
  }
};

/// Grace-hash-join state: the partitioned build/probe scatter files, the
/// shared output file its leaves append to, and the open run readers of the
/// final probe-order merge.
struct HashJoinNode::Spill {
  std::unique_ptr<storage::SpillFile> build_file;  // [key][row] records
  std::unique_ptr<storage::SpillFile> probe_file;  // [index][key][row] records
  std::unique_ptr<storage::SpillFile> output;      // [index][joined] records
  std::vector<storage::SpillRun> output_runs;

  /// One open output run in a merge, positioned on its next record with the
  /// leading probe index decoded for comparison.
  struct Source {
    storage::SpillFile::Reader reader;
    std::string record;
    uint64_t index = 0;
    size_t row_pos = 0;  // offset of the encoded joined row inside `record`
    bool done = true;
  };
  std::vector<Source> sources;

  static Status Advance(Source* source) {
    MR_ASSIGN_OR_RETURN(bool more, source->reader.Next(&source->record));
    if (!more) {
      source->done = true;
      return Status::OK();
    }
    size_t pos = 0;
    MR_RETURN_IF_ERROR(storage::DecodeU64(source->record.data(),
                                          source->record.size(), &pos,
                                          &source->index));
    source->row_pos = pos;
    source->done = false;
    return Status::OK();
  }
};

}  // namespace minerule::sql

#endif  // MINERULE_SQL_OPERATORS_SPILL_STATE_H_
