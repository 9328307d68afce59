#ifndef MINERULE_SQL_KEY_INDEX_H_
#define MINERULE_SQL_KEY_INDEX_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "relational/column.h"
#include "relational/schema.h"

namespace minerule::sql {

/// Key words of a batch (DESIGN.md §12, "Hash keys"): the key columns of
/// each listed row encoded column by column straight from the typed
/// payloads, into the same (tag, payload) words KeyIndex encodes a key
/// Row's values into.
struct KeyWords {
  enum State : uint8_t {
    kWords = 0,     // every column encoded: words() holds the key
    kFallback = 1,  // some value has no canonical form: use KeyRow()
  };
  size_t width = 0;
  std::vector<uint64_t> words;  // 2 * width per row
  std::vector<uint8_t> state;   // one State per row
  std::vector<uint8_t> has_null;  // 1 when any key column is NULL

  /// Encodes `rows` of `columns`. With `encodable` false (string-typed
  /// keys) every row takes the fallback.
  void Encode(const std::vector<const ColumnVector*>& columns,
              std::span<const uint32_t> rows, bool encodable);
  const uint64_t* row_words(size_t k) const {
    return words.data() + k * 2 * width;
  }
};

/// The key Row of row `row` of `columns`: the fallback path's key.
Row KeyRow(const std::vector<const ColumnVector*>& columns, uint32_t row);

/// Maps key rows to dense ids 0, 1, 2, ... in first-seen order. It is the
/// one hash table behind DISTINCT, GROUP BY and hash join (DESIGN.md §12,
/// "Hash keys"): two keys receive the same id iff RowEq holds between them.
///
/// Encoded path: a key whose every value has a canonical form becomes one
/// (tag, payload) word pair per column in a flat arena, found through
/// open-addressing uint32 slots under a 64-bit mixer. NULL, BOOLEAN and
/// DATE each have their own tag; INTEGER and a DOUBLE holding an integer
/// in int64 range share the integer tag (INTEGER 2 and DOUBLE 2.0 are
/// RowEq, and -0.0 encodes as 0).
///
/// Fallback path: a key holding any value without a canonical form (STRING,
/// a non-integral, NaN or out-of-range DOUBLE) lives in a Row-keyed table.
/// Such a value is never RowEq to a canonical one, so the two tables split
/// the keys along RowEq classes and share one id sequence.
///
/// Insert is single-threaded; concurrent Find calls are safe once the index
/// is no longer inserted into.
class KeyIndex {
 public:
  static constexpr uint32_t kAbsent = 0xffffffffu;

  /// True when no type in `types` is STRING. Operators decide the path at
  /// Open() from their inferred key types, so string-keyed operators never
  /// attempt an encoding; a value that fails to encode at run time (a
  /// non-integral DOUBLE, or a value of another type than inferred) still
  /// falls back per key.
  static bool EncodableTypes(const std::vector<DataType>& types);

  /// Empties the index for keys of `width` columns and sizes the encoded
  /// path so that `expected` distinct keys fit without growing. `encodable`
  /// false sends every key to the fallback table, which grows as needed.
  void Reset(size_t width, bool encodable, size_t expected);

  /// Id of `key`; a new key gets id size() and sets *inserted.
  uint32_t Insert(const Row& key, bool* inserted);

  /// Id of `key`, or kAbsent.
  uint32_t Find(const Row& key) const;

  /// The same over a key already encoded (KeyWords): the words entry
  /// point of batch operators. Only valid when encodable() holds.
  uint32_t InsertWords(const uint64_t* words, bool* inserted);
  uint32_t FindWords(const uint64_t* words) const;

  /// Whether Reset chose the encoded path.
  bool encodable() const { return encodable_; }

  /// Distinct keys seen.
  size_t size() const { return size_; }
  /// Distinct keys on the encoded and on the fallback path.
  int64_t encoded_keys() const {
    return static_cast<int64_t>(entry_ids_.size());
  }
  int64_t generic_keys() const {
    return static_cast<int64_t>(generic_.size());
  }

  /// Approximate heap footprint: slots, arena, ids and fallback rows.
  int64_t ByteSize() const;

 private:
  /// Hash of the fallback table: Value::Hash per column through a 64-bit
  /// mixer (RowHash's additive combine spreads small values poorly).
  struct GenericHash {
    size_t operator()(const Row& key) const;
  };

  /// Encodes `key` into stride_ words; false when a value has no canonical
  /// form.
  bool Encode(const Row& key, uint64_t* words) const;
  uint64_t HashWords(const uint64_t* words) const;
  bool EntryEquals(uint32_t entry, const uint64_t* words) const;
  /// Slot position holding `words`, or the empty slot where they belong.
  size_t Probe(const uint64_t* words, uint64_t hash) const;
  void Grow();

  size_t width_ = 0;
  size_t stride_ = 0;  // words per encoded key: 2 * width_
  bool encodable_ = false;  // until Reset: everything on the fallback path
  uint32_t size_ = 0;
  std::vector<uint32_t> slots_;      // encoded entry + 1; 0 marks empty
  size_t mask_ = 0;                  // slots_.size() - 1
  std::vector<uint64_t> arena_;      // stride_ words per encoded entry
  std::vector<uint32_t> entry_ids_;  // id of each encoded entry
  std::unordered_map<Row, uint32_t, GenericHash, RowEq> generic_;
  int64_t generic_bytes_ = 0;
};

/// Hash-join build table: a KeyIndex over the build keys plus, per key id,
/// the build-row indexes carrying that key in insertion order. The lists
/// live in one flat array delimited by offsets, filled by Seal().
class JoinTable {
 public:
  /// Empties the table for keys of `width` columns; `expected_rows` is the
  /// number of Add calls expected (it presizes the index and the lists).
  void Reset(size_t width, bool encodable, size_t expected_rows);

  /// Adds build row `row` under `key`. Rows of one key keep Add order.
  void Add(const Row& key, uint32_t row);
  /// Add over an encoded key (KeyIndex::InsertWords).
  void AddWords(const uint64_t* words, uint32_t row);

  /// Groups the added rows by key; call once, after the last Add.
  void Seal();

  /// Build-row indexes of `key` in Add order; empty when absent.
  std::span<const uint32_t> Find(const Row& key) const;
  std::span<const uint32_t> FindWords(const uint64_t* words) const;

  /// Every added row index, grouped by key in first-seen key order.
  const std::vector<uint32_t>& rows() const { return rows_; }
  size_t buckets() const { return index_.size(); }
  const KeyIndex& index() const { return index_; }

 private:
  std::span<const uint32_t> RowsOf(uint32_t id) const;

  KeyIndex index_;
  std::vector<uint32_t> ids_;      // key id per Add; released by Seal
  std::vector<uint32_t> rows_;     // Add order, then grouped by Seal
  std::vector<uint32_t> offsets_;  // key id -> begin in rows_; size ids + 1
};

}  // namespace minerule::sql

#endif  // MINERULE_SQL_KEY_INDEX_H_
