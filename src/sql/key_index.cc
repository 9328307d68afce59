#include "sql/key_index.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "sql/operators.h"

namespace minerule::sql {

namespace {

// Tags of the encoded path, one per family of RowEq classes.
constexpr uint64_t kTagNull = 1;
constexpr uint64_t kTagBoolean = 2;
constexpr uint64_t kTagInteger = 3;  // INTEGER and integral DOUBLE
constexpr uint64_t kTagDate = 4;

/// Rough per-entry overhead of a fallback hash node (links, cached hash,
/// mapped id), added to the key's own estimate in ByteSize().
constexpr int64_t kGenericNodeBytes = 32;

/// The canonical (tag, payload) of `v`; false when it has none.
bool EncodeValue(const Value& v, uint64_t* tag, uint64_t* payload) {
  switch (v.type()) {
    case DataType::kNull:
      *tag = kTagNull;
      *payload = 0;
      return true;
    case DataType::kBoolean:
      *tag = kTagBoolean;
      *payload = v.AsBoolean() ? 1 : 0;
      return true;
    case DataType::kInteger:
      *tag = kTagInteger;
      *payload = static_cast<uint64_t>(v.AsInteger());
      return true;
    case DataType::kDouble: {
      // The int64 class holds exactly the doubles Value::Hash canonicalizes:
      // integral and in [-2^63, 2^63). NaN fails the range test; -0.0
      // truncates to 0.
      const double d = v.AsDouble();
      if (!(d >= -9223372036854775808.0 && d < 9223372036854775808.0)) {
        return false;
      }
      if (std::trunc(d) != d) return false;
      *tag = kTagInteger;
      *payload = static_cast<uint64_t>(static_cast<int64_t>(d));
      return true;
    }
    case DataType::kDate:
      *tag = kTagDate;
      *payload = static_cast<uint64_t>(static_cast<int64_t>(v.AsDate()));
      return true;
    case DataType::kString:
      return false;
  }
  return false;
}

/// splitmix64's finalizer: every input bit affects every output bit, so
/// small dense integers spread over the whole slot table.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// Slot count keeping the load factor at or below 1/2 for `keys` keys.
size_t SlotsFor(size_t keys) {
  return std::bit_ceil(std::max<size_t>(16, keys * 2));
}

/// Encoding scratch: on the stack for keys of up to eight columns.
class WordBuffer {
 public:
  explicit WordBuffer(size_t words) {
    if (words > kInline) {
      heap_.resize(words);
      data_ = heap_.data();
    }
  }
  uint64_t* data() { return data_; }

 private:
  static constexpr size_t kInline = 16;
  uint64_t inline_[kInline];
  std::vector<uint64_t> heap_;
  uint64_t* data_ = inline_;
};

}  // namespace

// ---------------------------------------------------------------------------
// KeyIndex
// ---------------------------------------------------------------------------

bool KeyIndex::EncodableTypes(const std::vector<DataType>& types) {
  for (DataType type : types) {
    if (type == DataType::kString) return false;
  }
  return true;
}

void KeyIndex::Reset(size_t width, bool encodable, size_t expected) {
  width_ = width;
  stride_ = 2 * width;
  encodable_ = encodable;
  size_ = 0;
  arena_.clear();
  entry_ids_.clear();
  generic_.clear();
  generic_bytes_ = 0;
  if (encodable) {
    slots_.assign(SlotsFor(expected), 0);
    mask_ = slots_.size() - 1;
    arena_.reserve(expected * stride_);
    entry_ids_.reserve(expected);
  } else {
    slots_.clear();
    mask_ = 0;
  }
}

size_t KeyIndex::GenericHash::operator()(const Row& key) const {
  uint64_t h = 0x9e3779b97f4a7c15ull + key.size();
  for (const Value& v : key) h = Mix64(h ^ v.Hash());
  return static_cast<size_t>(h);
}

bool KeyIndex::Encode(const Row& key, uint64_t* words) const {
  if (key.size() != width_) return false;
  for (size_t c = 0; c < width_; ++c) {
    if (!EncodeValue(key[c], &words[2 * c], &words[2 * c + 1])) return false;
  }
  return true;
}

uint64_t KeyIndex::HashWords(const uint64_t* words) const {
  uint64_t h = 0x9e3779b97f4a7c15ull + width_;
  for (size_t i = 0; i < stride_; i += 2) {
    h = Mix64((h ^ words[i + 1]) + words[i] * 0xff51afd7ed558ccdull);
  }
  return h;
}

bool KeyIndex::EntryEquals(uint32_t entry, const uint64_t* words) const {
  // Zero-width keys (a global aggregate's) have no words and are all equal;
  // memcmp must not see the empty arena's null data pointer.
  if (stride_ == 0) return true;
  return std::memcmp(arena_.data() + static_cast<size_t>(entry) * stride_,
                     words, stride_ * sizeof(uint64_t)) == 0;
}

size_t KeyIndex::Probe(const uint64_t* words, uint64_t hash) const {
  size_t pos = hash & mask_;
  while (true) {
    const uint32_t slot = slots_[pos];
    if (slot == 0 || EntryEquals(slot - 1, words)) return pos;
    pos = (pos + 1) & mask_;
  }
}

void KeyIndex::Grow() {
  slots_.assign(slots_.size() * 2, 0);
  mask_ = slots_.size() - 1;
  const uint32_t entries = static_cast<uint32_t>(entry_ids_.size());
  for (uint32_t e = 0; e < entries; ++e) {
    size_t pos = HashWords(arena_.data() + static_cast<size_t>(e) * stride_) &
                 mask_;
    while (slots_[pos] != 0) pos = (pos + 1) & mask_;
    slots_[pos] = e + 1;
  }
}

uint32_t KeyIndex::Insert(const Row& key, bool* inserted) {
  if (encodable_) {
    WordBuffer buffer(stride_);
    uint64_t* words = buffer.data();
    if (Encode(key, words)) return InsertWords(words, inserted);
  }
  auto [it, added] = generic_.try_emplace(key, size_);
  *inserted = added;
  if (!added) return it->second;
  generic_bytes_ += EstimateRowBytes(key) + kGenericNodeBytes;
  return size_++;
}

uint32_t KeyIndex::InsertWords(const uint64_t* words, bool* inserted) {
  const uint64_t hash = HashWords(words);
  size_t pos = Probe(words, hash);
  if (slots_[pos] != 0) {
    *inserted = false;
    return entry_ids_[slots_[pos] - 1];
  }
  if ((entry_ids_.size() + 1) * 2 > slots_.size()) {
    Grow();
    pos = Probe(words, hash);
  }
  slots_[pos] = static_cast<uint32_t>(entry_ids_.size()) + 1;
  arena_.insert(arena_.end(), words, words + stride_);
  entry_ids_.push_back(size_);
  *inserted = true;
  return size_++;
}

uint32_t KeyIndex::FindWords(const uint64_t* words) const {
  const uint32_t slot = slots_[Probe(words, HashWords(words))];
  return slot == 0 ? kAbsent : entry_ids_[slot - 1];
}

uint32_t KeyIndex::Find(const Row& key) const {
  if (encodable_) {
    WordBuffer buffer(stride_);
    uint64_t* words = buffer.data();
    if (Encode(key, words)) return FindWords(words);
  }
  auto it = generic_.find(key);
  return it == generic_.end() ? kAbsent : it->second;
}

int64_t KeyIndex::ByteSize() const {
  return static_cast<int64_t>(slots_.size() * sizeof(uint32_t) +
                              arena_.size() * sizeof(uint64_t) +
                              entry_ids_.size() * sizeof(uint32_t)) +
         generic_bytes_;
}

// ---------------------------------------------------------------------------
// JoinTable
// ---------------------------------------------------------------------------

void JoinTable::Reset(size_t width, bool encodable, size_t expected_rows) {
  index_.Reset(width, encodable, expected_rows);
  ids_.clear();
  ids_.reserve(expected_rows);
  rows_.clear();
  rows_.reserve(expected_rows);
  offsets_.clear();
}

void JoinTable::Add(const Row& key, uint32_t row) {
  bool inserted = false;
  ids_.push_back(index_.Insert(key, &inserted));
  rows_.push_back(row);
}

void JoinTable::AddWords(const uint64_t* words, uint32_t row) {
  bool inserted = false;
  ids_.push_back(index_.InsertWords(words, &inserted));
  rows_.push_back(row);
}

void JoinTable::Seal() {
  const size_t keys = index_.size();
  offsets_.assign(keys + 1, 0);
  if (keys == rows_.size()) {
    // Every key unique: Add order already is key order.
    for (size_t id = 0; id <= keys; ++id) {
      offsets_[id] = static_cast<uint32_t>(id);
    }
  } else {
    // Counting sort by key id; a stable scatter keeps Add order per key.
    for (uint32_t id : ids_) ++offsets_[id + 1];
    for (size_t id = 1; id <= keys; ++id) offsets_[id] += offsets_[id - 1];
    std::vector<uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
    std::vector<uint32_t> grouped(rows_.size());
    for (size_t k = 0; k < ids_.size(); ++k) {
      grouped[cursor[ids_[k]]++] = rows_[k];
    }
    rows_ = std::move(grouped);
  }
  ids_.clear();
  ids_.shrink_to_fit();
}

std::span<const uint32_t> JoinTable::RowsOf(uint32_t id) const {
  if (id == KeyIndex::kAbsent) return {};
  return std::span<const uint32_t>(rows_.data() + offsets_[id],
                                   offsets_[id + 1] - offsets_[id]);
}

std::span<const uint32_t> JoinTable::Find(const Row& key) const {
  return RowsOf(index_.Find(key));
}

std::span<const uint32_t> JoinTable::FindWords(const uint64_t* words) const {
  return RowsOf(index_.FindWords(words));
}

// ---------------------------------------------------------------------------
// KeyWords
// ---------------------------------------------------------------------------

void KeyWords::Encode(const std::vector<const ColumnVector*>& columns,
                      std::span<const uint32_t> rows, bool encodable) {
  width = columns.size();
  const size_t n = rows.size();
  const size_t stride = 2 * width;
  words.resize(n * stride);
  state.assign(n, encodable ? kWords : kFallback);
  has_null.assign(n, 0);
  for (size_t c = 0; c < width; ++c) {
    const ColumnVector& col = *columns[c];
    const bool nullable = col.nulls().AnyNull();
    uint64_t* out = words.data() + 2 * c;
    if (nullable) {
      for (size_t k = 0; k < n; ++k) {
        if (col.IsNull(rows[k])) has_null[k] = 1;
      }
    }
    if (!encodable) continue;
    // Typed loops per encoding; a NULL slot gets the NULL tag, like
    // EncodeValue(Value::Null()).
    auto put = [&](size_t k, uint64_t tag, uint64_t payload) {
      if (nullable && has_null[k] && col.IsNull(rows[k])) {
        tag = kTagNull;
        payload = 0;
      }
      out[k * stride] = tag;
      out[k * stride + 1] = payload;
    };
    switch (col.encoding()) {
      case ColumnEncoding::kInt64: {
        const std::vector<int64_t>& ints = col.ints();
        uint64_t tag = kTagInteger;
        if (col.declared_type() == DataType::kDate) tag = kTagDate;
        if (col.declared_type() == DataType::kBoolean) tag = kTagBoolean;
        for (size_t k = 0; k < n; ++k) {
          const int64_t v = ints[rows[k]];
          put(k, tag,
              tag == kTagBoolean ? (v != 0 ? 1 : 0) : static_cast<uint64_t>(v));
        }
        break;
      }
      case ColumnEncoding::kDouble:
      case ColumnEncoding::kGeneric:
        for (size_t k = 0; k < n; ++k) {
          if (state[k] != kWords) continue;
          uint64_t tag = 0;
          uint64_t payload = 0;
          if (EncodeValue(col.GetValue(rows[k]), &tag, &payload)) {
            out[k * stride] = tag;
            out[k * stride + 1] = payload;
          } else {
            state[k] = kFallback;
          }
        }
        break;
      case ColumnEncoding::kDict:
        // Strings have no canonical form; NULL slots still do, but one
        // non-NULL string decides the row's path.
        for (size_t k = 0; k < n; ++k) {
          if (col.IsNull(rows[k])) {
            out[k * stride] = kTagNull;
            out[k * stride + 1] = 0;
          } else {
            state[k] = kFallback;
          }
        }
        break;
    }
  }
}

Row KeyRow(const std::vector<const ColumnVector*>& columns, uint32_t row) {
  Row key;
  key.reserve(columns.size());
  for (const ColumnVector* col : columns) key.push_back(col->GetValue(row));
  return key;
}

}  // namespace minerule::sql
