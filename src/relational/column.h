#ifndef MINERULE_RELATIONAL_COLUMN_H_
#define MINERULE_RELATIONAL_COLUMN_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "relational/schema.h"

namespace minerule {

/// Validity bitmap over a column: one bit per row, 1 = NULL. Packed into
/// 64-bit words, so any 1024-row morsel covers exactly 16 whole words and
/// batch kernels never straddle a partially-owned word.
class NullBitmap {
 public:
  /// Sizes the bitmap to `n` all-valid rows.
  void Reset(size_t n) {
    size_ = n;
    words_.assign((n + 63) / 64, 0);
  }

  void SetNull(size_t i) {
    words_[i >> 6] |= uint64_t{1} << (i & 63);
    ++null_count_;
  }

  bool IsNull(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  size_t size() const { return size_; }
  size_t null_count() const { return null_count_; }
  bool AnyNull() const { return null_count_ > 0; }

  int64_t ByteSize() const {
    return static_cast<int64_t>(words_.size() * sizeof(uint64_t));
  }

 private:
  std::vector<uint64_t> words_;
  size_t size_ = 0;
  size_t null_count_ = 0;
};

/// Physical layout of one column vector.
enum class ColumnEncoding {
  kInt64,    // INTEGER / DATE / BOOLEAN payloads as int64
  kDouble,   // DOUBLE payloads
  kDict,     // STRING payloads as uint16 codes into a dictionary
  kGeneric,  // Value fallback: type-impure columns, dictionary overflow
};

const char* ColumnEncodingName(ColumnEncoding encoding);

/// One typed column of a ColumnarTable. Encoding is chosen from the declared
/// column type, with a lossless fallback to kGeneric whenever the stored
/// values do not all match the declared type (possible via AppendUnchecked)
/// or a string dictionary would overflow 2^16 distinct entries. GetValue()
/// reconstructs the original Value bit-for-bit in every encoding, which is
/// what lets the vectorized executor guarantee byte-identical results.
class ColumnVector {
 public:
  /// Encodes column `col` of `rows` under declared type `declared`.
  static ColumnVector Encode(DataType declared, const std::vector<Row>& rows,
                             size_t col);
  /// Encodes column `col` of rows[begin, end).
  static ColumnVector EncodeRange(DataType declared,
                                  const std::vector<Row>& rows, size_t col,
                                  size_t begin, size_t end);
  /// Encodes `values` under declared type `declared`.
  static ColumnVector FromValues(DataType declared,
                                 const std::vector<Value>& values);

  /// Rows of one column, in the order they are to be gathered.
  struct Slice {
    const ColumnVector* column = nullptr;
    std::span<const uint32_t> rows;
  };
  /// The rows of `column` listed in `rows`, in that order: a typed copy
  /// that keeps the encoding and shares the dictionary.
  static ColumnVector Gather(const ColumnVector& column,
                             std::span<const uint32_t> rows);
  /// The slices' rows concatenated in order. A typed copy when every slice
  /// has the same encoding, declared type and dictionary; otherwise the
  /// values are encoded afresh under `declared`.
  static ColumnVector Gather(DataType declared, std::span<const Slice> slices);

  ColumnEncoding encoding() const { return encoding_; }
  DataType declared_type() const { return declared_; }
  size_t size() const { return nulls_.size(); }

  bool IsNull(size_t i) const { return nulls_.IsNull(i); }
  const NullBitmap& nulls() const { return nulls_; }

  /// Reconstructs row i's original Value (NULL included).
  Value GetValue(size_t i) const;

  /// Typed payloads; NULL slots hold a zero placeholder. Only valid for the
  /// matching encoding.
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<uint16_t>& codes() const { return codes_; }
  const std::vector<std::string>& dictionary() const;

  int64_t ByteSize() const;

 private:
  template <typename ValueAt>
  static ColumnVector EncodeValues(DataType declared, size_t n,
                                   ValueAt value_at);

  ColumnEncoding encoding_ = ColumnEncoding::kGeneric;
  DataType declared_ = DataType::kNull;
  NullBitmap nulls_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<uint16_t> codes_;
  /// Shared by the columns gathered from this one.
  std::shared_ptr<const std::vector<std::string>> dict_;
  std::vector<Value> generic_;
};

/// An immutable columnar image of a table: per-column typed vectors plus
/// null bitmaps, shared by every scan of the same table version.
struct ColumnarTable {
  Schema schema;
  size_t num_rows = 0;
  std::vector<ColumnVector> columns;

  /// Builds the columnar image of `rows` under `schema`.
  static std::shared_ptr<const ColumnarTable> FromRows(
      const Schema& schema, const std::vector<Row>& rows);

  /// Appends the rows, in order, as Rows of GetValue()s.
  void AppendRows(std::vector<Row>* out) const;

  int64_t ByteSize() const;
};

}  // namespace minerule

#endif  // MINERULE_RELATIONAL_COLUMN_H_
