// Unit tests of sql::KeyIndex and sql::JoinTable: key ids must follow RowEq
// exactly (the equivalence DISTINCT, GROUP BY and hash join have always
// used), be dense in first-seen order across the encoded and fallback
// paths, and survive growth past the presize hint.

#include "sql/key_index.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

namespace minerule::sql {
namespace {

/// Values whose pairwise RowEq relation the matrix test checks: every
/// numeric corner of the INTEGER/DOUBLE class, and each tag next to an
/// INTEGER with the same payload.
std::vector<Value> MatrixValues() {
  const int64_t two53 = int64_t{1} << 53;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  return {
      Value::Integer(2),
      Value::Double(2.0),
      Value::Double(-0.0),
      Value::Integer(0),
      Value::Double(0.0),
      Value::Double(nan),
      Value::Double(-nan),
      Value::Integer(two53 + 1),
      Value::Double(static_cast<double>(two53)),
      Value::Integer(two53),
      Value::Date(2),
      Value::Date(1),
      Value::Boolean(true),
      Value::Boolean(false),
      Value::Integer(1),
      Value::Null(),
      Value::Null(),
      Value::String("2"),
      Value::String(""),
      Value::Double(2.5),
      Value::Double(-2.5),
      Value::Double(1e19),
      Value::Double(std::numeric_limits<double>::infinity()),
      Value::Double(-9223372036854775808.0),
      Value::Integer(std::numeric_limits<int64_t>::min()),
      Value::Integer(std::numeric_limits<int64_t>::max()),
  };
}

std::string Show(const Row& row) {
  std::string out;
  for (const Value& v : row) {
    out += std::string(DataTypeName(v.type())) + ":" + v.ToString() + " ";
  }
  return out;
}

/// Inserts every key, then checks that two keys share an id iff RowEq holds
/// and that Find returns the inserted id.
void ExpectIdsFollowRowEq(const std::vector<Row>& keys, bool encodable) {
  ASSERT_FALSE(keys.empty());
  KeyIndex index;
  index.Reset(keys[0].size(), encodable, keys.size());
  std::vector<uint32_t> ids;
  for (const Row& key : keys) {
    bool inserted = false;
    ids.push_back(index.Insert(key, &inserted));
  }
  for (size_t a = 0; a < keys.size(); ++a) {
    EXPECT_EQ(index.Find(keys[a]), ids[a]) << Show(keys[a]);
    for (size_t b = 0; b < keys.size(); ++b) {
      EXPECT_EQ(ids[a] == ids[b], RowEq{}(keys[a], keys[b]))
          << Show(keys[a]) << "vs " << Show(keys[b]);
    }
  }
}

TEST(KeyIndexTest, PairwiseMatrixAgreesWithRowEq) {
  std::vector<Row> keys;
  for (const Value& v : MatrixValues()) keys.push_back({v});
  ExpectIdsFollowRowEq(keys, /*encodable=*/true);
  ExpectIdsFollowRowEq(keys, /*encodable=*/false);
}

TEST(KeyIndexTest, TwoColumnMatrixAgreesWithRowEq) {
  const std::vector<Value> values = MatrixValues();
  std::vector<Row> keys;
  for (const Value& a : values) {
    for (const Value& b : values) keys.push_back({a, b});
  }
  ExpectIdsFollowRowEq(keys, /*encodable=*/true);
}

TEST(KeyIndexTest, NamedEquivalences) {
  const int64_t two53 = int64_t{1} << 53;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  KeyIndex index;
  index.Reset(1, /*encodable=*/true, 0);
  auto id = [&](const Value& v) {
    bool inserted = false;
    return index.Insert({v}, &inserted);
  };
  EXPECT_EQ(id(Value::Integer(2)), id(Value::Double(2.0)));
  EXPECT_EQ(id(Value::Double(-0.0)), id(Value::Integer(0)));
  EXPECT_EQ(id(Value::Double(nan)), id(Value::Double(nan)));
  EXPECT_NE(id(Value::Integer(two53 + 1)),
            id(Value::Double(static_cast<double>(two53))));
  EXPECT_NE(id(Value::Date(7)), id(Value::Integer(7)));
  EXPECT_NE(id(Value::Boolean(true)), id(Value::Integer(1)));
  EXPECT_EQ(id(Value::Null()), id(Value::Null()));
  EXPECT_NE(id(Value::Null()), id(Value::Integer(0)));
}

TEST(KeyIndexTest, FirstSeenIdsAcrossEncodedAndFallbackKeys) {
  KeyIndex index;
  index.Reset(2, /*encodable=*/true, 8);
  const std::vector<Row> keys = {
      {Value::Integer(1), Value::Integer(10)},     // encoded, id 0
      {Value::String("a"), Value::Integer(10)},    // fallback, id 1
      {Value::Double(2.5), Value::Null()},         // fallback, id 2
      {Value::Integer(2), Value::Date(3)},         // encoded, id 3
      {Value::Double(1.0), Value::Integer(10)},    // = id 0
      {Value::String("a"), Value::Double(10.0)},   // = id 1
      {Value::Null(), Value::Boolean(false)},      // encoded, id 4
      {Value::Double(2.5), Value::Null()},         // = id 2
      {Value::Integer(2), Value::Integer(3)},      // encoded, id 5 (not DATE)
  };
  const std::vector<uint32_t> want_ids = {0, 1, 2, 3, 0, 1, 4, 2, 5};
  const std::vector<bool> want_new = {true,  true, true,  true, false,
                                      false, true, false, true};
  for (size_t i = 0; i < keys.size(); ++i) {
    bool inserted = false;
    EXPECT_EQ(index.Insert(keys[i], &inserted), want_ids[i]) << i;
    EXPECT_EQ(inserted, want_new[i]) << i;
  }
  EXPECT_EQ(index.size(), 6u);
  EXPECT_EQ(index.encoded_keys(), 4);
  EXPECT_EQ(index.generic_keys(), 2);
  EXPECT_EQ(index.Find({Value::String("b"), Value::Integer(10)}),
            KeyIndex::kAbsent);
  EXPECT_EQ(index.Find({Value::Integer(9), Value::Integer(9)}),
            KeyIndex::kAbsent);
}

TEST(KeyIndexTest, NonEncodableIndexKeepsEveryKeyOnTheFallback) {
  KeyIndex index;
  index.Reset(1, /*encodable=*/false, 4);
  bool inserted = false;
  EXPECT_EQ(index.Insert({Value::Integer(5)}, &inserted), 0u);
  EXPECT_EQ(index.Insert({Value::String("x")}, &inserted), 1u);
  EXPECT_EQ(index.Insert({Value::Double(5.0)}, &inserted), 0u);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(index.encoded_keys(), 0);
  EXPECT_EQ(index.generic_keys(), 2);
}

TEST(KeyIndexTest, GrowsPastThePresizeHint) {
  KeyIndex index;
  index.Reset(2, /*encodable=*/true, /*expected=*/4);
  const int64_t n = 20000;
  for (int64_t i = 0; i < n; ++i) {
    bool inserted = false;
    ASSERT_EQ(index.Insert({Value::Integer(i % 500), Value::Integer(i)},
                           &inserted),
              static_cast<uint32_t>(i));
    ASSERT_TRUE(inserted);
  }
  EXPECT_EQ(index.size(), static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    bool inserted = true;
    ASSERT_EQ(index.Insert({Value::Double(static_cast<double>(i % 500)),
                            Value::Integer(i)},
                           &inserted),
              static_cast<uint32_t>(i));
    ASSERT_FALSE(inserted);
  }
  EXPECT_EQ(index.encoded_keys(), n);
  EXPECT_GT(index.ByteSize(), 0);
}

TEST(KeyIndexTest, WideKeysEncode) {
  // Wider than the on-stack encoding scratch.
  KeyIndex index;
  index.Reset(12, /*encodable=*/true, 0);
  Row a(12, Value::Integer(1));
  Row b = a;
  b[11] = Value::Double(1.0);
  Row c = a;
  c[11] = Value::Integer(2);
  bool inserted = false;
  EXPECT_EQ(index.Insert(a, &inserted), 0u);
  EXPECT_EQ(index.Insert(b, &inserted), 0u);
  EXPECT_EQ(index.Insert(c, &inserted), 1u);
  EXPECT_EQ(index.encoded_keys(), 2);
}

TEST(KeyIndexTest, ZeroWidthKeysShareOneId) {
  // A global aggregate groups every row under the empty key.
  KeyIndex index;
  index.Reset(0, /*encodable=*/true, 1);
  bool inserted = false;
  EXPECT_EQ(index.Insert(Row{}, &inserted), 0u);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(index.Insert(Row{}, &inserted), 0u);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(index.Find(Row{}), 0u);
  EXPECT_EQ(index.size(), 1u);
}

TEST(KeyIndexJoinTableTest, BucketsKeepAddOrder) {
  JoinTable table;
  table.Reset(1, /*encodable=*/true, 6);
  table.Add({Value::Integer(7)}, 0);
  table.Add({Value::String("s")}, 1);
  table.Add({Value::Integer(3)}, 2);
  table.Add({Value::Double(7.0)}, 3);
  table.Add({Value::String("s")}, 4);
  table.Add({Value::Integer(7)}, 5);
  table.Seal();
  auto list = [&](const Value& v) {
    std::span<const uint32_t> bucket = table.Find({v});
    return std::vector<uint32_t>(bucket.begin(), bucket.end());
  };
  EXPECT_EQ(list(Value::Integer(7)), (std::vector<uint32_t>{0, 3, 5}));
  EXPECT_EQ(list(Value::String("s")), (std::vector<uint32_t>{1, 4}));
  EXPECT_EQ(list(Value::Integer(3)), (std::vector<uint32_t>{2}));
  EXPECT_TRUE(list(Value::Integer(4)).empty());
  EXPECT_EQ(table.buckets(), 3u);
  EXPECT_EQ(table.rows(), (std::vector<uint32_t>{0, 3, 5, 1, 4, 2}));
}

TEST(KeyIndexJoinTableTest, UniqueKeys) {
  JoinTable table;
  table.Reset(1, /*encodable=*/true, 3);
  for (uint32_t i = 0; i < 3; ++i) {
    table.Add({Value::Integer(10 * i)}, i);
  }
  table.Seal();
  for (uint32_t i = 0; i < 3; ++i) {
    std::span<const uint32_t> bucket =
        table.Find({Value::Integer(10 * i)});
    ASSERT_EQ(bucket.size(), 1u);
    EXPECT_EQ(bucket[0], i);
  }
}

}  // namespace
}  // namespace minerule::sql
