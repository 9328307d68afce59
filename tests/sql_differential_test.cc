// Differential tests of the SQL executor on randomized data: the same
// logical query computed through different physical paths (hash join vs
// nested loop, engine aggregation vs hand-rolled aggregation) must agree.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "sql/engine.h"

namespace minerule::sql {
namespace {

class SqlDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  SqlDifferentialTest() : engine_(&catalog_) {}

  void GenerateTables(uint64_t seed) {
    Random rng(seed);
    auto left = catalog_.CreateTable(
        "L", Schema({{"k", DataType::kInteger}, {"v", DataType::kInteger}}));
    auto right = catalog_.CreateTable(
        "R", Schema({{"k", DataType::kInteger}, {"w", DataType::kInteger}}));
    ASSERT_TRUE(left.ok());
    ASSERT_TRUE(right.ok());
    const int64_t key_space = 12;
    for (int i = 0; i < 80; ++i) {
      // ~10% NULL keys to exercise null-join semantics.
      Value key = rng.NextBool(0.1)
                      ? Value::Null()
                      : Value::Integer(rng.NextInt(0, key_space));
      left.value()->AppendUnchecked({key, Value::Integer(rng.NextInt(0, 99))});
    }
    for (int i = 0; i < 60; ++i) {
      Value key = rng.NextBool(0.1)
                      ? Value::Null()
                      : Value::Integer(rng.NextInt(0, key_space));
      right.value()->AppendUnchecked(
          {key, Value::Integer(rng.NextInt(0, 99))});
    }
  }

  std::multiset<std::string> Rows(const std::string& sql) {
    auto result = engine_.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    std::multiset<std::string> out;
    if (!result.ok()) return out;
    for (const Row& row : result.value().rows) {
      std::string key;
      for (const Value& v : row) {
        key += v.ToString();
        key += '|';
      }
      out.insert(std::move(key));
    }
    return out;
  }

  Catalog catalog_;
  SqlEngine engine_;
};

TEST_P(SqlDifferentialTest, HashJoinEqualsNestedLoopJoin) {
  GenerateTables(GetParam());
  // `L.k = R.k` plans as a hash join; `NOT (L.k <> R.k)` cannot be used as
  // an equi-key so it plans as a nested loop with a residual filter. Both
  // have identical SQL semantics (NULL keys never match either way).
  auto hash = Rows("SELECT L.v, R.w FROM L, R WHERE L.k = R.k");
  auto nested = Rows("SELECT L.v, R.w FROM L, R WHERE NOT (L.k <> R.k)");
  EXPECT_EQ(hash, nested);
  EXPECT_FALSE(hash.empty());
}

TEST_P(SqlDifferentialTest, JoinOrderIrrelevant) {
  GenerateTables(GetParam());
  auto ab = Rows("SELECT L.v, R.w FROM L, R WHERE L.k = R.k");
  auto ba = Rows("SELECT L.v, R.w FROM R, L WHERE L.k = R.k");
  EXPECT_EQ(ab, ba);
}

TEST_P(SqlDifferentialTest, GroupByMatchesHandComputedAggregates) {
  GenerateTables(GetParam());
  auto result = engine_.Execute(
      "SELECT k, COUNT(*), SUM(v), MIN(v), MAX(v) FROM L WHERE k IS NOT "
      "NULL GROUP BY k");
  ASSERT_TRUE(result.ok()) << result.status();

  // Hand computation straight off the table.
  std::map<int64_t, std::tuple<int64_t, int64_t, int64_t, int64_t>> expected;
  auto table = catalog_.GetTable("L");
  ASSERT_TRUE(table.ok());
  for (const Row& row : table.value()->rows()) {
    if (row[0].is_null()) continue;
    auto& [count, sum, min, max] = expected[row[0].AsInteger()];
    const int64_t v = row[1].AsInteger();
    if (count == 0) {
      min = max = v;
    } else {
      min = std::min(min, v);
      max = std::max(max, v);
    }
    ++count;
    sum += v;
  }
  ASSERT_EQ(result.value().rows.size(), expected.size());
  for (const Row& row : result.value().rows) {
    const auto& [count, sum, min, max] = expected.at(row[0].AsInteger());
    EXPECT_EQ(row[1].AsInteger(), count);
    EXPECT_EQ(row[2].AsInteger(), sum);
    EXPECT_EQ(row[3].AsInteger(), min);
    EXPECT_EQ(row[4].AsInteger(), max);
  }
}

TEST_P(SqlDifferentialTest, DistinctMatchesGroupBy) {
  GenerateTables(GetParam());
  auto distinct = Rows("SELECT DISTINCT k, v FROM L");
  auto grouped = Rows("SELECT k, v FROM L GROUP BY k, v");
  EXPECT_EQ(distinct, grouped);
}

TEST_P(SqlDifferentialTest, SubqueryEqualsInline) {
  GenerateTables(GetParam());
  auto inline_where = Rows("SELECT v FROM L WHERE v > 50");
  auto via_subquery =
      Rows("SELECT v FROM (SELECT v FROM L) AS sub WHERE v > 50");
  auto via_view = [&] {
    (void)engine_.Execute("DROP VIEW IF EXISTS lv");
    auto create = engine_.Execute("CREATE VIEW lv AS SELECT v FROM L");
    EXPECT_TRUE(create.ok());
    return Rows("SELECT v FROM lv WHERE v > 50");
  }();
  EXPECT_EQ(inline_where, via_subquery);
  EXPECT_EQ(inline_where, via_view);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlDifferentialTest,
                         ::testing::Values(1u, 2u, 3u, 42u, 314159u));

class MixedKeyJoinTest : public ::testing::Test {
 protected:
  MixedKeyJoinTest() : engine_(&catalog_) {}

  std::multiset<std::string> Rows(const std::string& sql) {
    auto result = engine_.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    std::multiset<std::string> out;
    if (!result.ok()) return out;
    for (const Row& row : result.value().rows) {
      std::string key;
      for (const Value& v : row) {
        key += v.ToString();
        key += '|';
      }
      out.insert(std::move(key));
    }
    return out;
  }

  Catalog catalog_;
  SqlEngine engine_;
};

// The hash join (Value::Hash + TotalEquals on the key tuple) and the nested
// loop (SqlCompare through the expression evaluator) must agree on
// INTEGER-vs-DOUBLE keys, including values where a double round trip loses
// precision: 2^53 and 2^53 + 1 both cast to the same double, so a rounding
// comparison would merge them while the exact comparison keeps them apart.
TEST_F(MixedKeyJoinTest, HashJoinEqualsNestedLoopOnMixedNumericKeys) {
  auto li = catalog_.CreateTable(
      "LI", Schema({{"k", DataType::kInteger}, {"v", DataType::kInteger}}));
  auto rd = catalog_.CreateTable(
      "RD", Schema({{"k", DataType::kDouble}, {"w", DataType::kInteger}}));
  ASSERT_TRUE(li.ok());
  ASSERT_TRUE(rd.ok());

  const int64_t two53 = int64_t{1} << 53;  // 9007199254740992
  int v = 0;
  for (int64_t k : {int64_t{0}, int64_t{1}, int64_t{-7}, two53, two53 + 1,
                    two53 - 1, int64_t{1} << 62}) {
    li.value()->AppendUnchecked({Value::Integer(k), Value::Integer(v++)});
  }
  int w = 100;
  for (double k : {0.0, 1.0, 1.5, -7.0, static_cast<double>(two53),
                   9.0e18, 0.25}) {
    rd.value()->AppendUnchecked({Value::Double(k), Value::Integer(w++)});
  }

  auto hash = Rows("SELECT LI.v, RD.w FROM LI, RD WHERE LI.k = RD.k");
  auto nested = Rows("SELECT LI.v, RD.w FROM LI, RD WHERE NOT (LI.k <> RD.k)");
  EXPECT_EQ(hash, nested);
  EXPECT_FALSE(hash.empty());

  // 2^53 as a DOUBLE matches only INTEGER 2^53, not 2^53 + 1 (which rounds
  // to the same double but is a different number).
  auto exact = Rows(
      "SELECT LI.v FROM LI, RD WHERE LI.k = RD.k AND RD.w = 104");
  ASSERT_EQ(exact.size(), 1u);
  EXPECT_EQ(*exact.begin(), "3|");  // v of the 2^53 row
}

TEST_F(MixedKeyJoinTest, RandomizedMixedKeys) {
  auto li = catalog_.CreateTable(
      "LI", Schema({{"k", DataType::kInteger}, {"v", DataType::kInteger}}));
  auto rd = catalog_.CreateTable(
      "RD", Schema({{"k", DataType::kDouble}, {"w", DataType::kInteger}}));
  ASSERT_TRUE(li.ok());
  ASSERT_TRUE(rd.ok());
  Random rng(7u);
  for (int i = 0; i < 60; ++i) {
    li.value()->AppendUnchecked(
        {Value::Integer(rng.NextInt(0, 10)), Value::Integer(i)});
  }
  for (int i = 0; i < 60; ++i) {
    // Half the doubles are integral, half carry a .5 fraction.
    const double k = rng.NextInt(0, 10) + (rng.NextBool(0.5) ? 0.5 : 0.0);
    rd.value()->AppendUnchecked({Value::Double(k), Value::Integer(i)});
  }
  auto hash = Rows("SELECT LI.v, RD.w FROM LI, RD WHERE LI.k = RD.k");
  auto nested = Rows("SELECT LI.v, RD.w FROM LI, RD WHERE NOT (LI.k <> RD.k)");
  EXPECT_EQ(hash, nested);
  EXPECT_FALSE(hash.empty());
}

// DISTINCT, GROUP BY and hash join over the key classes where the hash
// operators' encoded and fallback key paths meet (sql/key_index.h): a DOUBLE
// column mixing integral, non-integral, NaN (both signs), -0.0 and NULL
// values; DATE keys; and two-column INTEGER keys. Each result, including its
// row order, must equal a reference computed straight from the rows: first-
// seen order for DISTINCT and GROUP BY, left-major nested-loop order for the
// join. Runs at threads {1, 2, 8}, with and without a 1 KiB memory budget,
// and with L and R analyzed first or not. Analyzed, the planner plans the
// queries from statistics (DESIGN.md §14); unbudgeted, both scan columnar,
// and a budget keeps the row scan/filter, so every planner and executor
// combination is pinned to the reference.
class KeyClassSqlDifferentialTest
    : public ::testing::TestWithParam<std::tuple<int, int64_t, bool>> {
 protected:
  static constexpr int kLeftRows = 2500;  // three morsels
  static constexpr int kRightRows = 400;

  KeyClassSqlDifferentialTest() : engine_(&catalog_) {
    const auto& [threads, budget, analyze] = GetParam();
    engine_.set_num_threads(threads);
    engine_.set_memory_limit(budget);
    analyze_ = analyze;
  }

  /// Creates L(<key columns>, v) and R(<key columns>, w) with `draw`
  /// producing each row's key values; v and w are the row indexes.
  template <typename Draw>
  void MakeTables(const std::vector<Column>& key_columns, Draw draw) {
    Random rng(17u);
    for (const char* name : {"L", "R"}) {
      std::vector<Column> columns = key_columns;
      columns.emplace_back(name[0] == 'L' ? "v" : "w", DataType::kInteger);
      auto table = catalog_.CreateTable(name, Schema(columns));
      ASSERT_TRUE(table.ok()) << table.status();
      const int rows = name[0] == 'L' ? kLeftRows : kRightRows;
      for (int i = 0; i < rows; ++i) {
        Row row = draw(&rng);
        row.push_back(Value::Integer(i));
        table.value()->AppendUnchecked(std::move(row));
      }
    }
    if (analyze_) {
      Query("ANALYZE L");
      Query("ANALYZE R");
    }
  }

  std::vector<Row> Query(const std::string& sql) {
    auto result = engine_.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    return result.ok() ? result.value().rows : std::vector<Row>{};
  }

  const std::vector<Row>& TableRows(const std::string& name) {
    return catalog_.GetTable(name).value()->rows();
  }

  /// Exact rendering: type, text and the sign of a double (-0.0, -NaN).
  static std::string Render(const std::vector<Row>& rows) {
    std::string out;
    for (const Row& row : rows) {
      for (const Value& v : row) {
        out += DataTypeName(v.type());
        out += ':';
        out += v.ToString();
        if (v.type() == DataType::kDouble && std::signbit(v.AsDouble())) {
          out += "(neg)";
        }
        out += ' ';
      }
      out += '\n';
    }
    return out;
  }

  /// Checks DISTINCT, GROUP BY (merge-exact and SUM aggregates) and the
  /// hash join on the first `width` columns against the references.
  void CheckAll(size_t width, const std::string& keys,
                const std::string& join_condition) {
    const std::vector<Row>& left = TableRows("L");
    const std::vector<Row>& right = TableRows("R");
    auto key_of = [&](const Row& row) {
      return Row(row.begin(), row.begin() + static_cast<long>(width));
    };

    // Key classes in first-seen order, with per-class aggregates over v.
    struct Group {
      Row key;
      int64_t count = 0;
      int64_t sum = 0;
      int64_t min = 0;
      int64_t max = 0;
    };
    std::vector<Group> groups;
    for (const Row& row : left) {
      const Row key = key_of(row);
      const int64_t v = row[width].AsInteger();
      auto it = std::find_if(groups.begin(), groups.end(), [&](const Group& g) {
        return RowEq{}(g.key, key);
      });
      if (it == groups.end()) {
        groups.push_back({key, 0, 0, v, v});
        it = groups.end() - 1;
      }
      ++it->count;
      it->sum += v;
      it->min = std::min(it->min, v);
      it->max = std::max(it->max, v);
    }

    std::vector<Row> distinct;
    std::vector<Row> grouped;
    std::vector<Row> summed;
    for (const Group& g : groups) {
      distinct.push_back(g.key);
      Row row = g.key;
      row.push_back(Value::Integer(g.count));
      Row sum_row = row;
      row.push_back(Value::Integer(g.min));
      row.push_back(Value::Integer(g.max));
      grouped.push_back(std::move(row));
      sum_row.push_back(Value::Integer(g.sum));
      summed.push_back(std::move(sum_row));
    }
    EXPECT_EQ(Render(Query("SELECT DISTINCT " + keys + " FROM L")),
              Render(distinct));
    EXPECT_EQ(Render(Query("SELECT " + keys +
                           ", COUNT(*), MIN(v), MAX(v) FROM L GROUP BY " +
                           keys)),
              Render(grouped));
    EXPECT_EQ(Render(Query("SELECT " + keys +
                           ", COUNT(*), SUM(v) FROM L GROUP BY " + keys)),
              Render(summed));

    // Nested-loop reference: left-major, right rows in table order; SQL
    // equality on every key column, NULL never matching.
    std::vector<Row> joined;
    for (const Row& l : left) {
      for (const Row& r : right) {
        bool match = true;
        for (size_t c = 0; c < width && match; ++c) {
          if (l[c].is_null() || r[c].is_null()) {
            match = false;
          } else {
            Result<bool> eq = l[c].SqlEquals(r[c]);
            match = eq.ok() && *eq;
          }
        }
        if (match) joined.push_back({l[width], r[width]});
      }
    }
    ASSERT_FALSE(joined.empty());
    EXPECT_EQ(Render(Query("SELECT L.v, R.w FROM L, R WHERE " +
                           join_condition)),
              Render(joined));
  }

  Catalog catalog_;
  SqlEngine engine_;
  bool analyze_ = false;
};

TEST_P(KeyClassSqlDifferentialTest, MixedDoubleKeys) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Value> pool = {
      Value::Double(0.0),  Value::Double(-0.0), Value::Double(1.0),
      Value::Double(1.5),  Value::Double(2.0),  Value::Double(-3.0),
      Value::Double(2.5),  Value::Double(nan),  Value::Double(-nan),
      Value::Null(),       Value::Double(1e19),
      Value::Double(9007199254740992.0)};
  MakeTables({{"k", DataType::kDouble}}, [&](Random* rng) {
    return Row{pool[rng->NextBounded(pool.size())]};
  });
  CheckAll(1, "k", "L.k = R.k");
}

TEST_P(KeyClassSqlDifferentialTest, DateKeys) {
  MakeTables({{"k", DataType::kDate}}, [&](Random* rng) {
    return Row{rng->NextBool(0.05)
                   ? Value::Null()
                   : Value::Date(static_cast<int32_t>(rng->NextInt(0, 40)))};
  });
  CheckAll(1, "k", "L.k = R.k");
}

TEST_P(KeyClassSqlDifferentialTest, MultiColumnIntKeys) {
  MakeTables({{"a", DataType::kInteger}, {"b", DataType::kInteger}},
             [&](Random* rng) {
               auto draw = [&](int64_t hi) {
                 return rng->NextBool(0.05) ? Value::Null()
                                            : Value::Integer(rng->NextInt(
                                                  -hi, hi));
               };
               return Row{draw(6), draw(9)};
             });
  CheckAll(2, "a, b", "L.a = R.a AND L.b = R.b");
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsBudgetsExecutors, KeyClassSqlDifferentialTest,
    ::testing::Combine(::testing::Values(1, 2, 8),
                       ::testing::Values(int64_t{-1}, int64_t{1024}),
                       ::testing::Bool()));

}  // namespace
}  // namespace minerule::sql
