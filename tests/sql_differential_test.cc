// Differential tests of the SQL executor on randomized data: the same
// logical query computed through different physical paths (hash join vs
// nested loop, engine aggregation vs hand-rolled aggregation) must agree.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "relational/date.h"
#include "sql/engine.h"

namespace minerule::sql {
namespace {

/// Exact rendering: type, text and the sign of a double (-0.0, -NaN).
std::string Render(const std::vector<Row>& rows) {
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
// queries from statistics (DESIGN.md §14); unbudgeted, both run batches
// over the scans' columnar images, and a budget keeps the images unbuilt
// and a serial plan on rows, so every planner and executor combination is
// pinned to the reference.
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

// Conjunct placement (DESIGN.md §14): single-input conjuncts filter their
// input below the join, and conjuncts spanning inputs are each join's
// residual, checked on the borrowed row pair before it is concatenated.
// Three random tables with NULLs in INTEGER, DOUBLE, VARCHAR and DATE
// columns; local predicates on the 2nd and 3rd FROM entries and `<`/`<>`
// residuals across inputs, over base tables and over a view plus a
// subquery. Every run — threads {1, 2, 8} x budget {none, 0} x {FROM-order
// plan, plan from statistics} — must return the same rows in the same
// order, equal to a nested-loop reference computed here.
class ConjunctPlacementDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {
 protected:
  static constexpr int kARows = 60;
  static constexpr int kBRows = 1500;
  static constexpr int kCRows = 40;

  ConjunctPlacementDifferentialTest()
      : plain_(&catalog_), analyzed_(&catalog_) {}

  void GenerateTables() {
    Random rng(GetParam());
    auto maybe = [&](Value v) {
      return rng.NextBool(0.1) ? Value::Null() : v;
    };
    auto text = [&] {
      return Value::String(
          std::string(1, static_cast<char>('a' + rng.NextInt(0, 5))));
    };
    auto a = catalog_.CreateTable("A", Schema({{"k", DataType::kInteger},
                                               {"v", DataType::kInteger},
                                               {"s", DataType::kString}}));
    auto b = catalog_.CreateTable("B", Schema({{"k", DataType::kInteger},
                                               {"j", DataType::kInteger},
                                               {"w", DataType::kDouble},
                                               {"x", DataType::kInteger}}));
    auto c = catalog_.CreateTable("C", Schema({{"j", DataType::kInteger},
                                               {"d", DataType::kDate},
                                               {"s", DataType::kString},
                                               {"y", DataType::kDouble}}));
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    for (int i = 0; i < kARows; ++i) {
      a.value()->AppendUnchecked({maybe(Value::Integer(rng.NextInt(0, 14))),
                                  maybe(Value::Integer(rng.NextInt(0, 99))),
                                  maybe(text())});
    }
    for (int i = 0; i < kBRows; ++i) {
      b.value()->AppendUnchecked({maybe(Value::Integer(rng.NextInt(0, 14))),
                                  maybe(Value::Integer(rng.NextInt(0, 9))),
                                  maybe(Value::Double(rng.NextDouble() * 100)),
                                  maybe(Value::Integer(rng.NextInt(0, 9)))});
    }
    const int32_t jan1 = date::FromCivil(1995, 1, 1);
    for (int i = 0; i < kCRows; ++i) {
      c.value()->AppendUnchecked(
          {maybe(Value::Integer(rng.NextInt(0, 9))),
           maybe(Value::Date(jan1 + static_cast<int32_t>(rng.NextInt(0, 364)))),
           maybe(text()), maybe(Value::Double(rng.NextDouble()))});
    }
    Execute(&plain_, "CREATE VIEW BV AS SELECT k, j, w, x FROM B");
    Execute(&analyzed_, "ANALYZE");
  }

  std::vector<Row> Execute(SqlEngine* engine, const std::string& sql) {
    auto result = engine->Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    return result.ok() ? result.value().rows : std::vector<Row>{};
  }

  /// The unbudgeted EXPLAIN text of `sql`.
  std::string Explain(SqlEngine* engine, const std::string& sql) {
    engine->set_memory_limit(-1);
    std::string plan;
    for (const Row& row : Execute(engine, "EXPLAIN " + sql)) {
      plan += row[0].AsString() + "\n";
    }
    return plan;
  }

  static bool Less(const Value& a, const Value& b) {
    if (a.is_null() || b.is_null()) return false;
    Result<int> cmp = a.SqlCompare(b);
    return cmp.ok() && *cmp < 0;
  }
  static bool NotEq(const Value& a, const Value& b) {
    if (a.is_null() || b.is_null()) return false;
    Result<int> cmp = a.SqlCompare(b);
    return cmp.ok() && *cmp != 0;
  }
  static bool Eq(const Value& a, const Value& b) {
    return !a.is_null() && !b.is_null() && !NotEq(a, b);
  }

  /// The nested-loop reference of the statements below: A-major, then B
  /// and C in table order. `c_filter` is the subquery's own predicate.
  std::vector<Row> Reference(bool c_filter) {
    const std::vector<Row>& a = catalog_.GetTable("A").value()->rows();
    const std::vector<Row>& b = catalog_.GetTable("B").value()->rows();
    const std::vector<Row>& c = catalog_.GetTable("C").value()->rows();
    const Value two = Value::Integer(2);
    const Value july = Value::Date(date::FromCivil(1995, 7, 1));
    std::vector<Row> out;
    for (const Row& ra : a) {
      for (const Row& rb : b) {
        // A.k = B.k AND B.x > 2 AND A.v < B.w
        if (!Eq(ra[0], rb[0]) || !Less(two, rb[3]) || !Less(ra[1], rb[2])) {
          continue;
        }
        for (const Row& rc : c) {
          // B.j = C.j AND C.d < '1995-07-01' AND A.s <> C.s
          if (c_filter && rc[3].is_null()) continue;
          if (!Eq(rb[1], rc[0]) || !Less(rc[1], july) || !NotEq(ra[2], rc[2])) {
            continue;
          }
          out.push_back({ra[1], ra[2], rb[2], rb[3], rc[1], rc[2]});
        }
      }
    }
    return out;
  }

  /// Runs `sql` on every thread count, budget and planner; every result
  /// must equal `expected`, rows and order.
  void CheckEveryRun(const std::string& sql, const std::vector<Row>& expected) {
    const std::string want = Render(expected);
    for (SqlEngine* engine : {&plain_, &analyzed_}) {
      for (int threads : {1, 2, 8}) {
        for (int64_t budget : {int64_t{-1}, int64_t{0}}) {
          engine->set_num_threads(threads);
          engine->set_memory_limit(budget);
          EXPECT_EQ(Render(Execute(engine, sql)), want)
              << sql << "\n" << (engine == &plain_ ? "FROM order" : "analyzed")
              << ", " << threads << " threads, budget " << budget;
        }
      }
    }
  }

  Catalog catalog_;
  SqlEngine plain_;
  SqlEngine analyzed_;
};

TEST_P(ConjunctPlacementDifferentialTest, BaseTables) {
  GenerateTables();
  const std::string sql =
      "SELECT A.v, A.s, B.w, B.x, C.d, C.s FROM A, B, C "
      "WHERE A.k = B.k AND B.j = C.j AND B.x > 2 AND C.d < '1995-07-01' "
      "AND A.v < B.w AND A.s <> C.s";
  const std::vector<Row> expected = Reference(/*c_filter=*/false);
  ASSERT_FALSE(expected.empty());

  // Both plans push the local conjuncts and keep the residuals in the
  // joins: no Filter has a join below it.
  for (SqlEngine* engine : {&plain_, &analyzed_}) {
    const std::string plan = Explain(engine, sql);
    std::vector<std::string> lines;
    std::istringstream in(plan);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    auto depth = [](const std::string& line) {
      return line.find_first_not_of(' ');
    };
    for (size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].find("Filter (") == std::string::npos) continue;
      for (size_t j = i + 1;
           j < lines.size() && depth(lines[j]) > depth(lines[i]); ++j) {
        EXPECT_EQ(lines[j].find("Join"), std::string::npos) << plan;
      }
    }
    EXPECT_NE(plan.find("-> Filter ((B.x > 2))"), std::string::npos) << plan;
    EXPECT_NE(plan.find("(A.v < B.w)"), std::string::npos) << plan;
    EXPECT_NE(plan.find("(A.s <> C.s)"), std::string::npos) << plan;
  }
  CheckEveryRun(sql, expected);
}

TEST_P(ConjunctPlacementDifferentialTest, ViewAndSubqueryInputs) {
  GenerateTables();
  const std::string sql =
      "SELECT A.v, A.s, BV.w, BV.x, SC.d, SC.s FROM A, BV, "
      "(SELECT j, d, s FROM C WHERE y IS NOT NULL) AS SC "
      "WHERE A.k = BV.k AND BV.j = SC.j AND BV.x > 2 AND SC.d < '1995-07-01' "
      "AND A.v < BV.w AND A.s <> SC.s";
  const std::vector<Row> expected = Reference(/*c_filter=*/true);
  ASSERT_FALSE(expected.empty());

  // The view's conjunct is a Filter over the view's plan, below the
  // join; the residuals are in the joins.
  const std::string plan = Explain(&analyzed_, sql);
  EXPECT_NE(plan.find("HashJoin (A.k = BV.k AND (A.v < BV.w))"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("AND (A.s <> SC.s))"), std::string::npos) << plan;
  EXPECT_NE(plan.find("  -> Filter ((BV.x > 2))"), std::string::npos) << plan;
  CheckEveryRun(sql, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConjunctPlacementDifferentialTest,
                         ::testing::Values(5u, 77u, 2718u));

}  // namespace
}  // namespace minerule::sql
