#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "relational/catalog.h"
#include "relational/column.h"
#include "relational/date.h"
#include "relational/value.h"

namespace minerule {
namespace {

TEST(DateTest, CivilRoundTrip) {
  for (int32_t days : {-100000, -1, 0, 1, 9131, 100000}) {
    int y, m, d;
    date::ToCivil(days, &y, &m, &d);
    EXPECT_EQ(date::FromCivil(y, m, d), days);
  }
  EXPECT_EQ(date::FromCivil(1970, 1, 1), 0);
  EXPECT_EQ(date::FromCivil(1970, 1, 2), 1);
}

TEST(DateTest, ParseFormats) {
  auto iso = date::Parse("1995-12-17");
  ASSERT_TRUE(iso.ok());
  auto us_short = date::Parse("12/17/95");
  ASSERT_TRUE(us_short.ok());
  auto us_long = date::Parse("12/17/1995");
  ASSERT_TRUE(us_long.ok());
  EXPECT_EQ(iso.value(), us_short.value());
  EXPECT_EQ(iso.value(), us_long.value());
  EXPECT_EQ(date::ToString(iso.value()), "12/17/1995");
}

TEST(DateTest, TwoDigitYearWindow) {
  // 00..69 -> 2000s, 70..99 -> 1900s.
  EXPECT_EQ(date::Parse("1/1/69").value(), date::FromCivil(2069, 1, 1));
  EXPECT_EQ(date::Parse("1/1/70").value(), date::FromCivil(1970, 1, 1));
}

TEST(DateTest, RejectsGarbage) {
  EXPECT_FALSE(date::Parse("hello").ok());
  EXPECT_FALSE(date::Parse("13/40/95").ok());
  EXPECT_FALSE(date::Parse("1995-02-30").ok());
  EXPECT_FALSE(date::Parse("2/29/1995").ok());  // not a leap year
  EXPECT_TRUE(date::Parse("2/29/1996").ok());   // leap year
}

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Boolean(true).type(), DataType::kBoolean);
  EXPECT_EQ(Value::Integer(4).AsInteger(), 4);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_DOUBLE_EQ(Value::Integer(4).AsDouble(), 4.0);  // widening
  EXPECT_EQ(Value::String("x").AsString(), "x");
  EXPECT_EQ(Value::Date(10).AsDate(), 10);
  EXPECT_TRUE(Value::Integer(1).is_numeric());
  EXPECT_TRUE(Value::Double(1).is_numeric());
  EXPECT_FALSE(Value::String("1").is_numeric());
}

TEST(ValueTest, SqlCompareNumericCrossType) {
  auto cmp = Value::Integer(2).SqlCompare(Value::Double(2.0));
  ASSERT_TRUE(cmp.ok());
  EXPECT_EQ(cmp.value(), 0);
  EXPECT_EQ(Value::Integer(1).SqlCompare(Value::Double(1.5)).value(), -1);
  EXPECT_EQ(Value::Double(3.0).SqlCompare(Value::Integer(2)).value(), 1);
}

TEST(ValueTest, SqlCompareRejectsMixedTypes) {
  EXPECT_FALSE(Value::String("1").SqlCompare(Value::Integer(1)).ok());
  EXPECT_FALSE(Value::Date(1).SqlCompare(Value::Integer(1)).ok());
}

TEST(ValueTest, TotalOrderAndHashConsistency) {
  // TotalEquals across numeric types implies equal hashes.
  EXPECT_TRUE(Value::Integer(3).TotalEquals(Value::Double(3.0)));
  EXPECT_EQ(Value::Integer(3).Hash(), Value::Double(3.0).Hash());
  EXPECT_TRUE(Value::Null().TotalEquals(Value::Null()));
  EXPECT_TRUE(Value::Null().TotalLess(Value::Integer(-100)));
  EXPECT_TRUE(Value::Integer(5).TotalLess(Value::String("a")));
  EXPECT_FALSE(Value::String("b").TotalLess(Value::String("a")));
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Boolean(false).ToString(), "FALSE");
  EXPECT_EQ(Value::Integer(42).ToString(), "42");
  EXPECT_EQ(Value::Double(2.5).ToString(), "2.5");
  EXPECT_EQ(Value::Double(140).ToString(), "140.0");
  EXPECT_EQ(Value::String("ab").ToString(), "ab");
}

TEST(ValueTest, SqlLiteralQuoting) {
  EXPECT_EQ(Value::String("o'brien").ToSqlLiteral(), "'o''brien'");
  EXPECT_EQ(Value::Integer(7).ToSqlLiteral(), "7");
  EXPECT_EQ(Value::Date(date::FromCivil(1995, 12, 17)).ToSqlLiteral(),
            "DATE '1995-12-17'");
}

TEST(SchemaTest, LookupIsCaseInsensitive) {
  Schema schema({{"Item", DataType::kString}, {"price", DataType::kDouble}});
  EXPECT_EQ(schema.FindColumn("ITEM"), 0);
  EXPECT_EQ(schema.FindColumn("Price"), 1);
  EXPECT_EQ(schema.FindColumn("qty"), -1);
  EXPECT_TRUE(schema.HasColumn("item"));
  auto resolved = schema.ResolveColumn("PRICE");
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved.value(), 1u);
  EXPECT_FALSE(schema.ResolveColumn("missing").ok());
}

TEST(SchemaTest, ResolveAmbiguous) {
  Schema schema({{"a", DataType::kInteger}, {"A", DataType::kDouble}});
  EXPECT_FALSE(schema.ResolveColumn("a").ok());
}

TEST(TableTest, AppendChecksArityAndTypes) {
  Table table("t", Schema({{"a", DataType::kInteger},
                           {"b", DataType::kString}}));
  EXPECT_TRUE(table.Append({Value::Integer(1), Value::String("x")}).ok());
  EXPECT_TRUE(table.Append({Value::Null(), Value::Null()}).ok());
  EXPECT_FALSE(table.Append({Value::Integer(1)}).ok());
  EXPECT_FALSE(
      table.Append({Value::String("no"), Value::String("x")}).ok());
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TableTest, IntegerIntoDoubleColumnWidens) {
  Table table("t", Schema({{"a", DataType::kDouble}}));
  ASSERT_TRUE(table.Append({Value::Integer(3)}).ok());
  EXPECT_EQ(table.row(0)[0].type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(table.row(0)[0].AsDouble(), 3.0);
}

TEST(TableTest, DisplayStringContainsHeaderAndValues) {
  Table table("t", Schema({{"name", DataType::kString}}));
  table.AppendUnchecked({Value::String("widget")});
  std::string display = table.ToDisplayString();
  EXPECT_NE(display.find("name"), std::string::npos);
  EXPECT_NE(display.find("widget"), std::string::npos);
}

TEST(CatalogTest, TableLifecycle) {
  Catalog catalog;
  auto created = catalog.CreateTable("t", Schema({{"a", DataType::kInteger}}));
  ASSERT_TRUE(created.ok());
  EXPECT_TRUE(catalog.HasTable("T"));  // case-insensitive
  EXPECT_FALSE(catalog.CreateTable("t", Schema{}).ok());  // duplicate
  EXPECT_TRUE(catalog.GetTable("t").ok());
  EXPECT_TRUE(catalog.DropTable("t").ok());
  EXPECT_FALSE(catalog.DropTable("t").ok());
  catalog.DropTableIfExists("t");  // no-op, no error
}

TEST(CatalogTest, RejectsDuplicateColumnNames) {
  Catalog catalog;
  EXPECT_FALSE(catalog
                   .CreateTable("t", Schema({{"a", DataType::kInteger},
                                             {"A", DataType::kInteger}}))
                   .ok());
}

TEST(CatalogTest, ViewsShareNamespaceWithTables) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("t", Schema({{"a", DataType::kInteger}}))
                  .ok());
  EXPECT_FALSE(catalog.CreateView("t", "SELECT 1").ok());
  ASSERT_TRUE(catalog.CreateView("v", "SELECT 1 AS one").ok());
  EXPECT_FALSE(catalog.CreateTable("v", Schema{}).ok());
  EXPECT_TRUE(catalog.HasRelation("v"));
  auto view = catalog.GetView("V");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view.value().select_sql, "SELECT 1 AS one");
}

TEST(CatalogTest, SequencesAdvance) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateSequence("s").ok());
  auto seq = catalog.GetSequence("s");
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(seq.value()->NextVal(), 1);
  EXPECT_EQ(seq.value()->NextVal(), 2);
  EXPECT_EQ(seq.value()->PeekNext(), 3);
  ASSERT_TRUE(catalog.CreateSequence("s10", 10).ok());
  EXPECT_EQ(catalog.GetSequence("s10").value()->NextVal(), 10);
}

TEST(CatalogTest, NameListings) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("b", Schema{}).ok());
  ASSERT_TRUE(catalog.CreateTable("a", Schema{}).ok());
  ASSERT_TRUE(catalog.CreateSequence("s").ok());
  ASSERT_TRUE(catalog.CreateView("v", "SELECT 1 AS x").ok());
  EXPECT_EQ(catalog.TableNames(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(catalog.ViewNames(), std::vector<std::string>{"v"});
  EXPECT_EQ(catalog.SequenceNames(), std::vector<std::string>{"s"});
}

// --- Columnar image (relational/column.h, DESIGN.md §12) -------------------

TEST(ColumnarTest, TypedEncodingsRoundTrip) {
  Schema schema({{"i", DataType::kInteger},
                 {"d", DataType::kDouble},
                 {"s", DataType::kString},
                 {"b", DataType::kBoolean},
                 {"dt", DataType::kDate}});
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back({Value::Integer(i * 7 - 50),
                    Value::Double(i * 0.125),
                    Value::String("s" + std::to_string(i % 5)),
                    Value::Boolean(i % 2 == 0),
                    Value::Date(9000 + i)});
  }
  auto ct = ColumnarTable::FromRows(schema, rows);
  ASSERT_EQ(ct->num_rows, rows.size());
  EXPECT_EQ(ct->columns[0].encoding(), ColumnEncoding::kInt64);
  EXPECT_EQ(ct->columns[1].encoding(), ColumnEncoding::kDouble);
  EXPECT_EQ(ct->columns[2].encoding(), ColumnEncoding::kDict);
  EXPECT_EQ(ct->columns[3].encoding(), ColumnEncoding::kInt64);
  EXPECT_EQ(ct->columns[4].encoding(), ColumnEncoding::kInt64);
  EXPECT_EQ(ct->columns[2].dictionary().size(), 5u);
  ASSERT_EQ(ct->columns.size(), schema.num_columns());
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t c = 0; c < ct->columns.size(); ++c) {
      const Value out = ct->columns[c].GetValue(i);
      EXPECT_EQ(out.ToString(), rows[i][c].ToString()) << i << "," << c;
      EXPECT_EQ(out.type(), rows[i][c].type()) << i << "," << c;
    }
  }
}

TEST(ColumnarTest, AllNullColumnKeepsTypedEncoding) {
  Schema schema({{"i", DataType::kInteger}});
  std::vector<Row> rows(500, Row{Value::Null()});
  auto ct = ColumnarTable::FromRows(schema, rows);
  const ColumnVector& col = ct->columns[0];
  EXPECT_EQ(col.encoding(), ColumnEncoding::kInt64);
  EXPECT_EQ(col.nulls().null_count(), 500u);
  for (size_t i = 0; i < 500; ++i) {
    EXPECT_TRUE(col.IsNull(i));
    EXPECT_TRUE(col.GetValue(i).is_null());
  }
}

TEST(ColumnarTest, EmptyTableProducesEmptyColumns) {
  Schema schema({{"i", DataType::kInteger}, {"s", DataType::kString}});
  auto ct = ColumnarTable::FromRows(schema, {});
  EXPECT_EQ(ct->num_rows, 0u);
  ASSERT_EQ(ct->columns.size(), 2u);
  EXPECT_EQ(ct->columns[0].size(), 0u);
  EXPECT_FALSE(ct->columns[0].nulls().AnyNull());
}

TEST(ColumnarTest, DictionaryOverflowFallsBackToGeneric) {
  // One more distinct string than the uint16 code space holds.
  constexpr size_t kDistinct = (size_t{1} << 16) + 1;
  Schema schema({{"s", DataType::kString}});
  std::vector<Row> rows;
  rows.reserve(kDistinct);
  for (size_t i = 0; i < kDistinct; ++i) {
    rows.push_back({Value::String("v" + std::to_string(i))});
  }
  auto ct = ColumnarTable::FromRows(schema, rows);
  EXPECT_EQ(ct->columns[0].encoding(), ColumnEncoding::kGeneric);
  // Round trip still lossless at the edges and past the overflow point.
  for (size_t i : {size_t{0}, size_t{65535}, size_t{65536}, kDistinct - 1}) {
    EXPECT_EQ(ct->columns[0].GetValue(i).ToString(), rows[i][0].ToString());
  }
  // Just-at-capacity stays dictionary-encoded.
  rows.pop_back();
  auto fits = ColumnarTable::FromRows(schema, rows);
  EXPECT_EQ(fits->columns[0].encoding(), ColumnEncoding::kDict);
  EXPECT_EQ(fits->columns[0].dictionary().size(), size_t{1} << 16);
}

TEST(ColumnarTest, TypeImpureColumnFallsBackToGeneric) {
  // AppendUnchecked can put a Double into an INTEGER-declared column; the
  // generic encoding must preserve the runtime type bit-for-bit.
  Schema schema({{"a", DataType::kInteger}});
  std::vector<Row> rows = {{Value::Integer(1)},
                           {Value::Double(1.5)},
                           {Value::Null()},
                           {Value::Integer(2)}};
  auto ct = ColumnarTable::FromRows(schema, rows);
  const ColumnVector& col = ct->columns[0];
  EXPECT_EQ(col.encoding(), ColumnEncoding::kGeneric);
  EXPECT_EQ(col.GetValue(0).type(), DataType::kInteger);
  EXPECT_EQ(col.GetValue(1).type(), DataType::kDouble);
  EXPECT_TRUE(col.GetValue(2).is_null());
  EXPECT_EQ(col.GetValue(1).ToString(), Value::Double(1.5).ToString());
}

TEST(ColumnarTest, NullBitmapWordAndMorselBoundaries) {
  // Nulls straddling 64-bit word edges and the 1024-row morsel edge.
  const std::vector<size_t> null_at = {0, 63, 64, 65, 127, 1023, 1024, 1025};
  Schema schema({{"i", DataType::kInteger}});
  std::vector<Row> rows;
  for (size_t i = 0; i < 1100; ++i) {
    bool null = std::find(null_at.begin(), null_at.end(), i) != null_at.end();
    rows.push_back({null ? Value::Null()
                         : Value::Integer(static_cast<int64_t>(i))});
  }
  auto ct = ColumnarTable::FromRows(schema, rows);
  const ColumnVector& col = ct->columns[0];
  EXPECT_EQ(col.encoding(), ColumnEncoding::kInt64);
  EXPECT_EQ(col.nulls().null_count(), null_at.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    bool expect_null =
        std::find(null_at.begin(), null_at.end(), i) != null_at.end();
    EXPECT_EQ(col.IsNull(i), expect_null) << i;
    if (!expect_null) {
      EXPECT_EQ(col.ints()[i], static_cast<int64_t>(i)) << i;
    }
  }
}

TEST(ColumnarTest, TableCachesImageByVersion) {
  Table table("t", Schema({{"a", DataType::kInteger}}));
  table.AppendUnchecked({Value::Integer(1)});
  auto first = table.Columnar();
  auto again = table.Columnar();
  EXPECT_EQ(first.get(), again.get());  // unchanged table shares the image
  table.AppendUnchecked({Value::Integer(2)});
  auto rebuilt = table.Columnar();
  EXPECT_NE(first.get(), rebuilt.get());
  EXPECT_EQ(rebuilt->num_rows, 2u);
  // The old snapshot is immutable and still valid after the mutation.
  EXPECT_EQ(first->num_rows, 1u);
  EXPECT_EQ(first->columns[0].GetValue(0).ToString(),
            Value::Integer(1).ToString());
}

// --- copy-on-write rows ---------------------------------------------------

Table TwoRowTable() {
  Table table("t", Schema({{"a", DataType::kInteger}}));
  table.AppendUnchecked({Value::Integer(1)});
  table.AppendUnchecked({Value::Integer(2)});
  return table;
}

TEST(TableCopyOnWriteTest, CopySharesRowStorage) {
  Table original = TwoRowTable();
  const Table copy = original;
  EXPECT_EQ(&copy.rows(), &original.rows());
  EXPECT_EQ(copy.version(), original.version());
  EXPECT_EQ(copy.Columnar().get(), original.Columnar().get());
}

TEST(TableCopyOnWriteTest, EveryMutatorDetaches) {
  struct Mutator {
    const char* name;
    std::function<void(Table*)> apply;
  };
  const std::vector<Mutator> mutators = {
      {"Append",
       [](Table* t) { ASSERT_TRUE(t->Append({Value::Integer(3)}).ok()); }},
      {"AppendUnchecked",
       [](Table* t) { t->AppendUnchecked({Value::Integer(3)}); }},
      {"Clear", [](Table* t) { t->Clear(); }},
      {"Reserve", [](Table* t) { t->Reserve(64); }},
      {"mutable_rows",
       [](Table* t) { t->mutable_rows()[0][0] = Value::Integer(9); }},
  };
  for (const Mutator& mutator : mutators) {
    SCOPED_TRACE(mutator.name);
    Table original = TwoRowTable();
    const Table snapshot = original;
    const std::vector<Row>* shared = &snapshot.rows();
    mutator.apply(&original);
    EXPECT_NE(&original.rows(), shared);
    EXPECT_EQ(&snapshot.rows(), shared);
    ASSERT_EQ(snapshot.num_rows(), 2u);
    EXPECT_EQ(snapshot.row(0)[0].AsInteger(), 1);
    EXPECT_EQ(snapshot.row(1)[0].AsInteger(), 2);
  }
}

TEST(TableCopyOnWriteTest, SnapshotSurvivesMutationsOfTheOriginal) {
  Table original = TwoRowTable();
  const auto image = original.Columnar();
  const Table snapshot = original;
  const uint64_t version = snapshot.version();
  EXPECT_EQ(snapshot.Columnar().get(), image.get());

  original.AppendUnchecked({Value::Integer(3)});
  original.mutable_rows()[0][0] = Value::Integer(7);
  EXPECT_NE(original.version(), version);
  EXPECT_EQ(original.Columnar()->num_rows, 3u);

  // The snapshot keeps its rows, its version and the very image it had:
  // the original's mutations neither reach it nor rebuild its image.
  EXPECT_EQ(snapshot.version(), version);
  ASSERT_EQ(snapshot.num_rows(), 2u);
  EXPECT_EQ(snapshot.row(0)[0].AsInteger(), 1);
  EXPECT_EQ(snapshot.Columnar().get(), image.get());
  EXPECT_EQ(image->num_rows, 2u);
}

TEST(TableCopyOnWriteTest, MutatingTheCopyLeavesTheOriginal) {
  Table original = TwoRowTable();
  Table copy = original;
  copy.AppendUnchecked({Value::Integer(3)});
  EXPECT_EQ(original.num_rows(), 2u);
  EXPECT_EQ(copy.num_rows(), 3u);
}

TEST(TableCopyOnWriteTest, UnsharedTableMutatesInPlace) {
  Table table = TwoRowTable();
  const std::vector<Row>* storage = &table.rows();
  { const Table released = table; }
  table.AppendUnchecked({Value::Integer(3)});
  table.Reserve(16);
  table.mutable_rows()[0][0] = Value::Integer(5);
  EXPECT_EQ(&table.rows(), storage);
}

// --- column-stored tables --------------------------------------------------

/// A row-built table over every typed encoding, NULLs in each column, of
/// more than two 1024-row morsels.
Table RowBuiltTable() {
  Table table("t", Schema({{"i", DataType::kInteger},
                           {"d", DataType::kDouble},
                           {"s", DataType::kString},
                           {"dt", DataType::kDate},
                           {"b", DataType::kBoolean}}));
  for (int64_t r = 0; r < 2500; ++r) {
    auto null_or = [&](int every, Value v) {
      return r % every == 0 ? Value::Null() : std::move(v);
    };
    EXPECT_TRUE(table
                    .Append({null_or(7, Value::Integer(r * 3 - 100)),
                             null_or(11, Value::Double(r / 4.0)),
                             null_or(13, Value::String("s" +
                                                       std::to_string(r % 50))),
                             null_or(17, Value::Date(
                                             static_cast<int32_t>(9000 + r))),
                             null_or(19, Value::Boolean(r % 3 == 0))})
                    .ok());
  }
  return table;
}

/// The same contents with columns as the storage of record.
Table ColumnStoredCopyOf(const Table& rows) {
  Table table(rows.name(), rows.schema());
  EXPECT_TRUE(
      table.StoreColumns(ColumnarTable::FromRows(rows.schema(), rows.rows())));
  return table;
}

std::vector<std::string> Render(const Table& table) {
  std::vector<std::string> out;
  for (const Row& row : table.rows()) {
    std::string line;
    for (const Value& v : row) {
      line += v.ToString() + "/" +
              std::to_string(static_cast<int>(v.type())) + "|";
    }
    out.push_back(std::move(line));
  }
  return out;
}

TEST(ColumnStoredTableTest, ReadsLikeTheRowBuiltTable) {
  const Table built = RowBuiltTable();
  Gauge* peak = GlobalMetrics().GetGauge("relational.columnar_peak_bytes");
  peak->Set(0);
  const Table stored = ColumnStoredCopyOf(built);
  ASSERT_TRUE(stored.column_stored());
  const auto columns = stored.Columnar();
  EXPECT_EQ(peak->Value(), columns->ByteSize());
  // The columns of record are the image: nothing is built for it.
  EXPECT_EQ(stored.Columnar().get(), columns.get());
  EXPECT_EQ(stored.num_rows(), built.num_rows());

  const uint64_t version = stored.version();
  const uint64_t shape = stored.shape_version();
  EXPECT_NE(version, shape);  // stored as appends into the empty table
  EXPECT_EQ(Render(stored), Render(built));
  for (size_t r : {size_t{0}, size_t{1023}, size_t{1024}, size_t{2499}}) {
    SCOPED_TRACE(r);
    ASSERT_EQ(stored.row(r).size(), built.row(r).size());
    for (size_t c = 0; c < built.row(r).size(); ++c) {
      EXPECT_EQ(stored.row(r)[c].type(), built.row(r)[c].type());
      EXPECT_EQ(stored.row(r)[c].ToString(), built.row(r)[c].ToString());
    }
  }
  // Reading the rows is not a mutation.
  EXPECT_TRUE(stored.column_stored());
  EXPECT_EQ(stored.version(), version);
  EXPECT_EQ(stored.shape_version(), shape);
  EXPECT_EQ(stored.Columnar().get(), columns.get());

  const auto image = built.Columnar();
  ASSERT_EQ(columns->columns.size(), image->columns.size());
  for (size_t c = 0; c < image->columns.size(); ++c) {
    EXPECT_EQ(columns->columns[c].encoding(), image->columns[c].encoding());
    EXPECT_EQ(columns->columns[c].nulls().null_count(),
              image->columns[c].nulls().null_count());
  }
}

TEST(ColumnStoredTableTest, StoresOnlyWhatAppendWouldStore) {
  const Schema schema({{"a", DataType::kInteger}, {"b", DataType::kDouble}});
  const std::vector<Row> integers = {{Value::Integer(1), Value::Integer(2)}};
  const std::vector<Row> doubles = {{Value::Integer(1), Value::Double(2)}};
  // An INTEGER in the DOUBLE column encodes generic: Append would widen it.
  Table widened("w", schema);
  const uint64_t version = widened.version();
  EXPECT_FALSE(widened.StoreColumns(ColumnarTable::FromRows(schema, integers)));
  EXPECT_FALSE(widened.column_stored());
  EXPECT_EQ(widened.version(), version);
  EXPECT_EQ(widened.num_rows(), 0u);
  // Columns declared under another schema's types.
  const Schema swapped({{"a", DataType::kDouble}, {"b", DataType::kDouble}});
  EXPECT_FALSE(widened.StoreColumns(ColumnarTable::FromRows(
      swapped, {{Value::Double(1), Value::Double(2)}})));
  EXPECT_TRUE(widened.StoreColumns(ColumnarTable::FromRows(schema, doubles)));
  EXPECT_TRUE(widened.column_stored());
  EXPECT_NE(widened.version(), version);
  // A table with rows keeps them: columns would replace, not append.
  const uint64_t stored = widened.version();
  EXPECT_FALSE(widened.StoreColumns(ColumnarTable::FromRows(schema, doubles)));
  EXPECT_EQ(widened.version(), stored);
  EXPECT_EQ(widened.num_rows(), 1u);
}

struct Mutator {
  const char* name;
  std::function<void(Table*)> apply;
};

std::vector<Mutator> Mutators() {
  const Row extra = {Value::Integer(42), Value::Null(), Value::String("x"),
                     Value::Null(), Value::Boolean(true)};
  return {
      {"Append", [extra](Table* t) { ASSERT_TRUE(t->Append(extra).ok()); }},
      {"AppendUnchecked", [extra](Table* t) { t->AppendUnchecked(extra); }},
      {"Reserve", [](Table* t) { t->Reserve(8000); }},
      {"mutable_rows",
       [](Table* t) { t->mutable_rows()[5][0] = Value::Integer(-1); }},
      {"Clear", [](Table* t) { t->Clear(); }},
  };
}

/// What `mutator` leaves in the row-built `built`.
std::vector<std::string> MutatedRowBuilt(const Table& built,
                                         const Mutator& mutator) {
  Table rows = built;
  mutator.apply(&rows);
  return Render(rows);
}

TEST(ColumnStoredTableTest, EveryMutatorMaterializesThenMutates) {
  const Table built = RowBuiltTable();
  for (const Mutator& mutator : Mutators()) {
    SCOPED_TRACE(mutator.name);
    Table table = ColumnStoredCopyOf(built);
    const auto columns = table.Columnar();
    const uint64_t version = table.version();
    mutator.apply(&table);
    EXPECT_FALSE(table.column_stored());
    EXPECT_EQ(Render(table), MutatedRowBuilt(built, mutator));
    if (std::string(mutator.name) != "Reserve") {
      EXPECT_NE(table.version(), version);
      EXPECT_NE(table.Columnar().get(), columns.get());
    }
    // Row-stored from now on: a second mutation mutates in place.
    const std::vector<Row>* storage = &table.rows();
    table.AppendUnchecked({Value::Integer(1), Value::Null(), Value::Null(),
                           Value::Null(), Value::Null()});
    EXPECT_EQ(&table.rows(), storage);
    EXPECT_EQ(table.Columnar()->num_rows, table.num_rows());
  }
}

TEST(ColumnStoredTableTest, CopyTakenBeforeAMutationKeepsTheOldContents) {
  const Table built = RowBuiltTable();
  const std::vector<std::string> contents = Render(built);
  for (bool rows_built_first : {false, true}) {
    for (const Mutator& mutator : Mutators()) {
      SCOPED_TRACE(std::string(mutator.name) +
                   (rows_built_first ? " after rows()" : ""));
      Table original = ColumnStoredCopyOf(built);
      if (rows_built_first) original.rows();
      const auto columns = original.Columnar();
      const Table snapshot = original;
      const uint64_t version = snapshot.version();
      mutator.apply(&original);
      EXPECT_FALSE(original.column_stored());
      EXPECT_EQ(Render(original), MutatedRowBuilt(built, mutator));
      EXPECT_TRUE(snapshot.column_stored());
      EXPECT_EQ(snapshot.version(), version);
      EXPECT_EQ(snapshot.Columnar().get(), columns.get());
      EXPECT_EQ(Render(snapshot), contents);
    }
  }
}

TEST(ColumnStoredTableTest, CopiesBuildTheSharedRowsOnce) {
  const Table built = RowBuiltTable();
  const Table stored = ColumnStoredCopyOf(built);
  const std::vector<std::string> contents = Render(built);
  constexpr int kReaders = 8;
  std::vector<Table> copies(kReaders, stored);
  std::vector<const std::vector<Row>*> seen(kReaders, nullptr);
  std::vector<std::vector<std::string>> rendered(kReaders);
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&, i] {
      seen[i] = &copies[i].rows();
      rendered[i] = Render(copies[i]);
    });
  }
  for (std::thread& reader : readers) reader.join();
  for (int i = 0; i < kReaders; ++i) {
    EXPECT_EQ(seen[i], &stored.rows()) << i;
    EXPECT_EQ(rendered[i], contents) << i;
    EXPECT_TRUE(copies[i].column_stored()) << i;
  }
}

TEST(RowHashTest, EqualRowsHashEqual) {
  Row a = {Value::Integer(1), Value::String("x")};
  Row b = {Value::Double(1.0), Value::String("x")};
  EXPECT_TRUE(RowEq{}(a, b));
  EXPECT_EQ(RowHash{}(a), RowHash{}(b));
  Row c = {Value::Integer(2), Value::String("x")};
  EXPECT_FALSE(RowEq{}(a, c));
}

}  // namespace
}  // namespace minerule
