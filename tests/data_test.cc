#include <sys/stat.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/parallel.h"
#include "common/status.h"
#include "data/csv.h"
#include "data/table.h"
#include "data/value.h"

#include "csv_reference.h"

namespace nde {
namespace {

// --- Value --------------------------------------------------------------------

TEST(ValueTest, NullSemantics) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_FALSE(v.is_double());
  EXPECT_EQ(v, Value::Null());
  EXPECT_EQ(v.ToString(), "");
}

TEST(ValueTest, TypedAccessors) {
  EXPECT_EQ(Value(2.5).as_double(), 2.5);
  EXPECT_EQ(Value(int64_t{7}).as_int64(), 7);
  EXPECT_EQ(Value(7).as_int64(), 7);
  EXPECT_EQ(Value("hi").as_string(), "hi");
  EXPECT_EQ(Value(std::string("hey")).as_string(), "hey");
}

TEST(ValueTest, AsNumericWidensInt) {
  EXPECT_EQ(Value(3).AsNumeric(), 3.0);
  EXPECT_EQ(Value(3.5).AsNumeric(), 3.5);
}

TEST(ValueTest, TypeQueries) {
  EXPECT_EQ(Value(1.0).type(), DataType::kDouble);
  EXPECT_EQ(Value(1).type(), DataType::kInt64);
  EXPECT_EQ(Value("x").type(), DataType::kString);
}

TEST(ValueTest, MatchesTypeAllowsNull) {
  EXPECT_TRUE(Value::Null().MatchesType(DataType::kDouble));
  EXPECT_TRUE(Value(1.0).MatchesType(DataType::kDouble));
  EXPECT_FALSE(Value(1.0).MatchesType(DataType::kString));
}

TEST(ValueTest, EqualityDistinguishesTypes) {
  EXPECT_NE(Value(1.0), Value(int64_t{1}));
  EXPECT_EQ(Value(1.0), Value(1.0));
  EXPECT_EQ(Value("a"), Value("a"));
  EXPECT_NE(Value("a"), Value("b"));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value("abc").Hash(), Value("abc").Hash());
  EXPECT_EQ(Value(5).Hash(), Value(5).Hash());
  EXPECT_NE(Value(5).Hash(), Value(5.0).Hash());
}

TEST(ValueTest, ToStringRendersNumbers) {
  EXPECT_EQ(Value(42).ToString(), "42");
  EXPECT_EQ(Value("text").ToString(), "text");
}

// --- Schema -------------------------------------------------------------------

TEST(SchemaTest, FieldIndexAndHasField) {
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kString}});
  EXPECT_EQ(schema.FieldIndex("b").value(), 1u);
  EXPECT_TRUE(schema.HasField("a"));
  EXPECT_FALSE(schema.HasField("c"));
  EXPECT_EQ(schema.FieldIndex("c").status().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, AddFieldRejectsDuplicates) {
  Schema schema;
  EXPECT_TRUE(schema.AddField({"x", DataType::kDouble}).ok());
  EXPECT_EQ(schema.AddField({"x", DataType::kInt64}).code(),
            StatusCode::kAlreadyExists);
}

TEST(SchemaTest, ToStringListsFields) {
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kString}});
  EXPECT_EQ(schema.ToString(), "a:int64, b:string");
}

// --- Table --------------------------------------------------------------------

Table MakeSampleTable() {
  return TableBuilder()
      .AddInt64Column("id", {1, 2, 3, 4})
      .AddStringColumn("name", {"ann", "bob", "cat", "dan"})
      .AddDoubleColumn("score", {1.5, 2.5, 3.5, 4.5})
      .Build();
}

TEST(TableTest, BuilderProducesConsistentTable) {
  Table t = MakeSampleTable();
  EXPECT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.num_columns(), 3u);
  EXPECT_TRUE(t.Validate().ok());
  EXPECT_EQ(t.At(2, 1).as_string(), "cat");
}

TEST(TableTest, AppendRowTypeChecked) {
  Table t = MakeSampleTable();
  EXPECT_TRUE(t.AppendRow({Value(5), Value("eve"), Value(5.5)}).ok());
  EXPECT_EQ(t.num_rows(), 5u);
  // Wrong type.
  EXPECT_FALSE(t.AppendRow({Value("x"), Value("eve"), Value(5.5)}).ok());
  // Wrong arity.
  EXPECT_FALSE(t.AppendRow({Value(6)}).ok());
  // Nulls always allowed.
  EXPECT_TRUE(t.AppendRow({Value::Null(), Value::Null(), Value::Null()}).ok());
}

TEST(TableTest, SetCellValidatesTypeAndRange) {
  Table t = MakeSampleTable();
  EXPECT_TRUE(t.SetCell(0, 2, Value(9.0)).ok());
  EXPECT_EQ(t.At(0, 2).as_double(), 9.0);
  EXPECT_EQ(t.SetCell(0, 2, Value("bad")).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(t.SetCell(99, 0, Value(1)).code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(t.SetCell(0, 2, Value::Null()).ok());
  EXPECT_TRUE(t.At(0, 2).is_null());
}

TEST(TableTest, RowRoundTrip) {
  Table t = MakeSampleTable();
  std::vector<Value> row = t.Row(1);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0].as_int64(), 2);
  EXPECT_EQ(row[1].as_string(), "bob");
}

TEST(TableTest, AddAndDropColumn) {
  Table t = MakeSampleTable();
  EXPECT_TRUE(t.AddColumn({"flag", DataType::kInt64},
                          {Value(0), Value(1), Value(0), Value(1)})
                  .ok());
  EXPECT_EQ(t.num_columns(), 4u);
  // Wrong length rejected.
  EXPECT_FALSE(t.AddColumn({"bad", DataType::kInt64}, {Value(0)}).ok());
  // Duplicate name rejected.
  EXPECT_FALSE(t.AddColumn({"flag", DataType::kInt64},
                           {Value(0), Value(0), Value(0), Value(0)})
                   .ok());
  EXPECT_TRUE(t.DropColumn("flag").ok());
  EXPECT_EQ(t.num_columns(), 3u);
  EXPECT_FALSE(t.DropColumn("flag").ok());
}

TEST(TableTest, SelectColumnsReorders) {
  Table t = MakeSampleTable();
  Result<Table> s = t.SelectColumns({"score", "id"});
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->num_columns(), 2u);
  EXPECT_EQ(s->schema().field(0).name, "score");
  EXPECT_EQ(s->At(0, 1).as_int64(), 1);
  EXPECT_FALSE(t.SelectColumns({"nope"}).ok());
}

TEST(TableTest, SelectRowsAndFilter) {
  Table t = MakeSampleTable();
  Table s = t.SelectRows({3, 0});
  EXPECT_EQ(s.num_rows(), 2u);
  EXPECT_EQ(s.At(0, 0).as_int64(), 4);

  std::vector<size_t> kept;
  Table f = t.FilterRows(
      [&t](size_t r) { return t.At(r, 2).as_double() > 2.0; }, &kept);
  EXPECT_EQ(f.num_rows(), 3u);
  EXPECT_EQ(kept, (std::vector<size_t>{1, 2, 3}));
}

TEST(TableTest, AppendTableRequiresSameSchema) {
  Table a = MakeSampleTable();
  Table b = MakeSampleTable();
  EXPECT_TRUE(a.AppendTable(b).ok());
  EXPECT_EQ(a.num_rows(), 8u);
  Table c = TableBuilder().AddInt64Column("other", {1}).Build();
  EXPECT_FALSE(a.AppendTable(c).ok());
}

TEST(TableTest, CountNulls) {
  Table t = TableBuilder()
                .AddValueColumn("x", DataType::kDouble,
                                {Value(1.0), Value::Null(), Value::Null()})
                .Build();
  EXPECT_EQ(t.CountNulls(0), 2u);
}

TEST(TableTest, FromRowsValidates) {
  Schema schema({{"a", DataType::kInt64}});
  Result<Table> good = Table::FromRows(schema, {{Value(1)}, {Value(2)}});
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->num_rows(), 2u);
  EXPECT_FALSE(Table::FromRows(schema, {{Value("x")}}).ok());
}

TEST(TableTest, FromColumnsValidates) {
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kString}});
  Result<Table> good = Table::FromColumns(
      schema, {{Value(1), Value::Null()}, {Value("x"), Value("y")}});
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->num_rows(), 2u);
  EXPECT_TRUE(good->Validate().ok());
  EXPECT_TRUE(good->At(1, 0).is_null());
  // Ragged columns, a mistyped cell and a missing column are each rejected.
  EXPECT_FALSE(
      Table::FromColumns(schema, {{Value(1)}, {Value("x"), Value("y")}}).ok());
  EXPECT_FALSE(Table::FromColumns(schema, {{Value("1")}, {Value("x")}}).ok());
  EXPECT_EQ(Table::FromColumns(schema, {{Value(1)}}).status().code(),
            StatusCode::kInvalidArgument);
}

// --- Shared column buffers ---------------------------------------------------

bool SharesEveryColumn(const Table& a, const Table& b) {
  if (a.num_columns() != b.num_columns()) return false;
  for (size_t c = 0; c < a.num_columns(); ++c) {
    if (&a.column(c) != &b.column(c)) return false;
  }
  return true;
}

bool SharesAnyColumn(const Table& a, const Table& b) {
  for (size_t c = 0; c < a.num_columns(); ++c) {
    for (size_t d = 0; d < b.num_columns(); ++d) {
      if (&a.column(c) == &b.column(d)) return true;
    }
  }
  return false;
}

// Schema plus every cell, row by row.
std::string Contents(const Table& t) { return t.DebugString(t.num_rows()); }

TEST(TableShareTest, CopiesAndWholeSelectionsShareEveryColumn) {
  Table t = MakeSampleTable();
  Table copy = t;
  EXPECT_TRUE(SharesEveryColumn(t, copy));
  Table assigned;
  assigned = t;
  EXPECT_TRUE(SharesEveryColumn(t, assigned));

  Table projected = t.SelectColumns({"score", "id"}).value();
  EXPECT_EQ(&projected.column(0), &t.column(2));
  EXPECT_EQ(&projected.column(1), &t.column(0));

  EXPECT_TRUE(SharesEveryColumn(t, t.SelectRows({0, 1, 2, 3})));
  std::vector<size_t> kept;
  Table all = t.FilterRows([](size_t) { return true; }, &kept);
  EXPECT_TRUE(SharesEveryColumn(t, all));
  EXPECT_EQ(kept, (std::vector<size_t>{0, 1, 2, 3}));
  EXPECT_EQ(Contents(all), Contents(t));

  // Any other selection gathers fresh columns, even one of every row.
  EXPECT_FALSE(SharesAnyColumn(t, t.SelectRows({3, 2, 1, 0})));
  EXPECT_FALSE(SharesAnyColumn(t, t.SelectRows({0, 1, 2})));
  EXPECT_FALSE(SharesAnyColumn(t, t.SelectRows({0, 0, 1, 2})));
}

TEST(TableShareTest, PartialFilterGathersExactly) {
  Table t = TableBuilder()
                .AddInt64Column("id", {1, 2, 3, 4, 5})
                .AddValueColumn("name", DataType::kString,
                                {Value("ann"), Value::Null(), Value("cat"),
                                 Value("dan"), Value("eve")})
                .AddDoubleColumn("score", {1.5, 2.5, 3.5, 4.5, 5.5})
                .Build();
  std::vector<size_t> kept;
  Table odd = t.FilterRows([](size_t r) { return r % 2 == 1; }, &kept);
  EXPECT_EQ(kept, (std::vector<size_t>{1, 3}));
  Table expected = TableBuilder()
                       .AddInt64Column("id", {2, 4})
                       .AddValueColumn("name", DataType::kString,
                                       {Value::Null(), Value("dan")})
                       .AddDoubleColumn("score", {2.5, 4.5})
                       .Build();
  EXPECT_TRUE(odd.Validate().ok());
  EXPECT_EQ(Contents(odd), Contents(expected));
  EXPECT_FALSE(SharesAnyColumn(t, odd));

  Table none = t.FilterRows([](size_t) { return false; }, &kept);
  EXPECT_TRUE(kept.empty());
  EXPECT_EQ(none.num_rows(), 0u);
  EXPECT_EQ(none.num_columns(), 3u);
  EXPECT_TRUE(none.Validate().ok());
}

// Each mutator, applied to one of two tables that share every column, must
// leave the other as it was.
TEST(TableShareTest, MutatingOneCopyLeavesTheOtherUnchanged) {
  const std::vector<std::pair<std::string, std::function<Status(Table*)>>>
      mutators = {
          {"SetCell", [](Table* t) { return t->SetCell(1, 1, Value("zed")); }},
          {"AppendRow",
           [](Table* t) {
             return t->AppendRow({Value(9), Value("ivy"), Value(9.5)});
           }},
          {"AppendTable",
           [](Table* t) { return t->AppendTable(MakeSampleTable()); }},
          {"AddColumn",
           [](Table* t) {
             return t->AddColumn({"flag", DataType::kInt64},
                                 {Value(0), Value(1), Value(0), Value(1)});
           }},
          {"DropColumn", [](Table* t) { return t->DropColumn("name"); }},
      };
  const std::string before = Contents(MakeSampleTable());
  for (const auto& [name, mutate] : mutators) {
    for (bool mutate_copy : {true, false}) {
      SCOPED_TRACE(name + (mutate_copy ? " on the copy" : " on the original"));
      Table original = MakeSampleTable();
      Table copy = original;
      Table& changed = mutate_copy ? copy : original;
      const Table& kept = mutate_copy ? original : copy;
      ASSERT_TRUE(mutate(&changed).ok());
      EXPECT_EQ(Contents(kept), before);
      EXPECT_NE(Contents(changed), before);
      EXPECT_TRUE(changed.Validate().ok());
      // A second change to the same table writes its own column in place.
      if (name == "SetCell") {
        const std::vector<Value>* column = &changed.column(1);
        ASSERT_TRUE(changed.SetCell(2, 1, Value("yan")).ok());
        EXPECT_EQ(&changed.column(1), column);
        EXPECT_EQ(Contents(kept), before);
      }
    }
  }
}

TEST(TableShareTest, AppendingATableToItselfDoublesIt) {
  Table t = MakeSampleTable();
  Table copy = t;
  ASSERT_TRUE(t.AppendTable(t).ok());
  ASSERT_EQ(t.num_rows(), 8u);
  for (size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(t.Row(r + 4), copy.Row(r));
    EXPECT_EQ(t.Row(r), copy.Row(r));
  }
  EXPECT_EQ(copy.num_rows(), 4u);
  EXPECT_EQ(copy.column(0).size(), 4u);
}

// Label `threads`: run under ThreadSanitizer by the tsan preset.
TEST(TableShareTest, FourThreadsWriteTheirOwnCopiesOfOneTable) {
  const Table shared = MakeSampleTable();
  const std::string before = Contents(shared);
  std::vector<Table> results(4);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < 4; ++i) {
    threads.emplace_back([&shared, &results, i] {
      Table mine = shared;
      for (size_t r = 0; r < mine.num_rows(); ++r) {
        EXPECT_TRUE(mine.SetCell(r, 1, Value("t" + std::to_string(i))).ok());
      }
      results[i] = std::move(mine);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(Contents(shared), before);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NE(&results[i].column(1), &shared.column(1));
    EXPECT_EQ(&results[i].column(0), &shared.column(0));
    for (size_t r = 0; r < 4; ++r) {
      EXPECT_EQ(results[i].At(r, 1).as_string(), "t" + std::to_string(i));
      EXPECT_EQ(results[i].At(r, 0), shared.At(r, 0));
    }
  }
}

// The copies are made on this thread and the original dropped, so the last
// thread to write finds itself the only holder and writes in place after the
// others have read the same buffer and let it go on their own threads. Under
// ThreadSanitizer this checks that the holder count orders that write after
// those reads.
TEST(TableShareTest, LastHolderWritesInPlaceAfterOtherThreadsLetGo) {
  std::vector<Table> copies;
  {
    Table original = MakeSampleTable();
    copies.assign(4, original);
  }
  std::vector<std::string> seen(4);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < 4; ++i) {
    threads.emplace_back([&copies, &seen, i] {
      Table& mine = copies[i];
      for (size_t r = 0; r < mine.num_rows(); ++r) {
        seen[i] += mine.At(r, 1).as_string();
      }
      EXPECT_TRUE(mine.SetCell(0, 1, Value("t" + std::to_string(i))).ok());
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(seen[i], "annbobcatdan");
    EXPECT_EQ(copies[i].At(0, 1).as_string(), "t" + std::to_string(i));
    EXPECT_EQ(copies[i].At(1, 1).as_string(), "bob");
    for (size_t j = 0; j < i; ++j) {
      EXPECT_NE(&copies[i].column(1), &copies[j].column(1));
    }
  }
}

// --- CSV ------------------------------------------------------------------------

TEST(CsvTest, ParsesTypedColumns) {
  Result<Table> t = ReadCsvString("id,name,score\n1,ann,1.5\n2,bob,2\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->schema().field(0).type, DataType::kInt64);
  EXPECT_EQ(t->schema().field(1).type, DataType::kString);
  EXPECT_EQ(t->schema().field(2).type, DataType::kDouble);
  EXPECT_EQ(t->At(1, 2).as_double(), 2.0);
}

TEST(CsvTest, EmptyCellsAndMarkerBecomeNull) {
  Result<Table> t = ReadCsvString("a,b\n1,\nn/a,2\n");
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->At(0, 1).is_null());
  EXPECT_TRUE(t->At(1, 0).is_null());
  EXPECT_EQ(t->At(1, 1).as_int64(), 2);
}

TEST(CsvTest, MixedIntThenStringFallsBackToString) {
  Result<Table> t = ReadCsvString("a\n1\n2\nhello\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->schema().field(0).type, DataType::kString);
  EXPECT_EQ(t->At(0, 0).as_string(), "1");
}

TEST(CsvTest, QuotedFieldsWithDelimitersAndEscapes) {
  Result<Table> t = ReadCsvString("a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->At(0, 0).as_string(), "x,y");
  EXPECT_EQ(t->At(0, 1).as_string(), "he said \"hi\"");
}

TEST(CsvTest, NoHeaderGeneratesColumnNames) {
  CsvReadOptions options;
  options.has_header = false;
  Result<Table> t = ReadCsvString("1,2\n3,4\n", options);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->schema().field(0).name, "c0");
  EXPECT_EQ(t->num_rows(), 2u);
}

TEST(CsvTest, RejectsRaggedRows) {
  EXPECT_FALSE(ReadCsvString("a,b\n1\n").ok());
}

TEST(CsvTest, RejectsEmptyInput) {
  EXPECT_FALSE(ReadCsvString("").ok());
  EXPECT_FALSE(ReadCsvString("\n\n").ok());
}

TEST(CsvTest, CrlfLineEndingsHandled) {
  Result<Table> t = ReadCsvString("a\r\n1\r\n2\r\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->At(0, 0).as_int64(), 1);
}

TEST(CsvTest, RoundTripPreservesContent) {
  Table original = TableBuilder()
                       .AddInt64Column("id", {1, 2})
                       .AddStringColumn("text", {"plain", "with,comma"})
                       .AddValueColumn("maybe", DataType::kDouble,
                                       {Value(1.5), Value::Null()})
                       .Build();
  std::string csv = WriteCsvString(original);
  Result<Table> parsed = ReadCsvString(csv);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_rows(), 2u);
  EXPECT_EQ(parsed->At(1, 1).as_string(), "with,comma");
  EXPECT_TRUE(parsed->At(1, 2).is_null());
  EXPECT_EQ(parsed->At(0, 2).as_double(), 1.5);
}

TEST(CsvTest, FileRoundTrip) {
  Table original = TableBuilder().AddInt64Column("v", {10, 20}).Build();
  std::string path = ::testing::TempDir() + "/nde_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(original, path).ok());
  Result<Table> parsed = ReadCsvFile(path);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->At(1, 0).as_int64(), 20);
}

TEST(CsvTest, MissingFileReturnsIOError) {
  EXPECT_EQ(ReadCsvFile("/nonexistent/nde.csv").status().code(),
            StatusCode::kIOError);
}

TEST(CsvTest, DirectoryReturnsIOError) {
  // A directory opens as a stream, but its first read fails.
  Result<Table> t = ReadCsvFile(::testing::TempDir());
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kIOError);
}

TEST(CsvTest, AllNullColumnDefaultsToString) {
  Result<Table> t = ReadCsvString("a,b\n1,\n2,\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->schema().field(1).type, DataType::kString);
}

TEST(CsvTest, IntegerCellsFollowStrtollGrammar) {
  // An optional sign and digits in int64's range make an integer; text one
  // past the range still parses as a double, so its column is double.
  Result<Table> t = ReadCsvString(
      "a,b,c\n"
      "+4,9223372036854775807,1\n"
      "-3,-9223372036854775808,9223372036854775808\n"
      "007,0,2\n");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->schema().field(0).type, DataType::kInt64);
  EXPECT_EQ(t->At(0, 0).as_int64(), 4);
  EXPECT_EQ(t->At(1, 0).as_int64(), -3);
  EXPECT_EQ(t->At(2, 0).as_int64(), 7);
  ASSERT_EQ(t->schema().field(1).type, DataType::kInt64);
  EXPECT_EQ(t->At(0, 1).as_int64(), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(t->At(1, 1).as_int64(), std::numeric_limits<int64_t>::min());
  ASSERT_EQ(t->schema().field(2).type, DataType::kDouble);
  EXPECT_EQ(t->At(1, 2).as_double(), 9223372036854775808.0);
}

// --- CSV negative paths -------------------------------------------------------

TEST(CsvTest, UnterminatedQuoteIsTypedError) {
  Result<Table> t = ReadCsvString("a,b\n\"unclosed,2\n");
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(t.status().message().find("unterminated quoted field"),
            std::string::npos);
}

TEST(CsvTest, OverlongFieldRejectedByByteLimit) {
  CsvReadOptions options;
  options.max_field_bytes = 8;
  std::string text = "a,b\nshort,";
  text += std::string(64, 'x');
  text += "\n";
  Result<Table> t = ReadCsvString(text, options);
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(t.status().message().find("over the 8-byte limit"),
            std::string::npos);
  // Unlimited (the default) accepts the same input.
  EXPECT_TRUE(ReadCsvString(text).ok());
}

TEST(CsvTest, OpenFailpointSurfacesTypedError) {
  failpoint::DisarmAll();
  ASSERT_TRUE(failpoint::Arm("csv.open=error(io_error:disk gone)").ok());
  Result<Table> t = ReadCsvFile("/definitely/not/used.csv");
  failpoint::DisarmAll();
  failpoint::ResetStats();
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kIOError);
  EXPECT_EQ(t.status().message(), "disk gone");
}

TEST(CsvTest, RecordFailpointFiresOnExactRecord) {
  failpoint::DisarmAll();
  // csv.record is keyed by the data-record index, so #N counts hits: the
  // third record read aborts the parse.
  ASSERT_TRUE(failpoint::Arm("csv.record=error(io_error:bad sector)#3").ok());
  Result<Table> t = ReadCsvString("a\n1\n2\n3\n4\n");
  failpoint::DisarmAll();
  failpoint::ResetStats();
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kIOError);
  EXPECT_EQ(t.status().message(), "bad sector");

  // A two-record input never reaches the third hit: the parse succeeds.
  ASSERT_TRUE(failpoint::Arm("csv.record=error(io_error:bad sector)#3").ok());
  EXPECT_TRUE(ReadCsvString("a\n1\n2\n").ok());
  failpoint::DisarmAll();
  failpoint::ResetStats();
}

// --- CSV edge-case hardening --------------------------------------------------
// Regressions for the quote-aware record scanner: quoted fields spanning
// lines, CRLF inside quotes, EOF without a final newline, and empty trailing
// fields. Each case was once mis-parsed by the line-based splitter.

TEST(CsvHardeningTest, QuotedFieldAtEofWithoutNewline) {
  Result<Table> t = ReadCsvString("a,b\n1,\"x,y\"");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->num_rows(), 1u);
  EXPECT_EQ(t->At(0, 0).as_int64(), 1);
  EXPECT_EQ(t->At(0, 1).as_string(), "x,y");
}

TEST(CsvHardeningTest, UnquotedLastFieldAtEofWithoutNewline) {
  Result<Table> t = ReadCsvString("a,b\n1,2\n3,4");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->At(1, 1).as_int64(), 4);
}

TEST(CsvHardeningTest, NewlineInsideQuotedFieldSpansRecords) {
  Result<Table> t = ReadCsvString("a,b\n\"line1\nline2\",7\n");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->num_rows(), 1u);
  EXPECT_EQ(t->At(0, 0).as_string(), "line1\nline2");
  EXPECT_EQ(t->At(0, 1).as_int64(), 7);
}

TEST(CsvHardeningTest, CrlfInsideQuotedFieldIsContent) {
  // An unquoted CRLF ends the record; a quoted one is two content bytes.
  Result<Table> t = ReadCsvString("a,b\r\n\"x\r\ny\",5\r\n");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->num_rows(), 1u);
  EXPECT_EQ(t->At(0, 0).as_string(), "x\r\ny");
  EXPECT_EQ(t->At(0, 1).as_int64(), 5);
}

TEST(CsvHardeningTest, EmptyTrailingFieldIsNull) {
  // Both with and without a final newline, "1," is the two fields [1, null].
  for (const char* text : {"a,b\n1,\n", "a,b\n1,"}) {
    Result<Table> t = ReadCsvString(text);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    ASSERT_EQ(t->num_rows(), 1u) << text;
    EXPECT_EQ(t->At(0, 0).as_int64(), 1);
    EXPECT_TRUE(t->At(0, 1).is_null()) << text;
  }
}

TEST(CsvHardeningTest, SingleColumnNullRowRoundTrips) {
  // A lone null cell would serialize as a blank line (which the reader drops
  // at end of input); the writer emits a quoted empty field instead.
  Table t = TableBuilder()
                .AddValueColumn("v", DataType::kInt64,
                                {Value(1), Value::Null(), Value(3)})
                .Build();
  Table shorter = t.SelectRows({0, 1});  // null row is last
  std::string csv = WriteCsvString(shorter);
  EXPECT_NE(csv.find("\"\""), std::string::npos);
  Result<Table> reread = ReadCsvString(csv);
  ASSERT_TRUE(reread.ok()) << reread.status().ToString();
  ASSERT_EQ(reread->num_rows(), 2u);
  EXPECT_TRUE(reread->At(1, 0).is_null());
}

TEST(CsvHardeningTest, ErrorLineNumbersAccountForMultilineFields) {
  // The bad record starts on physical line 4 (the quoted field above it
  // spans lines 2-3), and the error must say so.
  Result<Table> t = ReadCsvString("a\n\"x\ny\"\nbad,row\n");
  ASSERT_FALSE(t.ok());
  EXPECT_NE(t.status().message().find("line 4"), std::string::npos)
      << t.status().message();
}

TEST(CsvHardeningTest, UnterminatedQuoteReportsOpeningLine) {
  Result<Table> t = ReadCsvString("a\n1\n\"open\nmore\n");
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(t.status().message().find("line 3"), std::string::npos)
      << t.status().message();
}

TEST(CsvHardeningTest, TrailingBlankAndWhitespaceLinesDropped) {
  Result<Table> t = ReadCsvString("a,b\n1,2\n\n   \n\r\n");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->num_rows(), 1u);
}

TEST(CsvHardeningTest, LfDelimiterRejected) {
  CsvReadOptions options;
  options.delimiter = '\n';
  Result<Table> t = ReadCsvString("a\n1\n", options);
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
}

// --- CSV chunk boundaries ---------------------------------------------------
// The reader splits its input into kCsvChunkBytes chunks and parses them in
// parallel. Each case below puts a tricky byte sequence exactly across a
// chunk boundary and checks the table (or error) against the serial
// reference reader at one and four threads.

/// `head`, 64-byte filler records "0,xx...x\n" and one of 4 to 67 bytes, then
/// `tail`, with the filler sized so that byte `at` of `tail` lands on input
/// offset `offset`.
std::string PlaceAt(const std::string& head, const std::string& tail,
                    size_t at, size_t offset) {
  size_t filler = offset - at - head.size();
  NDE_CHECK_GE(filler, 4u);
  std::string text = head;
  text.reserve(offset - at + tail.size());
  size_t full_records = (filler - 4) / 64;
  for (size_t i = 0; i < full_records; ++i) {
    text += "0," + std::string(61, 'x') + "\n";
  }
  text += "0," + std::string(filler - 64 * full_records - 3, 'x') + "\n";
  text += tail;
  NDE_CHECK_EQ(text.size(), offset - at + tail.size());
  return text;
}

/// Cells compare with ==, except doubles, which compare bit for bit so that
/// NaN cells count as equal.
bool SameCell(const Value& a, const Value& b) {
  if (!a.is_double() || !b.is_double()) return a == b;
  double x = a.as_double(), y = b.as_double();
  return std::memcmp(&x, &y, sizeof(x)) == 0;
}

/// The first difference between two tables, or "" when they are equal.
std::string TableDiff(const Table& got, const Table& want) {
  if (!(got.schema() == want.schema())) {
    return got.schema().ToString() + " vs " + want.schema().ToString();
  }
  if (got.num_rows() != want.num_rows()) {
    return std::to_string(got.num_rows()) + " rows vs " +
           std::to_string(want.num_rows());
  }
  for (size_t c = 0; c < got.num_columns(); ++c) {
    for (size_t r = 0; r < got.num_rows(); ++r) {
      if (!SameCell(got.At(r, c), want.At(r, c))) {
        return "cell (" + std::to_string(r) + ", " + std::to_string(c) +
               "): '" + got.At(r, c).ToString() + "' vs '" +
               want.At(r, c).ToString() + "'";
      }
    }
  }
  return "";
}

/// Parses `text` at one and four threads and expects the reference reader's
/// table, or its error code and message, both times. Returns the parse.
Result<Table> ParseLikeReference(const std::string& text,
                                 const CsvReadOptions& options = {}) {
  Result<Table> want = csv_reference::ReadCsvString(text, options);
  Result<Table> got = Status::Internal("not parsed");
  for (size_t threads : {1, 4}) {
    SetDefaultNumThreads(threads);
    got = ReadCsvString(text, options);
    SetDefaultNumThreads(0);
    EXPECT_EQ(got.ok(), want.ok())
        << threads << " threads: " << got.status().ToString() << " vs "
        << want.status().ToString();
    if (!got.ok() || !want.ok()) {
      EXPECT_EQ(got.status().code(), want.status().code());
      EXPECT_EQ(got.status().message(), want.status().message());
      continue;
    }
    EXPECT_EQ(TableDiff(*got, *want), "") << threads << " threads";
  }
  return got;
}

TEST(CsvChunkTest, QuotedLfAtChunkBoundary) {
  // The quoted LF is the last byte of chunk 0, then the first of chunk 1:
  // either way chunk 1 starts inside quotes and must not start a record at
  // that LF.
  for (size_t at : {4u, 3u}) {
    std::string text = PlaceAt("a,b\n", "1,\"x\ny\"\n2,z\n", at,
                               kCsvChunkBytes);
    Result<Table> t = ParseLikeReference(text);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    EXPECT_EQ(t->At(t->num_rows() - 2, 1).as_string(), "x\ny");
    EXPECT_EQ(t->At(t->num_rows() - 1, 1).as_string(), "z");
  }
}

TEST(CsvChunkTest, EscapedQuoteSplitAcrossChunks) {
  // `""` with its first quote ending chunk 0 and its second starting chunk 1.
  std::string text =
      PlaceAt("a,b\n", "1,\"p\"\"q\"\n2,\"r\"\n", 4, kCsvChunkBytes);
  Result<Table> t = ParseLikeReference(text);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->At(t->num_rows() - 2, 1).as_string(), "p\"q");
  EXPECT_EQ(t->At(t->num_rows() - 1, 1).as_string(), "r");
}

TEST(CsvChunkTest, CrlfSplitAcrossChunks) {
  // CR ends chunk 0 and LF starts chunk 1: one line break, no CR in the cell.
  std::string text = PlaceAt("a,b\r\n", "1,p\r\n2,q\r\n", 3, kCsvChunkBytes);
  Result<Table> t = ParseLikeReference(text);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->At(t->num_rows() - 2, 1).as_string(), "p");
  EXPECT_EQ(t->At(t->num_rows() - 1, 1).as_string(), "q");
}

TEST(CsvChunkTest, LoneCrAtChunkBoundaryIsContent) {
  std::string text = PlaceAt("a,b\n", "1,p\rq\n2,r\n", 3, kCsvChunkBytes);
  Result<Table> t = ParseLikeReference(text);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->At(t->num_rows() - 2, 1).as_string(), "p\rq");
}

TEST(CsvChunkTest, BlankAndRaggedRecordsAtChunkBoundary) {
  // A blank record starting chunk 1 fails if a record follows it...
  std::string blank_inside =
      PlaceAt("a,b\n", "1,p\n\n2,q\n", 4, kCsvChunkBytes);
  Result<Table> t = ParseLikeReference(blank_inside);
  ASSERT_FALSE(t.ok());
  EXPECT_NE(t.status().message().find("has 1 fields, expected 2"),
            std::string::npos);
  // ...and is dropped with the other trailing blank lines if none does.
  t = ParseLikeReference(PlaceAt("a,b\n", "1,p\n\n  \r\n\n", 4,
                                 kCsvChunkBytes));
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->At(t->num_rows() - 1, 1).as_string(), "p");
  // A single-column blank record starting chunk 1 is a null row.
  std::string single = "a\n";
  while (single.size() + 64 + 2 <= kCsvChunkBytes - 2) {
    single += std::string(63, 'x') + "\n";
  }
  single += std::string(kCsvChunkBytes - 2 - single.size() - 1, 'x') + "\n";
  t = ParseLikeReference(single + "1\n\n2\n");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_TRUE(t->At(t->num_rows() - 2, 0).is_null());
  EXPECT_EQ(t->At(t->num_rows() - 1, 0).as_string(), "2");
  // A ragged record straddling the boundary.
  t = ParseLikeReference(PlaceAt("a,b\n", "1,2,3\n4,5\n", 2, kCsvChunkBytes));
  ASSERT_FALSE(t.ok());
  EXPECT_NE(t.status().message().find("has 3 fields, expected 2"),
            std::string::npos);
}

TEST(CsvChunkTest, FieldCountErrorInLastChunkReportsItsLine) {
  // Three chunks; the only bad record lies in the last one, after a quoted
  // field spanning two lines. Its line is one plus the LF bytes before it.
  // The five-byte header puts the chunk boundaries inside filler records.
  std::string text = PlaceAt("a,bb\n", "1,\"x\ny\"\n", 0,
                             2 * kCsvChunkBytes + 100);
  text += "2,p\nbad\n3,q\n";
  size_t bad_line = 1;
  size_t bad_at = text.find("bad\n");
  for (size_t i = 0; i < bad_at; ++i) bad_line += text[i] == '\n';
  Result<Table> t = ParseLikeReference(text);
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().message(),
            "line " + std::to_string(bad_line) + " has 1 fields, expected 2");
}

TEST(CsvChunkTest, UnterminatedQuoteOutranksEarlierRecordErrors) {
  // A ragged record in chunk 0 and a quote left open in chunk 1: the quote
  // is reported, against the line it opened on.
  std::string text = PlaceAt("a,b\n1\n", "2,\"open\n3,4\n", 2,
                             kCsvChunkBytes + 10);
  Result<Table> t = ParseLikeReference(text);
  ASSERT_FALSE(t.ok());
  EXPECT_NE(t.status().message().find("unterminated quoted field"),
            std::string::npos);
}

TEST(CsvChunkTest, RecordFailpointCountsRecordsAcrossChunks) {
  // Armed, csv.record fires in record order whatever the thread count, so
  // `#N` aborts at the Nth data record even when it lies in chunk 1.
  std::string text = PlaceAt("a,b\n", "1,p\n", 0, kCsvChunkBytes);
  size_t records = 0;
  for (char c : text) records += c == '\n';
  --records;  // the header
  for (size_t threads : {1, 4}) {
    SetDefaultNumThreads(threads);
    failpoint::DisarmAll();
    failpoint::ResetStats();
    ASSERT_TRUE(failpoint::Arm("csv.record=error(io_error:bad sector)#" +
                               std::to_string(records))
                    .ok());
    Result<Table> t = ReadCsvString(text);
    failpoint::DisarmAll();
    failpoint::ResetStats();
    SetDefaultNumThreads(0);
    ASSERT_FALSE(t.ok());
    EXPECT_EQ(t.status().message(), "bad sector");
  }
}

TEST(CsvChunkTest, FileReadThroughAPipeParses) {
  // A FIFO has no size to reserve the text from: the reader reads it to its
  // end, here past two chunks and many pipe buffers.
  std::string path = ::testing::TempDir() + "/nde_csv_test.fifo";
  std::remove(path.c_str());
  ASSERT_EQ(mkfifo(path.c_str(), 0600), 0) << std::strerror(errno);
  std::string text = PlaceAt("a,b\n", "1,p\n", 0, 2 * kCsvChunkBytes + 100);
  std::thread writer([&] {
    std::ofstream out(path, std::ios::binary);  // waits for the reader
    out << text;
  });
  Result<Table> parsed = ReadCsvFile(path);
  writer.join();
  std::remove(path.c_str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Result<Table> want = csv_reference::ReadCsvString(text);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(TableDiff(*parsed, *want), "");
}

}  // namespace
}  // namespace nde
