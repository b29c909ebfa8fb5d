// CSV writer, table printer, flags parser and string helpers.
#include <gtest/gtest.h>

#include "util/assert.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/strings.h"
#include "util/table.h"

namespace manet::util {
namespace {

TEST(CsvEscapeTest, PlainFieldsPassThrough) {
  EXPECT_EQ(csv_escape("hello"), "hello");
  EXPECT_EQ(csv_escape("12.5"), "12.5");
}

TEST(CsvEscapeTest, QuotesSpecials) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvWriterTest, InMemoryRows) {
  CsvWriter w;
  w.row({"a", "b,c"});
  w.row_values("x", 1, 2.5);
  EXPECT_EQ(w.rows_written(), 2u);
  EXPECT_EQ(w.str(), "a,\"b,c\"\nx,1,2.5\n");
}

TEST(CsvWriterTest, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/manet_csv_test.csv";
  {
    CsvWriter w(path);
    w.row({"h1", "h2"});
    w.row_values(10, 20);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "h1,h2");
  std::getline(in, line);
  EXPECT_EQ(line, "10,20");
}

TEST(CsvWriterTest, BadPathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/foo.csv"), CheckError);
}

TEST(TableTest, AlignsAndFormats) {
  Table t({"name", "value"});
  t.add("alpha", 1);
  t.add("b", 22.5);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22.50"), std::string::npos);  // default 2 decimals
  EXPECT_NE(s.find("-----"), std::string::npos);  // separator line
}

TEST(TableTest, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
  EXPECT_THROW(Table({}), CheckError);
}

TEST(TableTest, FmtPrecision) {
  EXPECT_EQ(Table::fmt(3.14159, 3), "3.142");
  EXPECT_EQ(Table::fmt(2.0, 0), "2");
}

TEST(FlagsTest, ParsesAllSyntaxes) {
  // Positionals come before flags: a bare token after "--name" is taken as
  // that flag's value.
  const char* argv[] = {"prog", "pos1", "--a", "1", "--b=xyz", "--flag"};
  Flags f(6, argv);
  EXPECT_EQ(f.get_int("a", 0), 1);
  EXPECT_EQ(f.get_string("b", ""), "xyz");
  EXPECT_TRUE(f.get_bool("flag", false));
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "pos1");
  f.finish();
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Flags f(1, argv);
  EXPECT_EQ(f.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(f.get_double("missing", 2.5), 2.5);
  EXPECT_FALSE(f.has("missing"));
  f.finish();
}

TEST(FlagsTest, TrailingBareFlagIsBoolean) {
  const char* argv[] = {"prog", "--verbose"};
  Flags f(2, argv);
  EXPECT_TRUE(f.get_bool("verbose", false));
  f.finish();
}

TEST(FlagsTest, RejectsMalformedValues) {
  const char* argv[] = {"prog", "--n", "abc"};
  Flags f(3, argv);
  EXPECT_THROW(f.get_int("n", 0), CheckError);

  // Numbers must be non-empty and finite: `--time inf` would never end.
  const char* doubles[] = {"prog", "--a", "inf", "--b", "nan",
                           "--c", "-inf", "--d="};
  Flags g(8, doubles);
  for (const char* name : {"a", "b", "c", "d"}) {
    EXPECT_THROW(g.get_double(name, 1.0), CheckError) << name;
  }

  // Unsigned integers are whole-string and in range: no wrap of "-1" to
  // 2^64 - 1, no truncation of "2.5", no overflow past 2^64 - 1.
  const char* u64s[] = {"prog",  "--neg", "-1",   "--frac",
                        "2.5",   "--big", "18446744073709551616",
                        "--hex", "0x10",  "--empty="};
  Flags h(10, u64s);
  for (const char* name : {"neg", "frac", "big", "hex", "empty"}) {
    EXPECT_THROW(h.get_u64(name, 1), CheckError) << name;
  }
}

TEST(FlagsTest, U64CoversTheFullSeedRange) {
  const char* argv[] = {"prog", "--seed", "3000000000", "--max",
                        "18446744073709551615"};
  Flags f(5, argv);
  EXPECT_EQ(f.get_u64("seed", 1), 3000000000u);
  EXPECT_EQ(f.get_u64("max", 1), 18446744073709551615u);
  EXPECT_EQ(f.get_u64("absent", 7), 7u);
  f.finish();
}

TEST(FlagsTest, FinishRejectsUnknownFlags) {
  const char* argv[] = {"prog", "--typo", "1"};
  Flags f(3, argv);
  EXPECT_THROW(f.finish(), CheckError);
}

TEST(FlagsTest, BoolParsing) {
  const char* argv[] = {"prog", "--x", "off", "--y", "1"};
  Flags f(5, argv);
  EXPECT_FALSE(f.get_bool("x", true));
  EXPECT_TRUE(f.get_bool("y", false));
  const char* bad[] = {"prog", "--z", "maybe"};
  Flags g(3, bad);
  EXPECT_THROW(g.get_bool("z", false), CheckError);
}

TEST(StringsTest, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringsTest, ToLowerAndStartsWith) {
  EXPECT_EQ(to_lower("MoBiC"), "mobic");
  EXPECT_TRUE(starts_with("mobic_history:0.5", "mobic_history:"));
  EXPECT_FALSE(starts_with("mobic", "mobic_history"));
}

TEST(StringsTest, Join) {
  EXPECT_EQ(join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(join({}, ","), "");
}

TEST(StringsTest, ParseDoubleList) {
  const auto v = parse_double_list("10, 25.5 ,50");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[0], 10.0);
  EXPECT_DOUBLE_EQ(v[1], 25.5);
  EXPECT_DOUBLE_EQ(v[2], 50.0);
  EXPECT_THROW(parse_double_list("1,,2"), CheckError);
  EXPECT_THROW(parse_double_list("1,x"), CheckError);
}

}  // namespace
}  // namespace manet::util
