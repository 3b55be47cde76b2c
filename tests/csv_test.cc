#include "common/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/table.h"

namespace urr {
namespace {

TEST(CsvTest, SplitsPlainLine) {
  auto f = SplitCsvLine("a,b,c");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[2], "c");
}

TEST(CsvTest, SplitsQuotedFields) {
  auto f = SplitCsvLine("\"a,b\",c,\"he said \"\"hi\"\"\"");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "a,b");
  EXPECT_EQ(f[1], "c");
  EXPECT_EQ(f[2], "he said \"hi\"");
}

TEST(CsvTest, EmptyFieldsPreserved) {
  auto f = SplitCsvLine("a,,c,");
  ASSERT_EQ(f.size(), 4u);
  EXPECT_EQ(f[1], "");
  EXPECT_EQ(f[3], "");
}

TEST(CsvTest, ParseRoundTrip) {
  CsvTable t;
  t.header = {"x", "name"};
  t.rows = {{"1", "alpha"}, {"2", "with,comma"}};
  auto parsed = ParseCsv(ToCsv(t));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->header, t.header);
  EXPECT_EQ(parsed->rows, t.rows);
}

TEST(CsvTest, ParseRejectsRaggedRows) {
  auto r = ParseCsv("a,b\n1,2,3\n");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, ParseRejectsEmpty) {
  EXPECT_FALSE(ParseCsv("").ok());
}

TEST(CsvTest, ColumnIndex) {
  CsvTable t;
  t.header = {"x", "y"};
  EXPECT_EQ(t.ColumnIndex("y"), 1);
  EXPECT_EQ(t.ColumnIndex("z"), -1);
}

TEST(CsvTest, FileRoundTrip) {
  CsvTable t;
  t.header = {"k", "v"};
  t.rows = {{"1", "one"}};
  const std::string path = ::testing::TempDir() + "/urr_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(path, t).ok());
  auto back = ReadCsvFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->rows, t.rows);
  std::remove(path.c_str());
}

TEST(CsvTest, ReadMissingFileFails) {
  auto r = ReadCsvFile("/nonexistent/path/x.csv");
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  // A directory opens but cannot be read: a read error, not an empty table.
  auto dir = ReadCsvFile(::testing::TempDir());
  EXPECT_EQ(dir.status().code(), StatusCode::kIOError);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"longer", "22"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("| name   | value |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 22    |"), std::string::npos);
}

TEST(TablePrinterTest, NumFormatsPrecision) {
  EXPECT_EQ(TablePrinter::Num(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::Num(2.0, 0), "2");
}

}  // namespace
}  // namespace urr
