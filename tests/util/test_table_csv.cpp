#include <gtest/gtest.h>

#include <sstream>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace greenhpc::util {
namespace {

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"bb", "22"});
  const std::string out = t.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  // Header and rows share a line layout: every line ends without trailing
  // content loss.
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, TitleIsRendered) {
  Table t({"c"});
  const std::string out = t.str("My Title");
  EXPECT_EQ(out.rfind("== My Title ==", 0), 0u);
}

TEST(Table, NumericRowFormatting) {
  Table t({"label", "x", "y"});
  t.add_row({"row", Table::fmt(1.234567, 2), Table::fmt(2.0, 2)});
  const std::string out = t.str();
  EXPECT_NE(out.find("1.23"), std::string::npos);
  EXPECT_NE(out.find("2.00"), std::string::npos);
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_NO_THROW((void)t.str());
}

TEST(Table, EmptyHeaderThrows) {
  EXPECT_THROW(Table({}), greenhpc::InvalidArgument);
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(Table::fmt(3.14159, 3), "3.142");
  EXPECT_EQ(Table::fmt(2.0, 0), "2");
}

TEST(Csv, PlainRow) {
  std::ostringstream os;
  CsvWriter w(os);
  w.write_row({"a", "b", "c"});
  EXPECT_EQ(os.str(), "a,b,c\n");
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("with,comma"), "\"with,comma\"");
  EXPECT_EQ(CsvWriter::escape("with\"quote"), "\"with\"\"quote\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, NumericRowRoundTrips) {
  std::ostringstream os;
  CsvWriter w(os);
  w.write_row({"label", CsvWriter::fmt(1.5), CsvWriter::fmt(2.25), CsvWriter::fmt(1e-7)});
  EXPECT_EQ(os.str(), "label,1.5,2.25,1e-07\n");
}

}  // namespace
}  // namespace greenhpc::util
