#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/csv.hpp"
#include "common/table.hpp"

namespace fttt {
namespace {

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::ostringstream os;
  os << t;
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  // All data lines equal width (alignment check): header and rows.
  std::istringstream in(out);
  std::string header;
  std::string rule;
  std::string row1;
  std::getline(in, header);
  std::getline(in, rule);
  std::getline(in, row1);
  EXPECT_EQ(header.size(), row1.size());
}

TEST(TextTable, RowArityMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TextTable, NumFormatsFixedPrecision) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
  EXPECT_EQ(TextTable::num(-0.5, 1), "-0.5");
}

TEST(TextTable, RowCount) {
  TextTable t({"x"});
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"1"});
  t.add_row({"2"});
  EXPECT_EQ(t.rows(), 2u);
}

TEST(PrintBanner, ContainsTitle) {
  std::ostringstream os;
  print_banner(os, "Fig. 11(a)");
  EXPECT_NE(os.str().find("Fig. 11(a)"), std::string::npos);
}

class CsvWriterTest : public ::testing::Test {
 protected:
  // One file per test and process: ctest runs each test as its own
  // process, and a shared path lets one test's TearDown delete the file
  // another is reading.
  std::string path_ = ::testing::TempDir() + "fttt_csv_" +
                      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
                      std::to_string(::getpid()) + ".csv";
  void TearDown() override { std::remove(path_.c_str()); }

  std::string read_back() {
    std::ifstream in(path_);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }
};

TEST_F(CsvWriterTest, WritesPlainRows) {
  {
    CsvWriter w(path_);
    w.write_row(std::vector<std::string>{"a", "b", "c"});
    w.write_row(std::vector<double>{1.0, 2.5, -3.0});
  }
  EXPECT_EQ(read_back(), "a,b,c\n1,2.5,-3\n");
}

TEST_F(CsvWriterTest, QuotesSpecialCharacters) {
  {
    CsvWriter w(path_);
    w.write_row(std::vector<std::string>{"has,comma", "has\"quote", "plain"});
  }
  EXPECT_EQ(read_back(), "\"has,comma\",\"has\"\"quote\",plain\n");
}

TEST(CsvWriter, UnopenablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv"), std::runtime_error);
}

}  // namespace
}  // namespace fttt
