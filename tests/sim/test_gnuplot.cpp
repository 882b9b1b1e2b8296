#include "sim/gnuplot.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace fttt {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class GnuplotTest : public ::testing::Test {
 protected:
  // One directory per test and process: ctest runs each test as its own
  // process, and shared t.dat/t.gp paths let one test's TearDown delete
  // the files another is reading.
  std::string dir_ = ::testing::TempDir() + "fttt_gnuplot_" +
                     ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
                     std::to_string(::getpid());
  void SetUp() override { std::filesystem::create_directories(dir_); }
  void TearDown() override { std::filesystem::remove_all(dir_); }
};

TEST_F(GnuplotTest, WritesDataBlocksAndScript) {
  GnuplotExporter gp("t");
  gp.set_labels("time (s)", "error (m)");
  gp.add_series("FTTT", {0.0, 1.0, 2.0}, {3.0, 2.0, 1.0});
  gp.add_series("PM", {0.0, 1.0}, {5.0, 4.0});
  gp.write(dir_);

  const std::string dat = slurp(dir_ + "/t.dat");
  EXPECT_NE(dat.find("# FTTT"), std::string::npos);
  EXPECT_NE(dat.find("# PM"), std::string::npos);
  EXPECT_NE(dat.find("0 3"), std::string::npos);
  EXPECT_NE(dat.find("\n\n\n"), std::string::npos);  // block separator

  const std::string script = slurp(dir_ + "/t.gp");
  EXPECT_NE(script.find("set xlabel 'time (s)'"), std::string::npos);
  EXPECT_NE(script.find("index 0"), std::string::npos);
  EXPECT_NE(script.find("index 1"), std::string::npos);
  EXPECT_NE(script.find("title 'FTTT'"), std::string::npos);
}

TEST_F(GnuplotTest, ScatterUsesPoints) {
  GnuplotExporter gp("t");
  gp.add_scatter("estimates", {1.0}, {2.0});
  gp.write(dir_);
  EXPECT_NE(slurp(dir_ + "/t.gp").find("with points"), std::string::npos);
}

TEST_F(GnuplotTest, SeriesStructValidation) {
  GnuplotExporter gp("t");
  EXPECT_THROW(gp.add_series("bad", {1.0, 2.0}, {1.0}), std::invalid_argument);
  Series s;
  s.label = "ok";
  s.push(1.0, 2.0);
  gp.add_series(s);
  EXPECT_EQ(gp.series_count(), 1u);
}

TEST(Gnuplot, EmptyNameRejected) {
  EXPECT_THROW(GnuplotExporter(""), std::invalid_argument);
}

TEST(Gnuplot, UnwritableDirThrows) {
  GnuplotExporter gp("t");
  gp.add_series("s", {1.0}, {1.0});
  EXPECT_THROW(gp.write("/nonexistent-dir-xyz"), std::runtime_error);
}

}  // namespace
}  // namespace fttt
