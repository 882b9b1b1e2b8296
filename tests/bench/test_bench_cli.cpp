// Self-test of the shared bench plumbing: bench_common's flag parsing,
// the --threads pool selection and the scenario defaults the whole bench
// suite inherits, and the perf harness's parser, sample statistics and
// interleaved rounds.
#include "bench_common.hpp"
#include "perf_harness.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace fttt::bench {
namespace {

/// Call `parser(argc, argv)` on `bench_test args...`.
template <typename Parser>
auto with_argv(std::vector<std::string> args, Parser&& parser) {
  args.insert(args.begin(), "bench_test");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) argv.push_back(a.data());
  return parser(static_cast<int>(argv.size()), argv.data());
}

Options parse(std::vector<std::string> args) {
  return with_argv(std::move(args), parse_options);
}

PerfOptions parse_perf(std::vector<std::string> args) {
  return with_argv(std::move(args), [](int argc, char** argv) {
    return parse_perf_options("matcher", argc, argv);
  });
}

TEST(BenchCli, Defaults) {
  const Options opt = parse({});
  EXPECT_FALSE(opt.fast);
  EXPECT_EQ(opt.trials, 10u);
  EXPECT_DOUBLE_EQ(opt.duration, 30.0);
  EXPECT_EQ(opt.threads, 0u);
  EXPECT_FALSE(opt.csv_path.has_value());
}

TEST(BenchCli, FastShrinksBudget) {
  const Options opt = parse({"--fast"});
  EXPECT_TRUE(opt.fast);
  EXPECT_EQ(opt.trials, 3u);
  EXPECT_DOUBLE_EQ(opt.duration, 10.0);
}

TEST(BenchCli, TrialsAndThreadsParsed) {
  const Options opt = parse({"--trials", "7", "--threads", "3"});
  EXPECT_EQ(opt.trials, 7u);
  EXPECT_EQ(opt.threads, 3u);
}

TEST(BenchCli, ThreadsAfterFastSticks) {
  const Options opt = parse({"--fast", "--threads", "2"});
  EXPECT_TRUE(opt.fast);
  EXPECT_EQ(opt.threads, 2u);
}

TEST(BenchCli, CsvPathParsed) {
  const Options opt = parse({"--csv", "out.csv"});
  ASSERT_TRUE(opt.csv_path.has_value());
  EXPECT_EQ(*opt.csv_path, "out.csv");
}

// A value that is not a plain decimal count, or a zero trial count, is
// refused with the usage text and status 2: silently reading it as 0
// once ran a bench on the global pool, or printed a table of 0.00
// errors that read as perfect tracking.
TEST(BenchCli, RefusesBadValues) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";  // the global pool may run
  const auto usage = testing::ExitedWithCode(2);
  EXPECT_EXIT(parse({"--trials", "0"}), usage, "usage: bench_test");
  EXPECT_EXIT(parse({"--trials", "-3"}), usage, "usage");
  EXPECT_EXIT(parse({"--trials", "3x"}), usage, "usage");
  EXPECT_EXIT(parse({"--threads", "abc"}), usage, "usage");
  EXPECT_EXIT(parse({"--threads", ""}), usage, "usage");
  EXPECT_EXIT(parse({"--trials"}), usage, "usage");
  EXPECT_EXIT(parse({"--bogus"}), usage, "usage");
}

TEST(BenchCli, BenchPoolZeroIsGlobal) {
  BenchPool pool(0);
  EXPECT_EQ(&pool.pool(), &ThreadPool::global());
}

TEST(BenchCli, BenchPoolOwnsRequestedWorkers) {
  BenchPool pool(3);
  EXPECT_NE(&pool.pool(), &ThreadPool::global());
  EXPECT_EQ(pool.pool().thread_count(), 3u);
}

TEST(BenchCli, DefaultScenarioAppliesOptions) {
  Options opt;
  opt.duration = 12.5;
  const ScenarioConfig cfg = default_scenario(opt);
  EXPECT_DOUBLE_EQ(cfg.duration, 12.5);
  EXPECT_DOUBLE_EQ(cfg.grid_cell, 2.0);
  EXPECT_EQ(cfg.channel, Channel::kBounded);
}

TEST(PerfHarness, FullAndFastDefaults) {
  const PerfOptions full = parse_perf({});
  EXPECT_FALSE(full.fast);
  EXPECT_EQ(full.json_path, "BENCH_matcher.json");
  EXPECT_EQ(full.threads, 0u);
  EXPECT_EQ(full.rounds(), 9u);

  const PerfOptions fast = parse_perf({"--fast", "--json", "out.json", "--threads", "4"});
  EXPECT_TRUE(fast.fast);
  EXPECT_EQ(fast.json_path, "out.json");
  EXPECT_EQ(fast.threads, 4u);
  EXPECT_EQ(fast.rounds(), 7u);
}

// The per-bench size and repeat flags are gone: only --fast, --json and
// --threads are accepted, and --threads must be a count.
TEST(PerfHarness, RefusesUnknownFlagsAndBadValues) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";  // the global pool may run
  const auto usage = testing::ExitedWithCode(2);
  for (const char* flag : {"--trials", "--repeats", "--vectors", "--builds", "--tracks",
                           "--ticks", "--churn", "--csv"})
    EXPECT_EXIT(parse_perf({flag, "3"}), usage, "usage: bench_test") << flag;
  EXPECT_EXIT(parse_perf({"--threads", "abc"}), usage, "usage");
  EXPECT_EXIT(parse_perf({"--threads", "-1"}), usage, "usage");
  EXPECT_EXIT(parse_perf({"--json"}), usage, "usage");
}

TEST(PerfHarness, MedianAndSpread) {
  const SampleStats odd = sample_stats({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(odd.median, 2.0);
  EXPECT_DOUBLE_EQ(odd.spread, 1.0);  // (3 - 1) / 2

  const SampleStats even = sample_stats({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(even.median, 2.5);
  EXPECT_DOUBLE_EQ(even.spread, 1.2);  // (4 - 1) / 2.5

  const SampleStats one = sample_stats({0.5});
  EXPECT_DOUBLE_EQ(one.median, 0.5);
  EXPECT_DOUBLE_EQ(one.spread, 0.0);

  const SampleStats per = odd.per(4.0);
  EXPECT_DOUBLE_EQ(per.median, 0.5);
  EXPECT_DOUBLE_EQ(per.spread, 1.0);
}

TEST(PerfHarness, EveryVariantRunsOncePerRoundInOrder) {
  std::vector<std::string> log;
  const auto logged = [&log](std::string what) { return [&log, what] { log.push_back(what); }; };
  const std::vector<SampleStats> stats =
      time_rounds(3, {{logged("a")}, {logged("b"), logged("b.setup")}, {logged("c")}});
  ASSERT_EQ(stats.size(), 3u);
  std::vector<std::string> want;
  for (int r = 0; r < 3; ++r) want.insert(want.end(), {"a", "b.setup", "b", "c"});
  EXPECT_EQ(log, want);
  for (const SampleStats& s : stats) EXPECT_GE(s.median, 0.0);
}

}  // namespace
}  // namespace fttt::bench
