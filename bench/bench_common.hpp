// Shared plumbing for the experiment-reproduction benches.
//
// Every bench binary prints the paper table/figure it reproduces as text
// rows and optionally mirrors them to CSV:
//   bench_figXX [--fast] [--trials N] [--threads N] [--csv out.csv]
// --fast shrinks trial counts/durations so the full bench suite stays in
// CI-friendly time; shapes remain, confidence intervals widen. --threads
// pins the worker count (0 = the shared global pool) so results recorded
// on heterogeneous machines stay attributable.
#pragma once

#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "common/csv.hpp"
#include "common/table.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/scenario.hpp"

namespace fttt::bench {

struct Options {
  bool fast = false;
  std::size_t trials = 10;      ///< Monte-Carlo trials per sweep point
  double duration = 30.0;       ///< seconds per tracking run
  std::size_t threads = 0;      ///< worker count; 0 = shared global pool
  std::optional<std::string> csv_path;
};

/// Parse the common flags; an unknown flag, a missing or non-numeric
/// value, or `--trials 0` prints usage text and exits 2.
Options parse_options(int argc, char** argv);

/// Print `usage: argv0 flags` and exit 2.
[[noreturn]] void usage_exit(const char* argv0, const char* flags);

/// The decimal count after flag `argv[i]` (advancing `i`); a missing,
/// signed or non-numeric value, or one below `min`, is a usage error.
std::size_t count_value(int argc, char** argv, int& i, std::size_t min,
                        const char* flags);

/// Scenario with the bench-suite defaults applied (Table 1 values with a
/// coarser 2 m preprocessing grid so sweeps finish in minutes).
ScenarioConfig default_scenario(const Options& opt);

/// The pool `--threads` selected: the shared global pool for 0 (the
/// default), otherwise an owned pool with exactly that many workers.
/// Bench JSON rows should record `pool().thread_count()` so trajectory
/// points carry the parallelism they were measured at.
class BenchPool {
 public:
  explicit BenchPool(std::size_t threads);
  ThreadPool& pool() { return owned_ ? *owned_ : ThreadPool::global(); }

 private:
  std::unique_ptr<ThreadPool> owned_;
};

/// Print the Table 1 parameter block the run uses.
void print_scenario(std::ostream& os, const ScenarioConfig& cfg);

/// Optional CSV sink: no-ops when --csv was not given.
class CsvSink {
 public:
  explicit CsvSink(const Options& opt);
  void row(const std::vector<std::string>& cells);
  void row(const std::vector<double>& cells);

 private:
  std::unique_ptr<CsvWriter> writer_;
};

}  // namespace fttt::bench
