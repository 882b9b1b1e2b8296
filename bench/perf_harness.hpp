// One harness for the perf benches (bench_perf_*): the CLI, the
// interleaved timing rounds, the failure path and the BENCH_*.json
// trajectory writer that tools/fttt_perfcmp.py gates (docs/perf.md).
//
//   bench_perf_<name> [--fast] [--json PATH] [--threads N]
//
// --fast selects the CI smoke shape (7 rounds instead of 9, smaller
// workloads), --json the trajectory path (default BENCH_<name>.json),
// --threads the worker count of the pool every pooled engine runs on
// (0 = the shared global pool). Each row reports the median over rounds
// and its spread, and carries the worker count of the pool it ran on:
// perfcmp compares a row only against a baseline taken at that count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/facemap.hpp"
#include "core/sampling_vector.hpp"

namespace fttt::bench {

struct PerfOptions {
  bool fast = false;
  std::string json_path;
  std::size_t threads = 0;  ///< 0 = shared global pool
  std::size_t rounds() const { return fast ? 7 : 9; }
};

/// Parse the perf flags of bench `name`; anything else (an unknown flag,
/// a missing or non-numeric value) prints usage text and exits 2.
PerfOptions parse_perf_options(const std::string& name, int argc, char** argv);

/// Median and relative spread ((max - min) / median) of a sample.
struct SampleStats {
  double median = 0.0;
  double spread = 0.0;
  SampleStats per(double ops) const { return {median / ops, spread}; }
};
SampleStats sample_stats(std::vector<double> samples);

/// One timed variant: `setup` (untimed, may be empty) then `run` (timed).
struct Variant {
  std::function<void()> run;
  std::function<void()> setup = {};
};

/// Run `rounds` rounds; each runs every variant once, in order, back to
/// back, so a noisy phase of the host hits every variant alike. Returns
/// each variant's wall-seconds stats over the rounds.
std::vector<SampleStats> time_rounds(std::size_t rounds,
                                     const std::vector<Variant>& variants);

/// Named numbers: a row's gated metrics, a trajectory's scenario.
using Metrics = std::vector<std::pair<std::string, double>>;

/// One BENCH_*.json results row.
struct PerfRow {
  std::string name;
  std::size_t batch;
  std::size_t threads;  ///< workers of the pool the row's engine ran on
  SampleStats seconds;  ///< per operation
  Metrics metrics = {};
  std::string unit = {};  ///< what one operation is; empty = the bench's
};

/// `n` localization queries against `map`: signatures of random faces
/// with three components re-drawn and ~10% '*' unknowns (missing reads),
/// deterministic in `seed`.
std::vector<SamplingVector> signature_workload(const FaceMap& map, std::size_t n,
                                               std::uint64_t seed);

/// Print `bench_perf_<name>: message` and exit 1: a correctness gate or
/// the trajectory write failed.
[[noreturn]] void fail(const std::string& message);

class PerfBench {
 public:
  /// Parses the CLI; `unit` names one operation of the rows ("loc", ...).
  PerfBench(std::string name, std::string unit, int argc, char** argv);

  bool fast() const { return opt_.fast; }
  ThreadPool& pool() { return pool_.pool(); }
  std::size_t threads() { return pool().thread_count(); }

  std::vector<SampleStats> time(const std::vector<Variant>& variants) const {
    return time_rounds(opt_.rounds(), variants);
  }
  void add(PerfRow row) { rows_.push_back(std::move(row)); }

  /// Print the report and write the trajectory; returns main's status.
  int finish(const Metrics& scenario);

 private:
  std::string name_;
  std::string unit_;
  PerfOptions opt_;
  BenchPool pool_;
  std::vector<PerfRow> rows_;
};

}  // namespace fttt::bench
