// Shared plumbing of the benchmark binary: the run options, the metric
// report every workload fills, and small measurement helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "spans.hpp"

namespace bench {

/// Command-line options of one workload run.
struct Options {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{0.0};  ///< measured time budget of the run (required)
  std::string trace_dir;  ///< non-empty: traced run, spans + layers written here
  bool setup_only{false};  ///< --setup-only: one set-up sample, see report_setup
};

/// One reported number.
struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

/// Everything a workload run reports. `metrics` are the end-to-end
/// numbers, `layers` the per-layer numbers of a traced run, `info` the
/// context printed beside them (sample counts, validity checks).
struct Report {
  std::string workload;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<Metric> metrics;
  std::vector<Metric> layers;
  std::vector<Metric> info;

  void metric(std::string name, double value, std::string unit);
  /// A timed end-to-end metric measured at `slowdown` (HostSpeed): a
  /// duration is divided by it, a rate multiplied, and the value as
  /// measured is noted beside it as raw.<name>.
  void duration(const std::string& name, double value, const std::string& unit,
                double slowdown);
  void rate(const std::string& name, double value, const std::string& unit, double slowdown);
  void layer(std::string name, double value, std::string unit);
  void note(std::string name, double value, std::string unit = "");
};

/// Thrown by a correctness gate; main() prints it and exits 1 without
/// printing a single metric.
struct GateFailure {
  std::string message;
};

[[noreturn]] void gate_fail(const std::string& message);

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

inline double ms_since(std::uint64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) / 1e6;
}

/// Nearest-rank percentile of `v` (sorted in place); 0 for an empty set.
double percentile(std::vector<double>& v, double p);

/// First quartile, median and 90th percentile of `v` (sorted in place),
/// interpolated linearly between closest ranks.
struct Summary {
  double q25{0.0};
  double median{0.0};
  double p90{0.0};
};
Summary summarize(std::vector<double>& v);

/// The first quartile over `windows` (each sorted in place; empty ones
/// skipped) of each window's nearest-rank p-th percentile: the latency a
/// phase holds in its better windows. The hypervisor now and then stalls
/// the run's vCPUs for milliseconds at a time, in stretches of seconds;
/// a window inside such a stretch reads what the host did, not the code.
double windowed_percentile(std::vector<std::vector<double>>& windows, double p);

/// VmHWM of this process in MiB (0 when /proc is unavailable).
double peak_rss_mb();

/// Logical CPUs available to the run (at least 3, the fewest the serve
/// thread layout needs).
std::size_t cpu_count();

/// Sleep until `deadline_ns` (steady clock), in slices short enough that
/// the wake-up lateness stays well under the load generator's budget.
void sleep_until_ns(std::uint64_t deadline_ns);

/// Milliseconds the host takes, right now, for one fixed single-thread
/// kernel that no code of the repository runs: a chain of integer mixing
/// steps and lookups in a 16 KiB table warmed before the clock starts, so
/// neither the workload's code nor its cache footprint moves it.
double probe_ms();

/// The host's speed during one phase of a run. The run's cores are shared
/// with other tenants and run slower for stretches of seconds to minutes,
/// on every vCPU at once; a phase calls sample() between its timed calls,
/// while its own work is paused, and its timed metrics are reported as
/// they would read at the reference speed (Report::duration, rate).
class HostSpeed {
 public:
  void sample() { ms_.push_back(probe_ms()); }
  /// Median sample over the probe's reference time: 1 at the reference
  /// speed, 2 when the phase ran at half of it. 1 without samples.
  double slowdown() const;
  std::size_t samples() const { return ms_.size(); }

 private:
  std::vector<double> ms_;
};

/// Set-up time measured in one process.
struct SetupSample {
  double seconds{0.0};   ///< median of the process's fresh constructions
  double slowdown{1.0};  ///< HostSpeed over them
};

/// Time `construct` (one fresh build of the workload's servable division,
/// returned so that its destruction stays off the clock) at least 3 times,
/// more while they fit in 0.2 s (at most 41), probing the host's speed
/// after each.
template <typename Construct>
SetupSample time_setup(Construct&& construct) {
  std::vector<double> s;
  HostSpeed speed;
  const std::uint64_t t_begin = now_ns();
  while (s.size() < 3 || (s.size() < 41 && ms_since(t_begin) < 200.0)) {
    {
      const std::uint64_t t0 = now_ns();
      const auto built = construct();
      s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    speed.sample();
  }
  return SetupSample{summarize(s).median, speed.slowdown()};
}

/// Report setup_s over fresh processes: this binary is run again with
/// --setup-only, one process after another, and setup_s is the median of
/// their samples at the reference speed. A construction's cost depends on
/// the process's address layout (ASLR): it differed by up to 1.4x between
/// processes while staying within a few percent inside each one, so the
/// samples of a single process would measure its layout.
void report_setup(const Options& opt, Report& report);
}  // namespace bench
