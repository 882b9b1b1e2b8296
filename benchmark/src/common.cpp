#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#if defined(__linux__)
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>
extern char** environ;
#endif

namespace bench {

void Report::metric(std::string name, double value, std::string unit) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Report::layer(std::string name, double value, std::string unit) {
  layers.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Report::note(std::string name, double value, std::string unit) {
  info.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Report::duration(const std::string& name, double value, const std::string& unit,
                      double slowdown) {
  metric(name, value / slowdown, unit);
  note("raw." + name, value, unit);
}

void Report::rate(const std::string& name, double value, const std::string& unit,
                  double slowdown) {
  metric(name, value * slowdown, unit);
  note("raw." + name, value, unit);
}

void gate_fail(const std::string& message) { throw GateFailure{message}; }

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

Summary summarize(std::vector<double>& v) {
  Summary s;
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  };
  s.q25 = at(0.25);
  s.median = at(0.5);
  s.p90 = at(0.9);
  return s;
}

double windowed_percentile(std::vector<std::vector<double>>& windows, double p) {
  std::vector<double> per_window;
  for (std::vector<double>& w : windows)
    if (!w.empty()) per_window.push_back(percentile(w, p));
  return summarize(per_window).q25;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::size_t cpu_count() {
  return std::max<std::size_t>(3, std::thread::hardware_concurrency());
}

void sleep_until_ns(std::uint64_t deadline_ns) {
  for (;;) {
    const std::uint64_t t = now_ns();
    if (t >= deadline_ns) return;
    // Coarse sleep while far away; the last stretch sleeps in short
    // slices so the timer slack cannot push the wake-up past the budget.
    const std::uint64_t left = deadline_ns - t;
    const std::uint64_t nap =
        left > 2'000'000 ? left - 1'000'000 : std::min<std::uint64_t>(left, 50'000);
    std::this_thread::sleep_for(std::chrono::nanoseconds(nap));
  }
}

namespace {

constexpr std::size_t kProbeTable = 4096;  ///< 16 KiB of uint32: stays in L1
constexpr int kProbeSteps = 200'000;       ///< ~0.9 ms at the reference speed
/// Median probe time over the sweeps that set the bounds (4-vCPU Intel
/// Xeon KVM guest, see README.md): the reference speed.
constexpr double kProbeReferenceMs = 0.88;

}  // namespace

double probe_ms() {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(kProbeTable);
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (std::uint32_t& v : t) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      v = static_cast<std::uint32_t>(x >> 32);
    }
    return t;
  }();
  std::uint64_t x = 0;
  for (const std::uint32_t v : table) x += v;  // warm the table
  const std::uint64_t t0 = now_ns();
  for (int i = 0; i < kProbeSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x += table[x % kProbeTable];
  }
  const std::uint64_t t1 = now_ns();
  // The chain's result must look used, or the compiler may drop the loop.
  asm volatile("" : : "r"(x));
  return static_cast<double>(t1 - t0) / 1e6;
}

namespace {

constexpr int kSetupProcesses = 7;

/// One --setup-only run of this binary; throws when it fails.
SetupSample setup_in_child(const Options& opt) {
#if defined(__linux__)
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (len <= 0) throw std::runtime_error("set-up: cannot find this binary");
  exe[len] = '\0';
  std::string seed = std::to_string(opt.seed);
  std::string seconds = std::to_string(opt.seconds);
  std::string workload = opt.workload;
  char flag_w[] = "--workload", flag_s[] = "--seed", flag_t[] = "--seconds",
       flag_o[] = "--setup-only";
  char* argv[] = {exe,          flag_w, workload.data(), flag_s, seed.data(), flag_t,
                  seconds.data(), flag_o, nullptr};
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("set-up: pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, exe, &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buf[256];
  for (ssize_t n; spawned == 0 && (n = read(fds[0], buf, sizeof buf)) > 0;)
    out.append(buf, static_cast<std::size_t>(n));
  close(fds[0]);
  if (spawned != 0) throw std::runtime_error("set-up: cannot start this binary");
  int status = 0;
  waitpid(pid, &status, 0);
  SetupSample s;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      std::sscanf(out.c_str(), "setup %lf %lf", &s.seconds, &s.slowdown) != 2)
    throw std::runtime_error("set-up: a --setup-only process failed");
  return s;
#else
  (void)opt;
  throw std::runtime_error("set-up: fresh processes need Linux");
#endif
}

}  // namespace

void report_setup(const Options& opt, Report& report) {
  std::vector<double> normalized, raw, slowdown;
  for (int i = 0; i < kSetupProcesses; ++i) {
    const SetupSample s = setup_in_child(opt);
    normalized.push_back(s.seconds / s.slowdown);
    raw.push_back(s.seconds);
    slowdown.push_back(s.slowdown);
  }
  report.metric("setup_s", summarize(normalized).median, "s");
  report.note("raw.setup_s", summarize(raw).median, "s");
  report.note("host.slowdown.setup", summarize(slowdown).median);
  report.note("setup_processes", kSetupProcesses, "processes");
}

double HostSpeed::slowdown() const {
  if (ms_.empty()) return 1.0;
  std::vector<double> v = ms_;
  return summarize(v).median / kProbeReferenceMs;
}

}  // namespace bench
