// fttt_benchmark: one workload per process (so VmHWM is that workload's).
//
//   fttt_benchmark --workload NAME --seed N --seconds S [--trace-dir DIR]
//   fttt_benchmark --workload NAME --seed N --seconds S --setup-only
//
// Runs the workload's correctness gates first; a failed gate prints the
// reason on stderr and exits 1 without printing a single metric. Then it
// measures for about S seconds and prints one line per number as
// `workload name value unit`, followed by one JSON line with the whole
// report (run.py reads that line). With --trace-dir the run is traced:
// bench-side spans around every public call, the layer replay,
// trace.overhead_pct, and trace.json + layers.json written into DIR.
// --setup-only builds the workload's division a few times and prints one
// line, `setup SECONDS SLOWDOWN` (see report_setup in common.hpp).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <string_view>

#include "common.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using bench::Metric;
using bench::Report;

int usage() {
  std::fprintf(stderr,
               "usage: fttt_benchmark --workload NAME --seed N --seconds S "
               "[--trace-dir DIR | --setup-only]\n");
  return 2;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_section(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i)
    out += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " +
           json_number(ms[i].value) + ", \"unit\": \"" + ms[i].unit + "\"}";
  return out + "}";
}

void print_lines(const std::string& workload, const std::vector<Metric>& ms) {
  for (const Metric& m : ms)
    std::printf("%s %s %.6g %s\n", workload.c_str(), m.name.c_str(), m.value,
                m.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--setup-only") {
      opt.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace-dir") {
      opt.trace_dir = value;
    } else {
      return usage();
    }
  }
  using RunFn = void (*)(const bench::Options&, Report&, bench::SpanRecorder&);
  using SetupFn = bench::SetupSample (*)(const bench::Options&);
  struct Workload {
    RunFn run;
    SetupFn setup;
  };
  const std::map<std::string, Workload> workloads{
      {"serve_steady", {bench::run_serve_steady, bench::setup_serve_steady}},
      {"serve_churn_n64", {bench::run_serve_churn, bench::setup_serve_churn}},
      {"sim_fixed", {bench::run_sim_fixed, bench::setup_sim_fixed}},
      {"campaign_random", {bench::run_campaign_random, bench::setup_campaign_random}},
  };
  const auto it = workloads.find(opt.workload);
  if (it == workloads.end() || !have_seed || !(opt.seconds > 0.0) ||
      (opt.setup_only && !opt.trace_dir.empty()))
    return usage();

  if (opt.setup_only) {
    const bench::SetupSample s = it->second.setup(opt);
    std::printf("setup %.17g %.17g\n", s.seconds, s.slowdown);
    return 0;
  }

  const std::uint64_t t_start = bench::now_ns();
  Report report;
  report.workload = opt.workload;
  bench::SpanRecorder spans(!opt.trace_dir.empty());
  try {
    it->second.run(opt, report, spans);
  } catch (const bench::GateFailure& g) {
    std::fprintf(stderr, "%s: correctness gate failed: %s\n", opt.workload.c_str(),
                 g.message.c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: error: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  report.metric("peak_rss_mb", bench::peak_rss_mb(), "MiB");
  // Tracing overhead: the time spent recording spans, as a share of the
  // traced run's wall time. An upper bound on what tracing adds to any
  // end-to-end metric, as spans recorded after a phase cost that phase
  // nothing.
  if (spans.enabled())
    report.layer("trace.overhead_pct", 100.0 * spans.cost_ms() / bench::ms_since(t_start),
                 "%");

  if (spans.enabled() &&
      !spans.write(opt.trace_dir, opt.workload, json_section(report.layers))) {
    std::fprintf(stderr, "%s: cannot write the trace into %s\n", opt.workload.c_str(),
                 opt.trace_dir.c_str());
    return 1;
  }

  print_lines(opt.workload, report.metrics);
  print_lines(opt.workload, report.layers);
  print_lines(opt.workload, report.info);
  std::printf("{\"workload\": \"%s\", \"correct\": true, \"attempted\": %llu, "
              "\"failed\": %llu, \"metrics\": %s, \"layers\": %s, \"info\": %s}\n",
              opt.workload.c_str(), static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              json_section(report.metrics).c_str(), json_section(report.layers).c_str(),
              json_section(report.info).c_str());
  return 0;
}
