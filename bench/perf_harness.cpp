#include "perf_harness.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string_view>

#include "common/random.hpp"

namespace fttt::bench {
namespace {

std::string g_program = "bench_perf";  // fail()'s prefix, set by the parser

}  // namespace

PerfOptions parse_perf_options(const std::string& name, int argc, char** argv) {
  constexpr const char* kFlags = "[--fast] [--json PATH] [--threads N]";
  g_program = "bench_perf_" + name;
  PerfOptions opt;
  opt.json_path = "BENCH_" + name + ".json";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--fast") {
      opt.fast = true;
    } else if (arg == "--json" && i + 1 < argc) {
      opt.json_path = argv[++i];
    } else if (arg == "--threads") {
      opt.threads = count_value(argc, argv, i, 0, kFlags);
    } else {
      usage_exit(argv[0], kFlags);
    }
  }
  return opt;
}

SampleStats sample_stats(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const double median =
      n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
  return {median, (samples.back() - samples.front()) / median};
}

std::vector<SampleStats> time_rounds(std::size_t rounds,
                                     const std::vector<Variant>& variants) {
  std::vector<std::vector<double>> seconds(variants.size());
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t v = 0; v < variants.size(); ++v) {
      if (variants[v].setup) variants[v].setup();
      const auto t0 = std::chrono::steady_clock::now();
      variants[v].run();
      const auto t1 = std::chrono::steady_clock::now();
      seconds[v].push_back(std::chrono::duration<double>(t1 - t0).count());
    }
  }
  std::vector<SampleStats> stats;
  for (std::vector<double>& s : seconds) stats.push_back(sample_stats(std::move(s)));
  return stats;
}

std::vector<SamplingVector> signature_workload(const FaceMap& map, std::size_t n,
                                               std::uint64_t seed) {
  RngStream rng(seed);
  std::vector<SamplingVector> vectors;
  vectors.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Face& f = map.faces()[rng.uniform_index(map.face_count())];
    SamplingVector vd;
    vd.known.assign(map.dimension(), true);
    vd.value.reserve(map.dimension());
    for (SigValue v : f.signature) vd.value.push_back(static_cast<double>(v));
    for (int p = 0; p < 3; ++p) {
      const std::size_t c = rng.uniform_index(vd.value.size());
      vd.value[c] = static_cast<double>(static_cast<int>(rng.uniform_index(3)) - 1);
    }
    for (std::size_t c = 0; c < vd.known.size(); ++c)
      if (rng.bernoulli(0.1)) vd.known[c] = false;
    vectors.push_back(std::move(vd));
  }
  return vectors;
}

void fail(const std::string& message) {
  std::cerr << g_program << ": " << message << "\n";
  std::exit(1);
}

PerfBench::PerfBench(std::string name, std::string unit, int argc, char** argv)
    : name_(std::move(name)),
      unit_(std::move(unit)),
      opt_(parse_perf_options(name_, argc, argv)),
      pool_(opt_.threads) {}

int PerfBench::finish(const Metrics& scenario) {
  std::cout << name_ << " perf (";
  for (const auto& [key, value] : scenario) std::cout << key << "=" << value << ", ";
  std::cout << "threads=" << threads() << (fast() ? ", fast" : "") << ")\n";
  for (PerfRow& r : rows_) {
    if (r.unit.empty()) r.unit = unit_;
    std::cout << "  " << r.name << " batch=" << r.batch << " (" << r.threads
              << " thr): " << r.seconds.median * 1e9 << " ns/" << r.unit << ", "
              << 1.0 / r.seconds.median << " " << r.unit << "/s, spread "
              << r.seconds.spread * 100.0 << "%";
    for (const auto& [key, value] : r.metrics) std::cout << ", " << key << " " << value;
    std::cout << "\n";
  }

  std::ofstream json(opt_.json_path);
  if (!json) fail("cannot write " + opt_.json_path);
  json.precision(6);
  json << "{\n  \"bench\": \"" << name_ << "\",\n  \"scenario\": {";
  for (const auto& [key, value] : scenario) json << "\"" << key << "\": " << value << ", ";
  json << "\"threads\": " << threads() << ", \"fast\": " << (fast() ? "true" : "false")
       << "},\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const PerfRow& r = rows_[i];
    json << "    {\"name\": \"" << r.name << "\", \"batch\": " << r.batch
         << ", \"threads\": " << r.threads << ", \"unit\": \"" << r.unit
         << "\", \"ns_per_localization\": " << r.seconds.median * 1e9
         << ", \"throughput_per_s\": " << 1.0 / r.seconds.median
         << ", \"spread\": " << r.seconds.spread;
    for (const auto& [key, value] : r.metrics) json << ", \"" << key << "\": " << value;
    json << "}" << (i + 1 < rows_.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "wrote " << opt_.json_path << "\n";
  return 0;
}

}  // namespace fttt::bench
