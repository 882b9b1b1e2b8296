#include "bench_common.hpp"

#include <charconv>
#include <cstdlib>
#include <string_view>
#include <system_error>

namespace fttt::bench {

void usage_exit(const char* argv0, const char* flags) {
  std::cerr << "usage: " << argv0 << " " << flags << "\n";
  std::exit(2);
}

std::size_t count_value(int argc, char** argv, int& i, std::size_t min,
                        const char* flags) {
  if (i + 1 >= argc) usage_exit(argv[0], flags);
  const std::string_view text = argv[++i];
  std::size_t value = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || ec != std::errc{} || end != text.data() + text.size() || value < min)
    usage_exit(argv[0], flags);
  return value;
}

Options parse_options(int argc, char** argv) {
  constexpr const char* kFlags = "[--fast] [--trials N>=1] [--threads N] [--csv out.csv]";
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--fast") {
      opt.fast = true;
      opt.trials = 3;
      opt.duration = 10.0;
    } else if (arg == "--trials") {
      opt.trials = count_value(argc, argv, i, 1, kFlags);
    } else if (arg == "--threads") {
      opt.threads = count_value(argc, argv, i, 0, kFlags);
    } else if (arg == "--csv" && i + 1 < argc) {
      opt.csv_path = argv[++i];
    } else {
      usage_exit(argv[0], kFlags);
    }
  }
  return opt;
}

ScenarioConfig default_scenario(const Options& opt) {
  ScenarioConfig cfg;  // Table 1 defaults
  cfg.duration = opt.duration;
  cfg.grid_cell = 2.0;
  // The benches default to the bounded channel — the sensing model the
  // paper's uncertain-area dichotomy describes and the one that
  // reproduces its reported trends. Individual benches flip to
  // Channel::kGaussian for sensitivity panels (see EXPERIMENTS.md).
  cfg.channel = Channel::kBounded;
  return cfg;
}

BenchPool::BenchPool(std::size_t threads) {
  if (threads > 0) owned_ = std::make_unique<ThreadPool>(threads);
}

void print_scenario(std::ostream& os, const ScenarioConfig& cfg) {
  TextTable t({"parameter", "setting"});
  t.add_row({"field size", TextTable::num(cfg.field.width(), 0) + " x " +
                               TextTable::num(cfg.field.height(), 0) + " m^2"});
  t.add_row({"noise model", "beta = " + TextTable::num(cfg.model.beta, 0) +
                                ", sigma_X = " + TextTable::num(cfg.model.sigma, 0)});
  t.add_row({"sensor nodes (n)", std::to_string(cfg.sensor_count)});
  t.add_row({"sensing range (R)", TextTable::num(cfg.sensing_range, 0) + " m"});
  t.add_row({"sensing resolution (eps)", TextTable::num(cfg.eps, 1) + " dBm"});
  t.add_row({"sampling rate", TextTable::num(cfg.sample_rate, 0) + " Hz"});
  t.add_row({"target velocity", TextTable::num(cfg.v_min, 0) + " ~ " +
                                    TextTable::num(cfg.v_max, 0) + " m/s"});
  t.add_row({"sampling times (k)", std::to_string(cfg.samples_per_group)});
  t.add_row({"run duration", TextTable::num(cfg.duration, 0) + " s"});
  t.add_row({"preprocess grid cell", TextTable::num(cfg.grid_cell, 1) + " m"});
  os << t;
}

CsvSink::CsvSink(const Options& opt) {
  if (opt.csv_path) writer_ = std::make_unique<CsvWriter>(*opt.csv_path);
}

void CsvSink::row(const std::vector<std::string>& cells) {
  if (writer_) writer_->write_row(cells);
}

void CsvSink::row(const std::vector<double>& cells) {
  if (writer_) writer_->write_row(cells);
}

}  // namespace fttt::bench
