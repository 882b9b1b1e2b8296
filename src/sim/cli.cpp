#include "sim/cli.hpp"

#include <charconv>
#include <cmath>
#include <sstream>

namespace fttt {

namespace {

/// Parse a double/integer operand; false on garbage. Doubles must be
/// finite: NaN slips past every range check below, and an infinite
/// duration or period would never finish.
bool to_double(const std::string& s, double& out) {
  try {
    std::size_t used = 0;
    out = std::stod(s, &used);
    return used == s.size() && std::isfinite(out);
  } catch (...) {
    return false;
  }
}

bool to_size(const std::string& s, std::size_t& out) {
  std::uint64_t v = 0;
  const auto* begin = s.data();
  const auto* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc{} || ptr != end) return false;
  out = static_cast<std::size_t>(v);
  return true;
}

}  // namespace

std::optional<std::vector<Method>> parse_method_list(const std::string& spec) {
  std::vector<Method> methods;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item == "fttt") methods.push_back(Method::kFttt);
    else if (item == "fttt-ext") methods.push_back(Method::kFtttExtended);
    else if (item == "pm") methods.push_back(Method::kPathMatching);
    else if (item == "mle") methods.push_back(Method::kDirectMle);
    else return std::nullopt;
  }
  if (methods.empty()) return std::nullopt;
  return methods;
}

std::string cli_usage() {
  return R"(fttt_sim — tracking scenario driver

usage: fttt_sim [flags]

scenario:
  --sensors N            number of sensor nodes (default 10)
  --deployment KIND      grid | random | cross (default random)
  --field W H            field size in metres (default 100 100)
  --range R              sensing range (default 40)
  --eps E                sensing resolution in dBm (default 1)
  --beta B               path-loss exponent (default 4)
  --sigma S              noise stddev in dB (default 6)
  --channel KIND         gaussian | bounded (default gaussian)
  --trace KIND           waypoint | ushape | gauss-markov (default waypoint)
  --k K                  samples per grouping sampling (default 5)
  --rate HZ              sampling rate (default 10)
  --period S             localization period (default 0.5)
  --dropout P            per-node per-epoch dropout probability (default 0)
  --speed VMIN VMAX      target speed range m/s (default 1 5)
  --duration S           run duration (default 60)
  --grid-cell M          preprocessing cell size (default 1)
  --seed N               root seed
  --missing KIND         smaller (Eq. 6) | unknown ('*') (default smaller)
  --no-calibrate-c       use the literal Eq. 3 constant
  --hier                 hierarchical (coarse-to-fine) exhaustive matching;
                         estimates bit-identical, sublinear at large n
  --moving-group         disable the stationary-group idealization

run:
  --methods LIST         comma list of fttt,fttt-ext,pm,mle (default fttt)
  --trials N             Monte-Carlo trials (default 10)
  --csv PATH             mirror results to CSV
  --help                 this text

serve mode (docs/serving.md):
  --serve                run the multi-target fleet soak instead of the
                         Monte-Carlo sweep; scenario flags configure the
                         deployment, channel and synthetic workload
  --serve-shards N       fleet shards (default 4)
  --serve-tracks N       concurrent synthetic targets (default 64)
  --serve-ticks N        service-loop iterations (default 200)
  --serve-queue N        ingestion queue capacity in frames (default 4096)
  --serve-churn N        fail/revive one node every N ticks (default 0 = off)

observability (see docs/observability.md):
  --metrics PATH         write a metrics snapshot (counters, gauges,
                         latency histograms) as JSON after the run
  --trace-out PATH       write a Chrome-trace (Perfetto) span timeline;
                         a ".json" operand to --trace means the same
)";
}

CliParseResult parse_cli(const std::vector<std::string>& args) {
  CliOptions opt;
  ScenarioConfig& cfg = opt.scenario;

  const auto fail = [](const std::string& msg) {
    return CliParseResult{std::nullopt, msg};
  };

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto need = [&](std::size_t count) { return i + count < args.size(); };

    if (arg == "--help") {
      opt.want_help = true;
      return CliParseResult{opt, ""};
    } else if (arg == "--sensors" && need(1)) {
      if (!to_size(args[++i], cfg.sensor_count)) return fail("bad --sensors value");
    } else if (arg == "--deployment" && need(1)) {
      const std::string& v = args[++i];
      if (v == "grid") cfg.deployment = DeploymentKind::kGrid;
      else if (v == "random") cfg.deployment = DeploymentKind::kRandom;
      else if (v == "cross") cfg.deployment = DeploymentKind::kCross;
      else return fail("unknown deployment: " + v);
    } else if (arg == "--field" && need(2)) {
      double w = 0.0;
      double h = 0.0;
      if (!to_double(args[++i], w) || !to_double(args[++i], h) || w <= 0.0 || h <= 0.0)
        return fail("bad --field values");
      cfg.field = Aabb{{0.0, 0.0}, {w, h}};
    } else if (arg == "--range" && need(1)) {
      if (!to_double(args[++i], cfg.sensing_range)) return fail("bad --range value");
    } else if (arg == "--eps" && need(1)) {
      if (!to_double(args[++i], cfg.eps)) return fail("bad --eps value");
    } else if (arg == "--beta" && need(1)) {
      if (!to_double(args[++i], cfg.model.beta)) return fail("bad --beta value");
    } else if (arg == "--sigma" && need(1)) {
      if (!to_double(args[++i], cfg.model.sigma)) return fail("bad --sigma value");
    } else if (arg == "--trace" && need(1)) {
      const std::string& v = args[++i];
      if (v == "waypoint") cfg.trace = TraceKind::kRandomWaypoint;
      else if (v == "ushape") cfg.trace = TraceKind::kUShape;
      else if (v == "gauss-markov") cfg.trace = TraceKind::kGaussMarkov;
      // Overloaded flag: a ".json" operand is a Chrome-trace output path
      // (--trace-out is the unambiguous spelling), anything else must be
      // a mobility kind.
      else if (v.size() > 5 && v.compare(v.size() - 5, 5, ".json") == 0)
        opt.trace_path = v;
      else
        return fail("unknown trace: " + v +
                    " (want waypoint|ushape|gauss-markov, or a .json "
                    "Chrome-trace output path)");
    } else if (arg == "--trace-out" && need(1)) {
      opt.trace_path = args[++i];
    } else if (arg == "--metrics" && need(1)) {
      opt.metrics_path = args[++i];
    } else if (arg == "--channel" && need(1)) {
      const std::string& v = args[++i];
      if (v == "gaussian") cfg.channel = Channel::kGaussian;
      else if (v == "bounded") cfg.channel = Channel::kBounded;
      else return fail("unknown channel: " + v);
    } else if (arg == "--k" && need(1)) {
      if (!to_size(args[++i], cfg.samples_per_group) || cfg.samples_per_group == 0)
        return fail("bad --k value");
    } else if (arg == "--rate" && need(1)) {
      if (!to_double(args[++i], cfg.sample_rate) || cfg.sample_rate <= 0.0)
        return fail("bad --rate value");
    } else if (arg == "--period" && need(1)) {
      if (!to_double(args[++i], cfg.localization_period) || cfg.localization_period <= 0.0)
        return fail("bad --period value");
    } else if (arg == "--dropout" && need(1)) {
      if (!to_double(args[++i], cfg.dropout_probability) ||
          cfg.dropout_probability < 0.0 || cfg.dropout_probability > 1.0)
        return fail("bad --dropout value (want [0,1])");
    } else if (arg == "--speed" && need(2)) {
      if (!to_double(args[++i], cfg.v_min) || !to_double(args[++i], cfg.v_max) ||
          cfg.v_min <= 0.0 || cfg.v_max < cfg.v_min)
        return fail("bad --speed values (want 0 < vmin <= vmax)");
    } else if (arg == "--duration" && need(1)) {
      if (!to_double(args[++i], cfg.duration) || cfg.duration <= 0.0)
        return fail("bad --duration value");
    } else if (arg == "--grid-cell" && need(1)) {
      if (!to_double(args[++i], cfg.grid_cell) || cfg.grid_cell <= 0.0)
        return fail("bad --grid-cell value");
    } else if (arg == "--seed" && need(1)) {
      std::size_t seed = 0;
      if (!to_size(args[++i], seed)) return fail("bad --seed value");
      cfg.seed = seed;
    } else if (arg == "--missing" && need(1)) {
      const std::string& v = args[++i];
      if (v == "smaller") cfg.missing = MissingPolicy::kMissingReadsSmaller;
      else if (v == "unknown") cfg.missing = MissingPolicy::kMissingUnknown;
      else return fail("unknown missing policy: " + v);
    } else if (arg == "--no-calibrate-c") {
      cfg.calibrate_C = false;
    } else if (arg == "--hier") {
      cfg.hierarchical_matching = true;
    } else if (arg == "--moving-group") {
      cfg.freeze_group = false;
    } else if (arg == "--methods" && need(1)) {
      const auto methods = parse_method_list(args[++i]);
      if (!methods) return fail("bad --methods list (want fttt,fttt-ext,pm,mle)");
      opt.methods = *methods;
    } else if (arg == "--serve") {
      opt.serve.enabled = true;
    } else if (arg == "--serve-shards" && need(1)) {
      if (!to_size(args[++i], opt.serve.shards) || opt.serve.shards == 0)
        return fail("bad --serve-shards value");
    } else if (arg == "--serve-tracks" && need(1)) {
      if (!to_size(args[++i], opt.serve.tracks) || opt.serve.tracks == 0)
        return fail("bad --serve-tracks value");
    } else if (arg == "--serve-ticks" && need(1)) {
      if (!to_size(args[++i], opt.serve.ticks) || opt.serve.ticks == 0)
        return fail("bad --serve-ticks value");
    } else if (arg == "--serve-queue" && need(1)) {
      if (!to_size(args[++i], opt.serve.queue_capacity) ||
          opt.serve.queue_capacity == 0)
        return fail("bad --serve-queue value");
    } else if (arg == "--serve-churn" && need(1)) {
      if (!to_size(args[++i], opt.serve.churn_period))
        return fail("bad --serve-churn value");
    } else if (arg == "--trials" && need(1)) {
      if (!to_size(args[++i], opt.trials) || opt.trials == 0)
        return fail("bad --trials value");
    } else if (arg == "--csv" && need(1)) {
      opt.csv_path = args[++i];
    } else {
      return fail("unknown or incomplete flag: " + arg);
    }
  }
  return CliParseResult{opt, ""};
}

}  // namespace fttt
