// fttt_sim — run a tracking scenario from the command line.
//
//   fttt_sim --sensors 20 --k 7 --channel bounded
//       --methods fttt,pm,mle --trials 20 --csv out.csv
//
// Prints the Table 1-style configuration, per-method mean/stddev errors
// pooled over the Monte-Carlo trials, and optionally mirrors to CSV.
//
// With --serve the tool becomes the fleet soak driver instead
// (docs/serving.md): a TrackManagerFleet serves a synthetic multi-target
// report stream for --serve-ticks service-loop iterations, optionally
// with deployment churn, and reports throughput, shedding and accuracy.
#include <chrono>
#include <iostream>

#include "common/csv.hpp"
#include "common/table.hpp"
#include "obs/obs.hpp"
#include "serve/fleet.hpp"
#include "serve/workload.hpp"
#include "sim/cli.hpp"
#include "sim/montecarlo.hpp"
#include "sim/scenario_build.hpp"

namespace {

/// The --serve soak loop: one fleet, `tracks` synthetic targets, one
/// frame per track per tick, accuracy scored against the workload's
/// ground truth. Returns an exit status.
int run_serve(const fttt::CliOptions& opt) {
  using namespace fttt;
  const ScenarioConfig& cfg = opt.scenario;
  const ServeCliOptions& serve = opt.serve;

  RngStream root(cfg.seed);
  const Deployment roster = scenario_deployment(cfg, root.substream(1));
  const ResolvedChannel channel = resolve_channel(cfg);

  SyntheticWorkload::Config wcfg;
  wcfg.tracks = serve.tracks;
  wcfg.drop_probability = cfg.dropout_probability;
  wcfg.epoch_period = cfg.localization_period;
  wcfg.sampling = scenario_sampling(cfg, channel);
  const SyntheticWorkload workload(roster, cfg.field, wcfg, cfg.seed);

  TrackManagerFleet::Config fcfg;
  fcfg.shards = serve.shards;
  fcfg.queue_capacity = serve.queue_capacity;
  fcfg.track.eps = cfg.eps;
  fcfg.track.missing = cfg.missing;
  fcfg.track.hierarchical = cfg.hierarchical_matching;
  TrackManagerFleet fleet(roster, channel.C, cfg.field, cfg.grid_cell, fcfg);

  std::cout << "fttt_sim --serve: " << roster.size() << " sensors, "
            << serve.tracks << " tracks x " << serve.ticks << " ticks, "
            << serve.shards << " shards, queue " << serve.queue_capacity;
  if (serve.churn_period != 0)
    std::cout << ", churn every " << serve.churn_period << " ticks";
  std::cout << "\n\n";

  double err_sum = 0.0;
  std::uint64_t err_n = 0;
  std::uint64_t gated = 0;   // updates without an estimate (coverage gate)
  std::uint64_t churned = 0; // successful fail/revive events
  NodeId churn_node = 0;
  bool churn_fail_next = true;

  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t tick = 0; tick < serve.ticks; ++tick) {
    if (serve.churn_period != 0 && tick != 0 && tick % serve.churn_period == 0) {
      // Alternate failing and reviving one roster node at a time so the
      // division keeps rebuilding while every track is held.
      if (churn_fail_next) {
        if (fleet.fail_node(churn_node)) {
          churn_fail_next = false;
          ++churned;
        }
      } else if (fleet.revive_node(churn_node)) {
        churn_fail_next = true;
        churn_node = static_cast<NodeId>((churn_node + 1) % roster.size());
        ++churned;
      }
    }
    for (TrackId t = 0; t < serve.tracks; ++t)
      fleet.submit(workload.frame(t, tick));
    for (const TrackUpdate& u : fleet.tick()) {
      if (!u.estimate) {
        ++gated;
        continue;
      }
      err_sum += distance(u.estimate->position, workload.target_at(u.track, u.epoch));
      ++err_n;
    }
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  // Rebuilds run off-thread; settle the last one so the stats table
  // reports every accepted churn event as adopted.
  fleet.flush_rebuilds();
  const TrackManagerFleet::Stats stats = fleet.stats();
  TextTable t({"metric", "value"});
  t.add_row({"frames resolved", std::to_string(stats.frames)});
  t.add_row({"localizations", std::to_string(stats.localizations)});
  t.add_row({"coverage-gated", std::to_string(gated)});
  t.add_row({"shed", std::to_string(stats.shed)});
  t.add_row({"tracks held", std::to_string(stats.tracks)});
  t.add_row({"division rebuilds", std::to_string(stats.rebuilds)});
  t.add_row({"churn events", std::to_string(churned)});
  t.add_row({"mean error (m)",
             err_n == 0 ? "n/a" : TextTable::num(err_sum / static_cast<double>(err_n), 3)});
  t.add_row({"localizations/s",
             elapsed <= 0.0 ? "n/a"
                            : TextTable::num(static_cast<double>(stats.localizations) /
                                                 elapsed, 0)});
  std::cout << t;

  // Zero dropped tracks: every submitted track must own a live slot.
  // (With shedding active a track's frames may all have been evicted
  // before first resolution, which is shedding, not dropping.)
  if (stats.shed == 0 && stats.tracks != serve.tracks) {
    std::cerr << "error: " << serve.tracks - stats.tracks
              << " tracks dropped (fleet holds " << stats.tracks << ")\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fttt;

  std::vector<std::string> args(argv + 1, argv + argc);
  const CliParseResult parsed = parse_cli(args);
  if (!parsed.ok()) {
    std::cerr << "error: " << parsed.error << "\n\n" << cli_usage();
    return 2;
  }
  const CliOptions& opt = *parsed.options;
  if (opt.want_help) {
    std::cout << cli_usage();
    return 0;
  }

  // Observability recording costs one predictable branch per probe when
  // off, so it is opt-in: enabled only for the duration of the run when
  // an export destination was requested.
  const bool want_obs = opt.metrics_path || opt.trace_path;
  if (want_obs) {
    if (!obs::kCompiledIn)
      std::cerr << "warning: this binary was built with FTTT_OBS=OFF; "
                   "--metrics/--trace-out will export empty data\n";
    obs::set_enabled(true);
  }

  int status = 0;
  if (opt.serve.enabled) {
    status = run_serve(opt);
  } else {
    const ScenarioConfig& cfg = opt.scenario;
    std::cout << "fttt_sim: " << cfg.sensor_count << " sensors, k = "
              << cfg.samples_per_group << ", eps = " << cfg.eps << ", channel = "
              << (cfg.channel == Channel::kBounded ? "bounded" : "gaussian")
              << ", dropout = " << cfg.dropout_probability << ", " << opt.trials
              << " trials x " << cfg.duration << " s\n\n";

    const auto summary = monte_carlo(cfg, opt.methods, opt.trials);

    TextTable t({"method", "mean err (m)", "stddev (m)", "min", "max",
                 "trial-mean spread"});
    for (const auto& s : summary) {
      t.add_row({method_name(s.method), TextTable::num(s.mean_error(), 3),
                 TextTable::num(s.stddev_error(), 3), TextTable::num(s.pooled.min(), 3),
                 TextTable::num(s.pooled.max(), 3),
                 TextTable::num(s.trial_means.stddev(), 3)});
    }
    std::cout << t;

    if (opt.csv_path) {
      CsvWriter csv(*opt.csv_path);
      csv.write_row(std::vector<std::string>{"method", "mean", "stddev", "min", "max"});
      for (const auto& s : summary)
        csv.write_row(std::vector<std::string>{
            method_name(s.method), TextTable::num(s.mean_error(), 6),
            TextTable::num(s.stddev_error(), 6), TextTable::num(s.pooled.min(), 6),
            TextTable::num(s.pooled.max(), 6)});
      std::cout << "\nwrote " << *opt.csv_path << "\n";
    }
  }

  if (want_obs) {
    obs::set_enabled(false);
    if (opt.metrics_path) {
      if (obs::write_metrics_json(*opt.metrics_path))
        std::cout << "wrote metrics " << *opt.metrics_path << "\n";
      else
        std::cerr << "error: cannot write metrics to " << *opt.metrics_path << "\n";
    }
    if (opt.trace_path) {
      if (obs::write_chrome_trace(*opt.trace_path))
        std::cout << "wrote trace " << *opt.trace_path << "\n";
      else
        std::cerr << "error: cannot write trace to " << *opt.trace_path << "\n";
    }
  }
  return status;
}
