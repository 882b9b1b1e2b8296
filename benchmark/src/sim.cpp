// sim_fixed and campaign_random: the offline Monte-Carlo reproduction.
//
// Both run on the process-wide pool (nproc workers; the library's inner
// fan-outs use it too, so no second pool ever competes), and every timed
// call is made from one of its workers, so at most nproc threads are
// ever runnable. A run measures:
//   setup      fresh FaceMapCache fills of the maps the first trial needs
//              (the sim's "deployment -> servable division"), in fresh
//              processes (report_setup)
//   throughput jobs of a fixed trial count, each on fresh seeds of the
//              same shape; trials/s is the 90th percentile over jobs
//   latency    single trials through run_tracking_pipelined, one after
//              another on the full pool: the time a user waits for one
//              tracking run
//   staleness  a churn drill on a fleet serving the workload's deployment
//              (StaleDrill in serve.cpp), its events run between jobs and
//              trials
// The host's speed is probed after every job and trial (HostSpeed).
// mean_error_m is the FTTT pooled mean error of a fixed number of
// jobs, a pure function of the seed.
#include <algorithm>
#include <array>
#include <exception>
#include <future>
#include <memory>
#include <vector>

#include "core/facemap_cache.hpp"
#include "sim/campaign.hpp"
#include "sim/epoch_pipeline.hpp"
#include "sim/montecarlo.hpp"
#include "sim/runner.hpp"
#include "sim/scenario_build.hpp"
#include "workloads.hpp"

namespace bench {

using fttt::Method;
using fttt::ScenarioConfig;
using fttt::ThreadPool;

namespace {

/// Run `fn` on a worker of `pool` and wait for it. The calling thread
/// only blocks, so the parallel_for inside `fn` (whose caller takes part)
/// never has more runnable threads than the pool has workers.
template <typename Fn>
void on_pool(ThreadPool& pool, Fn&& fn) {
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  std::exception_ptr error;
  const bool queued = pool.submit([&] {
    try {
      fn();
    } catch (...) {
      error = std::current_exception();
    }
    done.set_value();
  });
  if (!queued) {
    fn();
    return;
  }
  finished.wait();
  if (error) std::rethrow_exception(error);
}

bool same_result(const fttt::TrackingResult& a, const fttt::TrackingResult& b) {
  if (a.times != b.times || a.methods.size() != b.methods.size()) return false;
  for (std::size_t i = 0; i < a.true_positions.size(); ++i)
    if (a.true_positions[i].x != b.true_positions[i].x ||
        a.true_positions[i].y != b.true_positions[i].y)
      return false;
  for (std::size_t m = 0; m < a.methods.size(); ++m) {
    const fttt::MethodTrackResult& x = a.methods[m];
    const fttt::MethodTrackResult& y = b.methods[m];
    if (x.method != y.method || x.errors != y.errors ||
        x.estimates.size() != y.estimates.size())
      return false;
    for (std::size_t e = 0; e < x.estimates.size(); ++e)
      if (x.estimates[e].x != y.estimates[e].x || x.estimates[e].y != y.estimates[e].y)
        return false;
  }
  return true;
}

bool same_stats(const fttt::RunningStats& a, const fttt::RunningStats& b) {
  return a.count() == b.count() && a.mean() == b.mean() && a.variance() == b.variance() &&
         a.min() == b.min() && a.max() == b.max();
}

/// A deployment to divide and the scenario it is divided for.
using Division = std::pair<ScenarioConfig, fttt::Deployment>;

/// Set-up of a sim workload: fresh FaceMapCache fills of the two maps a
/// first trial over each division needs (the C-map for FTTT, the C = 1 map
/// for PM / Direct MLE).
SetupSample cache_fill_setup(const std::vector<Division>& divisions) {
  ThreadPool& pool = ThreadPool::global();
  return time_setup([&] {
    auto cache = std::make_unique<fttt::FaceMapCache>();
    on_pool(pool, [&] {
      for (const auto& [cfg, nodes] : divisions) {
        const double C = fttt::resolve_channel(cfg).C;
        (void)cache->get_or_build(nodes, C, cfg.field, cfg.grid_cell, pool);
        (void)cache->get_or_build(nodes, 1.0, cfg.field, cfg.grid_cell, pool);
      }
    });
    return cache;
  });
}

ScenarioConfig sim_fixed_config(const Options& opt) {
  // Table 1 grid roster n = 10 (fixed, so FaceMapCache hits after the
  // first trial), bounded channel, 2 m grid, 20% report dropout, 60 s
  // (120 epochs) per trial.
  ScenarioConfig cfg;
  cfg.deployment = fttt::DeploymentKind::kGrid;
  cfg.channel = fttt::Channel::kBounded;
  cfg.grid_cell = 2.0;
  cfg.dropout_probability = 0.2;
  cfg.duration = 60.0;
  cfg.seed = opt.seed;
  return cfg;
}

/// The roster of sim_fixed's trial 0.
Division sim_fixed_division(const ScenarioConfig& cfg) {
  return {cfg, fttt::scenario_deployment(cfg, fttt::RngStream(cfg.seed).substream(0).substream(1))};
}

fttt::CampaignConfig campaign_config(const Options& opt) {
  // Density {0.001, 0.002} x N {10, 20} cells, a unique random deployment
  // per trial (every map a cold build the cache cannot help with), 1 m
  // grid, 10 s trials, FTTT + Direct MLE.
  fttt::CampaignConfig cc;
  cc.base.channel = fttt::Channel::kBounded;
  cc.base.grid_cell = 1.0;
  cc.base.duration = 10.0;
  cc.base.seed = opt.seed;
  cc.densities = {0.001, 0.002};
  cc.sensor_counts = {10, 20};
  cc.methods = {Method::kFttt, Method::kDirectMle};
  cc.trials_per_cell = kCampaignTrialsPerCell;
  return cc;
}

/// Trial 0's deployment of every campaign cell.
std::vector<Division> campaign_divisions(const fttt::CampaignConfig& cc) {
  std::vector<Division> divisions;
  for (double density : cc.densities)
    for (std::size_t n : cc.sensor_counts) {
      const ScenarioConfig s = fttt::campaign_cell_scenario(cc, density, n);
      const fttt::RngStream trial0 = fttt::RngStream(s.seed).substream(0);
      divisions.emplace_back(s, fttt::scenario_deployment(s, trial0.substream(1)));
    }
  return divisions;
}

/// Run `job(j)` (returns trials done) back to back until `seconds` pass
/// (at least `min_jobs`), with a `speed` probe and the drill's due events
/// between jobs; trials/s is the 90th percentile over jobs (see
/// closed_loop in serve.cpp for why).
template <typename Job>
double job_rate(ThreadPool& pool, double seconds, std::size_t min_jobs, StaleDrill& drill,
                HostSpeed& speed, Job&& job) {
  std::vector<double> rates;
  const std::uint64_t t_begin = now_ns();
  for (std::size_t j = 0; rates.size() < min_jobs || ms_since(t_begin) < seconds * 1e3;
       ++j) {
    std::size_t trials = 0;
    const std::uint64_t t0 = now_ns();
    on_pool(pool, [&] { trials = job(j); });
    rates.push_back(static_cast<double>(trials) / (ms_since(t0) / 1e3));
    speed.sample();
    drill.catch_up();
  }
  return summarize(rates).p90;
}

/// Single trials one after another on the full pool, with a `speed` probe
/// and the drill's due events between trials; per-trial ms.
template <typename Trial>
std::vector<double> trial_latencies(ThreadPool& pool, double seconds, std::size_t min_trials,
                                    StaleDrill& drill, HostSpeed& speed, Trial&& trial) {
  std::vector<double> ms;
  const std::uint64_t t_begin = now_ns();
  for (std::uint64_t i = 0; ms.size() < min_trials || ms_since(t_begin) < seconds * 1e3;
       ++i) {
    const std::uint64_t t0 = now_ns();
    on_pool(pool, [&] { trial(i); });
    ms.push_back(ms_since(t0));
    speed.sample();
    drill.catch_up();
  }
  return ms;
}

/// The timed end-to-end metrics of a sim workload's load phases, each
/// normalized by the host's speed over its own phase. Trial latencies are
/// taken per window of kWindowTrials consecutive trials (ten beyond the
/// p95; the last window takes the rest), see windowed_percentile.
void report_timed(double rate, const HostSpeed& job_speed, std::vector<double> trial_ms,
                  const HostSpeed& trial_speed, Report& report) {
  constexpr std::size_t kWindowTrials = 200;
  const std::size_t windows = std::max<std::size_t>(1, trial_ms.size() / kWindowTrials);
  std::vector<std::vector<double>> per_window(windows);
  for (std::size_t i = 0; i < trial_ms.size(); ++i)
    per_window[std::min(i / kWindowTrials, windows - 1)].push_back(trial_ms[i]);
  report.rate("throughput_per_s", rate, "1/s", job_speed.slowdown());
  report.duration("latency_p50_ms", windowed_percentile(per_window, 50.0), "ms",
                  trial_speed.slowdown());
  report.duration("latency_p95_ms", windowed_percentile(per_window, 95.0), "ms",
                  trial_speed.slowdown());
  report.note("latency_samples", static_cast<double>(trial_ms.size()), "trials");
  report.note("latency_windows", static_cast<double>(windows), "windows");
  report.note("latency_p99_ms", percentile(trial_ms, 99.0), "ms");
  report.note("host.slowdown.jobs", job_speed.slowdown());
  report.note("host.slowdown.trials", trial_speed.slowdown());
}

}  // namespace

void run_sim_fixed(const Options& opt, Report& report, SpanRecorder& spans) {
  // All four methods on sim_fixed_config's scenario.
  const ScenarioConfig cfg = sim_fixed_config(opt);
  const std::array<Method, 4> methods{Method::kFttt, Method::kFtttExtended,
                                      Method::kPathMatching, Method::kDirectMle};
  constexpr std::size_t kErrorJobs = 8;  // 512 trials
  ThreadPool& pool = ThreadPool::global();
  fttt::FaceMapCache cache;

  on_pool(pool, [&] {
    const fttt::TrackingResult spec = fttt::run_tracking(cfg, methods, 0, pool);
    const fttt::TrackingResult got =
        fttt::run_tracking_pipelined(cfg, methods, 0, pool, &cache);
    if (!same_result(spec, got)) gate_fail("gate: run_tracking_pipelined != run_tracking");
  });

  {
    const Scoped span(spans, "setup", kMain);
    report_setup(opt, report);
  }
  const Shape shape = make_shape(cfg, 256, cfg.dropout_probability, false);
  StaleDrill drill(shape, opt.seconds, spans);
  HostSpeed job_speed, trial_speed;  // see HostSpeed

  fttt::RunningStats fttt_error;
  std::uint64_t trials = 0;
  const auto job = [&](std::size_t j) {
    ScenarioConfig c = cfg;
    c.seed = opt.seed + 1 + j;
    const Scoped span(spans, "sim.monte_carlo", kMain, 0, j);
    const std::vector<fttt::MonteCarloSummary> s =
        fttt::monte_carlo(c, methods, kSimFixedTrialsPerJob, pool, &cache);
    if (j < kErrorJobs) fttt_error.merge(s[0].pooled);
    trials += kSimFixedTrialsPerJob;
    return kSimFixedTrialsPerJob;
  };
  const double rate = job_rate(pool, 0.6 * opt.seconds, kErrorJobs, drill, job_speed, job);
  const std::vector<double> lat =
      trial_latencies(pool, 0.4 * opt.seconds, 20, drill, trial_speed, [&](std::uint64_t i) {
        const Scoped span(spans, "sim.trial", kMain, 0, i);
        (void)fttt::run_tracking_pipelined(cfg, methods, i, pool, &cache);
      });

  report.attempted = trials + lat.size();
  report_timed(rate, job_speed, lat, trial_speed, report);
  report.metric("mean_error_m", fttt_error.mean(), "m");
  report.note("trials_per_job", static_cast<double>(kSimFixedTrialsPerJob), "trials");
  report.note("cache.hit_rate", cache.stats().hit_rate(), "ratio");
  drill.finish(report);

  if (spans.enabled()) {
    serve_replay(shape, report, spans);
    replay_layers(shape, report, spans);
  }
}

void run_campaign_random(const Options& opt, Report& report, SpanRecorder& spans) {
  const fttt::CampaignConfig cc = campaign_config(opt);
  // Random deployments make the per-trial error heavy-tailed, so the
  // error pools more trials than sim_fixed's.
  constexpr std::size_t kErrorJobs = 32;  // 2048 trials
  ThreadPool& pool = ThreadPool::global();

  on_pool(pool, [&] {
    // One small cell against the serial monte_carlo reference.
    fttt::CampaignConfig small = cc;
    small.densities = {cc.densities[0]};
    small.sensor_counts = {cc.sensor_counts[0]};
    small.trials_per_cell = 4;
    const fttt::CampaignResult got = fttt::run_campaign(small, pool);
    const std::vector<fttt::MonteCarloSummary> want = fttt::monte_carlo(
        got.cells[0].scenario, small.methods, small.trials_per_cell, pool, nullptr);
    for (std::size_t m = 0; m < want.size(); ++m)
      if (!same_stats(got.cells[0].summaries[m].pooled, want[m].pooled) ||
          !same_stats(got.cells[0].summaries[m].trial_means, want[m].trial_means))
        gate_fail("gate: run_campaign cell != serial monte_carlo");
  });

  {
    const Scoped span(spans, "setup", kMain);
    report_setup(opt, report);
  }
  const std::vector<Division> divisions = campaign_divisions(cc);
  HostSpeed job_speed, trial_speed, one_speed;  // see HostSpeed
  const Shape shape = make_shape(divisions[0].first, 256, 0.0, false);
  StaleDrill drill(shape, opt.seconds, spans);

  fttt::RunningStats fttt_error;
  std::uint64_t trials = 0;
  const auto campaign_job = [&](ThreadPool& p, std::size_t per_cell, std::size_t j) {
    fttt::CampaignConfig c = cc;
    c.base.seed = opt.seed + 1 + j;
    c.trials_per_cell = per_cell;
    const Scoped span(spans, "campaign.run", kMain, 0, j);
    const fttt::CampaignResult r = fttt::run_campaign(c, p);
    trials += r.trials;
    return r;
  };
  const auto job = [&](std::size_t j) {
    const fttt::CampaignResult r = campaign_job(pool, cc.trials_per_cell, j);
    if (j < kErrorJobs)
      for (const fttt::CampaignCell& cell : r.cells)
        fttt_error.merge(cell.summaries[0].pooled);
    return r.trials;
  };
  const double rate = job_rate(pool, 0.45 * opt.seconds, kErrorJobs, drill, job_speed, job);
  // Single-worker baseline (a 1-worker pool runs parallel_for serially).
  ThreadPool one(1);
  const double rate_1t =
      job_rate(one, 0.2 * opt.seconds, 2, drill, one_speed, [&](std::size_t j) {
        return campaign_job(one, cc.trials_per_cell / 4, 1000 + j).trials;
      }) *
      one_speed.slowdown();
  // One trial of the first cell (Table 1's 100 x 100 m field, n = 10) at
  // a time: every trial divides a fresh deployment.
  const std::vector<double> lat =
      trial_latencies(pool, 0.35 * opt.seconds, 20, drill, trial_speed, [&](std::uint64_t i) {
        const Scoped span(spans, "sim.trial", kMain, 0, i);
        (void)fttt::run_tracking_pipelined(divisions[0].first, cc.methods, i, pool,
                                           nullptr);
      });

  report.attempted = trials + lat.size();
  report_timed(rate, job_speed, lat, trial_speed, report);
  report.metric("mean_error_m", fttt_error.mean(), "m");
  // Both at the reference speed, like throughput_per_s.
  report.note("trials_per_s_1t", rate_1t, "1/s");
  report.note("scaling_vs_1t", rate * job_speed.slowdown() / rate_1t, "x");
  report.note("trials_per_job", static_cast<double>(cc.trials_per_cell * divisions.size()),
              "trials");
  drill.finish(report);

  if (spans.enabled()) {
    serve_replay(shape, report, spans);
    replay_layers(shape, report, spans);
  }
}

SetupSample setup_sim_fixed(const Options& opt) {
  return cache_fill_setup({sim_fixed_division(sim_fixed_config(opt))});
}

SetupSample setup_campaign_random(const Options& opt) {
  return cache_fill_setup(campaign_divisions(campaign_config(opt)));
}

}  // namespace bench
