// Perf harness for the epoch-pipeline simulation engine.
//
// Times the serial runner (run_tracking: one epoch at a time, fresh
// face maps every trial) against run_tracking_pipelined on the Table 1
// sweep shape — 10 trials x 4 methods — and emits BENCH_pipeline.json
// (ns/run, runs/s, speedup vs serial). tools/fttt_perfcmp.py diffs the
// file against bench/baselines/BENCH_pipeline.json and gates CI on
// regressions; docs/perf.md has the procedure.
//
//   bench_perf_pipeline [--fast] [--json PATH] [--threads N]
//
// Before timing, the pipelined trajectory is checked bit-identical to
// the serial runner for every method, and a full cached sweep must
// build exactly one map per unique (deployment, C, field, grid) key.
// A wrong-but-fast engine fails the bench, not just the unit suite.
//
// The gated pipeline_1t row runs on a ThreadPool(1): the speedup it
// measures is purely algorithmic — the cross-trial face-map cache, the
// one-pass SoA Direct-MLE match, PM's batched per-face scans and the
// shared one-shot vector — so it holds on a single-core CI runner. The
// _mt row runs on the selected pool, adds precompute parallelism and is
// informational only (no baseline speedup, so perfcmp skips it). Deployment is the grid
// pattern: it is trial-invariant, which is exactly the fixed-deployment
// sweep shape the cache exists for (random deployments re-key per
// trial and pay one build each, like the serial path).
#include <string>
#include <vector>

#include "core/facemap_cache.hpp"
#include "perf_harness.hpp"
#include "sim/epoch_pipeline.hpp"
#include "sim/runner.hpp"

namespace {

using namespace fttt;

using bench::fail;

/// Bit-equivalence check (the executable-spec contract the unit suite
/// enforces in depth; re-verified here so timing never blesses a wrong
/// trajectory).
void expect_identical(const TrackingResult& serial, const TrackingResult& piped,
                      const std::string& what) {
  if (serial.methods.size() != piped.methods.size() ||
      serial.times.size() != piped.times.size())
    fail(what + ": shape mismatch");
  for (std::size_t m = 0; m < serial.methods.size(); ++m)
    for (std::size_t e = 0; e < serial.methods[m].errors.size(); ++e)
      if (serial.methods[m].errors[e] != piped.methods[m].errors[e] ||
          serial.methods[m].estimates[e].x != piped.methods[m].estimates[e].x ||
          serial.methods[m].estimates[e].y != piped.methods[m].estimates[e].y)
        fail(what + ": method " + std::to_string(m) + " diverges at epoch " +
             std::to_string(e));
}

}  // namespace

int main(int argc, char** argv) {
  bench::PerfBench bench("pipeline", "run", argc, argv);
  const std::size_t trials = bench.fast() ? 3 : 10;  // runs per timed sweep

  // Table 1 sweep shape: 100 x 100 m^2, n = 10, beta = 4, sigma_X = 6,
  // eps = 1 dBm, bounded channel, 2 m preprocessing grid (the bench-suite
  // default), all four methods, grid deployment (trial-invariant — the
  // fixed-deployment sweep the cache amortizes).
  ScenarioConfig cfg;
  cfg.duration = bench.fast() ? 10.0 : 30.0;
  cfg.grid_cell = 2.0;
  cfg.channel = Channel::kBounded;
  cfg.deployment = DeploymentKind::kGrid;
  const std::vector<Method> methods{Method::kFttt, Method::kFtttExtended,
                                    Method::kPathMatching, Method::kDirectMle};

  ThreadPool single(1);
  ThreadPool& mt_pool = bench.pool();

  // Correctness gate before any timing: every trial of the sweep must be
  // bit-identical serial vs pipelined (with and without the cache), and
  // the cached sweep must build exactly one map per unique key — two
  // total here (the C-uncertainty map and the C = 1 bisector map).
  {
    FaceMapCache cache;
    for (std::uint64_t t = 0; t < trials; ++t) {
      const TrackingResult serial = run_tracking(cfg, methods, t, single);
      expect_identical(serial, run_tracking_pipelined(cfg, methods, t, single),
                       "uncached trial " + std::to_string(t));
      expect_identical(serial,
                       run_tracking_pipelined(cfg, methods, t, mt_pool, &cache),
                       "cached trial " + std::to_string(t));
    }
    if (cache.stats().builds != 2)
      fail("cached sweep built " + std::to_string(cache.stats().builds) +
           " maps; expected 1 per unique key (2)");
  }

  // Variants: the serial reference (the executable spec, one epoch at a
  // time, fresh face maps every trial), then the pipeline on one thread
  // (the gated algorithmic win) and on the selected pool (adds
  // precompute parallelism; informational). Each pipelined sweep gets a
  // fresh cache, so it pays both map builds once and amortizes them over
  // the trials, exactly like a real sweep.
  volatile double sink = 0.0;  // defeat whole-loop elision
  const auto sweep = [&](auto&& run) {
    return bench::Variant{[&sink, &trials, run] {
      FaceMapCache cache;
      double acc = 0.0;
      for (std::uint64_t t = 0; t < trials; ++t) {
        const TrackingResult r = run(t, cache);
        acc += r.methods[0].errors.empty() ? 0.0 : r.methods[0].errors.back();
      }
      sink = acc;
    }};
  };
  const std::vector<bench::SampleStats> t = bench.time({
      sweep([&](std::uint64_t trial, FaceMapCache&) {
        return run_tracking(cfg, methods, trial, single);
      }),
      sweep([&](std::uint64_t trial, FaceMapCache& cache) {
        return run_tracking_pipelined(cfg, methods, trial, single, &cache);
      }),
      sweep([&](std::uint64_t trial, FaceMapCache& cache) {
        return run_tracking_pipelined(cfg, methods, trial, mt_pool, &cache);
      }),
  });
  (void)sink;

  const double runs = static_cast<double>(trials);
  bench.add({"serial_full", 1, 1, t[0].per(runs)});
  bench.add({"pipeline_1t", 1, 1, t[1].per(runs),
             {{"speedup_vs_scalar", t[0].median / t[1].median}}});
  bench.add({"pipeline_mt", 1, bench.threads(), t[2].per(runs),
             {{"speedup_vs_scalar", t[0].median / t[2].median}}});
  return bench.finish(
      {{"sensors", static_cast<double>(cfg.sensor_count)},
       {"methods", static_cast<double>(methods.size())},
       {"trials", runs},
       {"epochs_per_run", static_cast<double>(static_cast<std::size_t>(
                              cfg.duration / cfg.localization_period))}});
}
