// Perf harness for the trial-parallel campaign engine.
//
// Times the trial-serial Monte-Carlo path (monte_carlo with
// cache = nullptr: unique random deployment per trial, cold face maps,
// per-trial scratch) against run_campaign on a density-sweep shape and
// emits BENCH_campaign.json. tools/fttt_perfcmp.py diffs the file
// against bench/baselines/BENCH_campaign.json and gates CI on
// regressions; docs/perf.md has the procedure.
//
//   bench_perf_campaign [--fast] [--json PATH] [--threads N]
//
// Before timing, every cell of the campaign grid is checked bit-identical
// to a serial monte_carlo of the cell's scenario — same pooled and
// per-trial-mean statistics to the last bit. A wrong-but-fast engine
// fails the bench, not just the unit suite.
//
// Two comparisons, each against a trial-serial baseline at its own
// thread count. The gated campaign_1t row runs on a one-thread pool
// against mc_serial: its speedup is purely algorithmic — pooled builder
// products rebuilt in place, recycled score rows, no per-trial pipeline
// scaffolding — so it holds on a single-core CI runner. campaign_mt runs
// on the selected pool against mc_mt (monte_carlo handed the *same*
// pool — parallel_map spreads its trials too, but every trial pays cold
// map builds and fresh scratch): that ratio isolates what the pooled
// workers save at scale. Measured at --threads 4 on a shared 4-vCPU KVM
// guest (ten --fast runs), campaign_mt ran a median 2.80x faster than
// mc_serial, but mc_mt ran 2.86x faster too: the gain is trial fan-out,
// which both engines share, and campaign_mt over mc_mt is ~1.0x
// (docs/perf.md, "Measured speedup and allocation").
//
// The bytes_per_trial metric allocates-counts a fixed small campaign
// (operator new instrumentation, wave_size 1 so a single pooled worker
// serves every trial deterministically) and is gated as a ceiling: the
// steady state must stay allocation-lean regardless of machine speed.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "perf_harness.hpp"
#include "sim/campaign.hpp"
#include "sim/montecarlo.hpp"

// ---- allocation metering ---------------------------------------------------
// Process-wide operator new instrumentation; counting is switched on only
// around the measured region. Covers new/new[] (the containers every
// engine under test uses); aligned forms are not used by these types.

namespace {
std::atomic<std::uint64_t> g_alloc_bytes{0};
std::atomic<bool> g_alloc_metering{false};
}  // namespace

void* operator new(std::size_t size) {
  if (g_alloc_metering.load(std::memory_order_relaxed))
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// GCC pairs this free() with the *default* operator new of inlined
// library code, but the replacement new above is global at link time —
// every pointer reaching here came from std::malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
#pragma GCC diagnostic pop
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace {

using namespace fttt;

using bench::fail;

void expect_bit_equal(const RunningStats& a, const RunningStats& b,
                      const std::string& what) {
  if (a.count() != b.count() || a.mean() != b.mean() || a.variance() != b.variance() ||
      a.min() != b.min() || a.max() != b.max())
    fail(what + ": statistics diverge from the serial reference");
}

/// The timed campaign: a density sweep at fixed n (the Sec. 5.1 MSE-vs-
/// density shape), every method, bounded channel, bench-suite 2 m grid.
CampaignConfig bench_campaign(bool fast) {
  CampaignConfig cfg;
  cfg.base.duration = fast ? 10.0 : 20.0;
  cfg.base.grid_cell = 2.0;
  cfg.base.channel = Channel::kBounded;
  cfg.densities = {0.001, 0.0025};
  cfg.sensor_counts = {10};
  cfg.trials_per_cell = fast ? 8 : 24;
  cfg.wave_size = 8;
  cfg.methods = {Method::kFttt, Method::kFtttExtended, Method::kPathMatching,
                 Method::kDirectMle};
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  bench::PerfBench bench("campaign", "trial", argc, argv);
  const CampaignConfig campaign_cfg = bench_campaign(bench.fast());
  const std::size_t cells =
      campaign_cfg.densities.size() * campaign_cfg.sensor_counts.size();
  const double trials = static_cast<double>(cells * campaign_cfg.trials_per_cell);

  ThreadPool single(1);
  ThreadPool& mt_pool = bench.pool();

  // Correctness gate before any timing: every (cell, method) summary of
  // the campaign — single-threaded and on the shared pool — must be
  // bit-identical to a serial monte_carlo of that cell's scenario with
  // per-trial map builds (cache = nullptr, the unique-deployment path).
  {
    const CampaignResult ref1 = run_campaign(campaign_cfg, single);
    const CampaignResult refm = run_campaign(campaign_cfg, mt_pool);
    for (std::size_t c = 0; c < ref1.cells.size(); ++c) {
      const CampaignCell& cell = ref1.cells[c];
      const std::vector<MonteCarloSummary> serial =
          monte_carlo(cell.scenario, campaign_cfg.methods, campaign_cfg.trials_per_cell,
                      single, nullptr);
      for (std::size_t m = 0; m < serial.size(); ++m) {
        const std::string what = "cell " + std::to_string(c) + " method " +
                                 method_name(serial[m].method);
        expect_bit_equal(serial[m].pooled, cell.summaries[m].pooled, what + " (pooled)");
        expect_bit_equal(serial[m].trial_means, cell.summaries[m].trial_means,
                         what + " (trial means)");
        expect_bit_equal(cell.summaries[m].pooled, refm.cells[c].summaries[m].pooled,
                         what + " (thread-count invariance)");
      }
    }
  }

  // Variants: the trial-serial reference (every trial re-deploys, builds
  // cold maps and runs its own pipeline scaffolding) and the campaign,
  // each on one thread and on the selected pool. The pooled reference
  // is monte_carlo handed the same pool (parallel_map spreads its trials,
  // each paying cold builds and per-trial scratch): the strongest
  // contender, so campaign_mt's ratio isolates the pooled-worker savings.
  volatile double sink = 0.0;
  const auto serial = [&](ThreadPool& pool) {
    return bench::Variant{[&, pool = &pool] {
      double acc = 0.0;
      for (double density : campaign_cfg.densities)
        for (std::size_t n : campaign_cfg.sensor_counts)
          acc += monte_carlo(campaign_cell_scenario(campaign_cfg, density, n),
                             campaign_cfg.methods, campaign_cfg.trials_per_cell, *pool,
                             nullptr)[0]
                     .pooled.mean();
      sink = acc;
    }};
  };
  const auto campaign = [&](ThreadPool& pool) {
    return bench::Variant{[&, pool = &pool] {
      sink = run_campaign(campaign_cfg, *pool).cells[0].summaries[0].pooled.mean();
    }};
  };
  const std::vector<bench::SampleStats> t =
      bench.time({serial(single), campaign(single), serial(mt_pool), campaign(mt_pool)});
  (void)sink;

  // Allocation metering on a fixed shape (independent of --fast so the
  // metric is comparable across configurations): one cell, wave_size 1 —
  // a single pooled worker serves every trial in order, so the byte
  // count is deterministic.
  CampaignConfig bytes_cfg = campaign_cfg;
  bytes_cfg.base.duration = 10.0;
  bytes_cfg.densities = {0.001};
  bytes_cfg.trials_per_cell = 32;
  bytes_cfg.wave_size = 1;
  const double bytes_trials = static_cast<double>(bytes_cfg.trials_per_cell);
  g_alloc_bytes.store(0);
  g_alloc_metering.store(true);
  run_campaign(bytes_cfg, single);
  g_alloc_metering.store(false);
  const double campaign_bytes = static_cast<double>(g_alloc_bytes.load()) / bytes_trials;

  g_alloc_bytes.store(0);
  g_alloc_metering.store(true);
  monte_carlo(campaign_cell_scenario(bytes_cfg, bytes_cfg.densities[0],
                                     bytes_cfg.sensor_counts[0]),
              bytes_cfg.methods, bytes_cfg.trials_per_cell, single, nullptr);
  g_alloc_metering.store(false);
  const double serial_bytes = static_cast<double>(g_alloc_bytes.load()) / bytes_trials;

  const std::size_t threads = bench.threads();
  bench.add({"mc_serial", 1, 1, t[0].per(trials), {{"bytes_per_trial", serial_bytes}}});
  bench.add({"campaign_1t", 1, 1, t[1].per(trials),
             {{"speedup_vs_scalar", t[0].median / t[1].median},
              {"bytes_per_trial", campaign_bytes}}});
  bench.add({"mc_mt", 1, threads, t[2].per(trials)});
  bench.add({"campaign_mt", 1, threads, t[3].per(trials),
             {{"speedup_vs_scalar", t[2].median / t[3].median}}});
  // ns_per_localization is ns per trial; speedup_vs_scalar is the speedup
  // vs the trial-serial monte_carlo at the row's own thread count.
  return bench.finish({{"cells", static_cast<double>(cells)},
                       {"trials_per_cell", static_cast<double>(campaign_cfg.trials_per_cell)},
                       {"epochs_per_trial", campaign_cfg.base.duration /
                                                campaign_cfg.base.localization_period},
                       {"methods", static_cast<double>(campaign_cfg.methods.size())}});
}
