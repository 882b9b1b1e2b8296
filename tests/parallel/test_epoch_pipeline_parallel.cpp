// Race coverage for the epoch pipeline and the face-map cache: these
// run under the tsan preset (tests_parallel label) with real thread
// fan-out, so TSan sees the parallel precompute sharing the batch
// matcher, the single-flight cache build, concurrent hits, and campaign
// workers whose trials fan their epochs out into pooled buffers.
#include <gtest/gtest.h>

#include <array>
#include <thread>
#include <vector>

#include "core/facemap_cache.hpp"
#include "net/deployment.hpp"
#include "sim/campaign.hpp"
#include "sim/epoch_pipeline.hpp"
#include "sim/montecarlo.hpp"
#include "sim/runner.hpp"

namespace fttt {
namespace {

ScenarioConfig quick_config() {
  ScenarioConfig cfg;
  cfg.sensor_count = 8;
  cfg.duration = 8.0;
  cfg.grid_cell = 2.0;
  return cfg;
}

TEST(EpochPipelineParallel, PrecomputeFanOutMatchesSerial) {
  const std::array<Method, 4> methods{Method::kFttt, Method::kFtttExtended,
                                      Method::kPathMatching, Method::kDirectMle};
  const TrackingResult serial = run_tracking(quick_config(), methods);
  ThreadPool pool(4);
  const TrackingResult piped = run_tracking_pipelined(quick_config(), methods, 0, pool);
  ASSERT_EQ(serial.methods.size(), piped.methods.size());
  for (std::size_t m = 0; m < serial.methods.size(); ++m) {
    ASSERT_EQ(serial.methods[m].errors.size(), piped.methods[m].errors.size());
    for (std::size_t e = 0; e < serial.methods[m].errors.size(); ++e)
      EXPECT_EQ(serial.methods[m].errors[e], piped.methods[m].errors[e]);
  }
}

TEST(EpochPipelineParallel, ConcurrentCacheLookupsSingleFlight) {
  FaceMapCache cache;
  const Deployment nodes{{0, {5.0, 5.0}}, {1, {15.0, 5.0}}, {2, {5.0, 15.0}}, {3, {15.0, 15.0}}};
  const Aabb field{{0.0, 0.0}, {20.0, 20.0}};
  constexpr std::size_t kThreads = 8;
  std::vector<FaceMapCache::Entry> entries(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t i = 0; i < kThreads; ++i)
      threads.emplace_back(
          [&, i] { entries[i] = cache.get_or_build(nodes, 1.2, field, 1.0); });
    for (std::thread& t : threads) t.join();
  }
  for (std::size_t i = 1; i < kThreads; ++i) {
    EXPECT_EQ(entries[0].map.get(), entries[i].map.get());
    EXPECT_EQ(entries[0].table.get(), entries[i].table.get());
  }
  const FaceMapCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, kThreads - 1);
}

TEST(EpochPipelineParallel, ConcurrentTrialsShareTheCache) {
  // monte_carlo runs trials across the pool while every trial hits the
  // same cache: grid deployment makes all keys identical, so the cache
  // serves one build to concurrent consumers.
  ScenarioConfig cfg = quick_config();
  cfg.deployment = DeploymentKind::kGrid;
  const std::array<Method, 2> methods{Method::kFttt, Method::kDirectMle};
  ThreadPool pool(4);
  FaceMapCache cache;
  const std::vector<MonteCarloSummary> summary =
      monte_carlo(cfg, methods, 6, pool, &cache);
  ASSERT_EQ(summary.size(), 2u);
  for (const MonteCarloSummary& s : summary) EXPECT_GT(s.pooled.count(), 0u);
  EXPECT_EQ(cache.stats().builds, 2u);  // one per unique (deployment, C) key
}

TEST(EpochPipelineParallel, CampaignWorkersMatchSingleThread) {
  // Campaign workers run trials on pool threads and each trial's epoch
  // loop nests its own parallel_for into the worker's pooled pipeline;
  // several waves per cell reuse those buffers across trials.
  CampaignConfig cfg;
  cfg.base.duration = 4.0;
  cfg.base.grid_cell = 2.0;
  cfg.base.dropout_probability = 0.2;
  cfg.densities = {0.001};
  cfg.sensor_counts = {8, 10};
  cfg.trials_per_cell = 9;
  cfg.wave_size = 4;
  cfg.methods = {Method::kFttt, Method::kFtttExtended, Method::kPathMatching,
                 Method::kDirectMle};
  ThreadPool one(1);
  ThreadPool four(4);
  const CampaignResult serial = run_campaign(cfg, one);
  const CampaignResult parallel = run_campaign(cfg, four);
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t c = 0; c < serial.cells.size(); ++c) {
    ASSERT_EQ(serial.cells[c].summaries.size(), cfg.methods.size());
    for (std::size_t m = 0; m < cfg.methods.size(); ++m) {
      const MonteCarloSummary& a = serial.cells[c].summaries[m];
      const MonteCarloSummary& b = parallel.cells[c].summaries[m];
      EXPECT_GT(a.pooled.count(), 0u);
      EXPECT_EQ(a.pooled.count(), b.pooled.count());
      EXPECT_EQ(a.pooled.mean(), b.pooled.mean());
      EXPECT_EQ(a.pooled.variance(), b.pooled.variance());
      EXPECT_EQ(a.trial_means.mean(), b.trial_means.mean());
      EXPECT_EQ(a.trial_means.variance(), b.trial_means.variance());
    }
  }
}

}  // namespace
}  // namespace fttt
