#include "sim/campaign.hpp"

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <string>
#include <vector>

namespace fttt {
namespace {

/// Small but non-trivial campaign: two densities, two counts, enough
/// trials to exercise wave boundaries (wave_size 3 does not divide 7).
CampaignConfig quick_campaign() {
  CampaignConfig cfg;
  cfg.base.duration = 4.0;
  cfg.base.grid_cell = 2.0;
  cfg.densities = {0.001, 0.002};
  cfg.sensor_counts = {8, 10};
  cfg.trials_per_cell = 7;
  cfg.wave_size = 3;
  cfg.methods = {Method::kFttt, Method::kDirectMle};
  return cfg;
}

void expect_bit_equal(const RunningStats& a, const RunningStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

// The header's equivalence contract, per (method, density, N) cell:
// under kFixed every cell's summaries are bit-identical to a serial
// monte_carlo of the cell's scenario with per-trial map builds. Beyond
// the quick campaign, the variants cover every method (path matching's
// scored window and FTTT-ext included, plus a duplicate entry) under
// dropout, both missing-read policies, both channels, and a zero-epoch
// cell.
TEST(Campaign, BitIdenticalToSerialMonteCarloPerCell) {
  std::vector<CampaignConfig> variants{quick_campaign()};
  CampaignConfig all = quick_campaign();
  all.methods = {Method::kFttt, Method::kFtttExtended, Method::kPathMatching,
                 Method::kDirectMle, Method::kPathMatching};
  all.base.dropout_probability = 0.2;
  all.base.channel = Channel::kGaussian;
  variants.push_back(all);
  variants.push_back(all);
  variants.back().base.missing = MissingPolicy::kMissingUnknown;
  variants.push_back(all);
  variants.back().base.channel = Channel::kBounded;
  variants.push_back(all);
  variants.back().base.duration = 0.25;  // < localization_period: no epochs

  ThreadPool single(1);
  for (std::size_t v = 0; v < variants.size(); ++v) {
    SCOPED_TRACE("variant " + std::to_string(v));
    const CampaignConfig& cfg = variants[v];
    const CampaignResult result = run_campaign(cfg, single);
    ASSERT_EQ(result.cells.size(), 4u);
    ASSERT_EQ(result.trials, 4u * cfg.trials_per_cell);
    for (const CampaignCell& cell : result.cells) {
      const std::vector<MonteCarloSummary> reference =
          monte_carlo(cell.scenario, cfg.methods, cfg.trials_per_cell, single, nullptr);
      ASSERT_EQ(cell.summaries.size(), reference.size());
      for (std::size_t m = 0; m < reference.size(); ++m) {
        EXPECT_EQ(cell.summaries[m].method, reference[m].method);
        expect_bit_equal(cell.summaries[m].pooled, reference[m].pooled);
        expect_bit_equal(cell.summaries[m].trial_means, reference[m].trial_means);
      }
    }
  }
}

TEST(Campaign, DeterministicAcrossThreadCounts) {
  const CampaignConfig cfg = quick_campaign();
  ThreadPool one(1);
  ThreadPool four(4);
  ThreadPool eight(8);
  const CampaignResult a = run_campaign(cfg, one);
  const CampaignResult b = run_campaign(cfg, four);
  const CampaignResult c = run_campaign(cfg, eight);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  ASSERT_EQ(a.cells.size(), c.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    for (std::size_t m = 0; m < a.cells[i].summaries.size(); ++m) {
      expect_bit_equal(a.cells[i].summaries[m].pooled, b.cells[i].summaries[m].pooled);
      expect_bit_equal(a.cells[i].summaries[m].pooled, c.cells[i].summaries[m].pooled);
      expect_bit_equal(a.cells[i].summaries[m].trial_means,
                       b.cells[i].summaries[m].trial_means);
      expect_bit_equal(a.cells[i].summaries[m].trial_means,
                       c.cells[i].summaries[m].trial_means);
    }
  }
}

TEST(Campaign, CellScenarioHasDensityDerivedField) {
  const CampaignConfig cfg = quick_campaign();
  const ScenarioConfig cell = campaign_cell_scenario(cfg, 0.002, 8);
  EXPECT_EQ(cell.sensor_count, 8u);
  EXPECT_EQ(cell.deployment, DeploymentKind::kRandom);
  const double area = cell.field.width() * cell.field.height();
  EXPECT_NEAR(area, 8.0 / 0.002, 1e-6);
  EXPECT_NEAR(cell.field.width(), cell.field.height(), 1e-12);  // square
}

TEST(Campaign, ResultGridIndexing) {
  const CampaignConfig cfg = quick_campaign();
  ThreadPool single(1);
  const CampaignResult result = run_campaign(cfg, single);
  for (std::size_t di = 0; di < cfg.densities.size(); ++di)
    for (std::size_t ni = 0; ni < cfg.sensor_counts.size(); ++ni) {
      const CampaignCell& cell = result.at(di, ni);
      EXPECT_EQ(cell.density, cfg.densities[di]);
      EXPECT_EQ(cell.sensor_count, cfg.sensor_counts[ni]);
    }
}

TEST(Campaign, PoissonCountsStillDeterministic) {
  CampaignConfig cfg = quick_campaign();
  cfg.count_model = CountModel::kPoisson;
  cfg.densities = {0.001};
  cfg.sensor_counts = {8};
  ThreadPool one(1);
  ThreadPool four(4);
  const CampaignResult a = run_campaign(cfg, one);
  const CampaignResult b = run_campaign(cfg, four);
  for (std::size_t m = 0; m < a.cells[0].summaries.size(); ++m)
    expect_bit_equal(a.cells[0].summaries[m].pooled, b.cells[0].summaries[m].pooled);
}

TEST(Campaign, ValidationThrows) {
  ThreadPool single(1);
  {
    CampaignConfig cfg = quick_campaign();
    cfg.densities.clear();
    EXPECT_THROW(run_campaign(cfg, single), std::invalid_argument);
  }
  {
    CampaignConfig cfg = quick_campaign();
    cfg.sensor_counts.clear();
    EXPECT_THROW(run_campaign(cfg, single), std::invalid_argument);
  }
  {
    CampaignConfig cfg = quick_campaign();
    cfg.methods.clear();
    EXPECT_THROW(run_campaign(cfg, single), std::invalid_argument);
  }
  {
    CampaignConfig cfg = quick_campaign();
    cfg.trials_per_cell = 0;
    EXPECT_THROW(run_campaign(cfg, single), std::invalid_argument);
  }
  {
    CampaignConfig cfg = quick_campaign();
    cfg.wave_size = 0;
    EXPECT_THROW(run_campaign(cfg, single), std::invalid_argument);
  }
  {
    CampaignConfig cfg = quick_campaign();
    cfg.densities = {0.0};
    EXPECT_THROW(run_campaign(cfg, single), std::invalid_argument);
  }
}

}  // namespace
}  // namespace fttt
