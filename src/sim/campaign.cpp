#include "sim/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/facemap_builder.hpp"
#include "obs/obs.hpp"
#include "sim/epoch_pipeline.hpp"

namespace fttt {

namespace {

/// A flat Division over recycled builder products.
Division view(const FaceMapBuilder::BuildProducts& products) {
  Division out;
  out.map = products.map;
  out.table = products.table;
  return out;
}

/// One worker's pooled trial state. A worker is bound to a cell, then
/// runs trials one at a time on whichever pool thread claimed it; the
/// deployment, both builders with their recycled products and the
/// EpochPipeline's buffers survive from trial to trial, so the steady
/// state only touches the allocator when a deployment needs strictly
/// more room than any before it.
///
/// A trial is the pipeline's trial on a generated deployment:
/// RandomDeploymentGenerator is byte-identical to scenario_deployment
/// for kRandom under kFixed, and build_into rebuilds the maps a fresh
/// build_division(false) would produce, so the error sequence is
/// bit-identical to run_tracking_pipelined's
/// (tests/sim/test_campaign.cpp pins the contract).
class TrialWorker {
 public:
  void bind_cell(const ScenarioConfig& cfg, std::span<const Method> methods,
                 const RandomDeploymentGenerator& gen, ThreadPool& pool) {
    cfg_ = &cfg;
    gen_ = &gen;
    pool_ = &pool;
    pipeline_.bind(cfg, methods);
    // The division grid changes with the cell's field, so the builders
    // restart from the next trial's roster (their scratch capacity would
    // not transfer across grid shapes anyway).
    uncertain_builder_.reset();
    bisector_builder_.reset();
  }

  /// Run one trial and overwrite out[0..methods.size()) with its
  /// per-method error statistics (epoch order, exactly the per_run
  /// accumulation monte_carlo derives from TrackingResult::errors).
  void run_trial(std::uint64_t trial, RunningStats* out) {
    gen_->generate_into(cfg_->seed, trial, nodes_);
    if (pipeline_.needs_uncertain())
      rebuild(uncertain_builder_, uncertain_, pipeline_.channel().C);
    if (pipeline_.needs_bisector()) rebuild(bisector_builder_, bisector_, 1.0);
    // The Division views share the recycled products only for this
    // call: the use counts are back to one before the next build_into.
    pipeline_.run(trial, nodes_, view(uncertain_), view(bisector_), *pool_);

    const std::span<const Vec2> truths = pipeline_.truths();
    for (std::size_t m = 0; m < pipeline_.methods().size(); ++m) {
      const std::span<const Vec2> estimates = pipeline_.estimates(m);
      RunningStats stats;
      for (std::size_t e = 0; e < estimates.size(); ++e)
        stats.add(distance(estimates[e], truths[e]));
      out[m] = stats;
    }
  }

 private:
  void rebuild(std::optional<FaceMapBuilder>& builder, FaceMapBuilder::BuildProducts& out,
               double C) {
    if (builder) builder->reset_roster(nodes_);
    else builder.emplace(nodes_, C, cfg_->field, cfg_->grid_cell, *pool_);
    builder->build_into(out);
  }

  const ScenarioConfig* cfg_ = nullptr;
  const RandomDeploymentGenerator* gen_ = nullptr;
  ThreadPool* pool_ = nullptr;
  EpochPipeline pipeline_;
  Deployment nodes_;
  std::optional<FaceMapBuilder> uncertain_builder_;
  std::optional<FaceMapBuilder> bisector_builder_;
  FaceMapBuilder::BuildProducts uncertain_;
  FaceMapBuilder::BuildProducts bisector_;
};

}  // namespace

ScenarioConfig campaign_cell_scenario(const CampaignConfig& cfg, double density,
                                      std::size_t n) {
  if (!(density > 0.0))
    throw std::invalid_argument("campaign_cell_scenario: density must be positive");
  ScenarioConfig out = cfg.base;
  out.sensor_count = n;
  out.deployment = DeploymentKind::kRandom;
  const double side = std::sqrt(static_cast<double>(n) / density);
  out.field = Aabb{{0.0, 0.0}, {side, side}};
  return out;
}

CampaignResult run_campaign(const CampaignConfig& cfg, ThreadPool& pool) {
  if (cfg.densities.empty() || cfg.sensor_counts.empty())
    throw std::invalid_argument("run_campaign: empty sweep axis");
  if (cfg.methods.empty()) throw std::invalid_argument("run_campaign: no methods given");
  if (cfg.trials_per_cell == 0)
    throw std::invalid_argument("run_campaign: trials_per_cell must be positive");
  if (cfg.wave_size == 0)
    throw std::invalid_argument("run_campaign: wave_size must be positive");

  FTTT_OBS_SPAN("sim.campaign.run");
  CampaignResult result;
  result.densities = cfg.densities;
  result.sensor_counts = cfg.sensor_counts;
  result.cells.reserve(cfg.densities.size() * cfg.sensor_counts.size());

  const std::size_t nmethods = cfg.methods.size();
  // One worker per potential executor (pool threads + the participating
  // caller), capped by the wave: more workers than in-flight trials
  // would just idle while holding pooled buffers.
  const std::size_t worker_count = std::min(cfg.wave_size, pool.thread_count() + 1);
  std::vector<std::unique_ptr<TrialWorker>> workers;
  workers.reserve(worker_count);
  for (std::size_t k = 0; k < worker_count; ++k)
    workers.push_back(std::make_unique<TrialWorker>());
  std::vector<RunningStats> wave_stats(cfg.wave_size * nmethods);

  for (double density : cfg.densities) {
    for (std::size_t n : cfg.sensor_counts) {
      FTTT_OBS_SPAN("sim.campaign.cell");
      CampaignCell cell;
      cell.density = density;
      cell.sensor_count = n;
      cell.scenario = campaign_cell_scenario(cfg, density, n);
      const RandomDeploymentGenerator gen(cell.scenario.field, n, cfg.count_model);
      for (auto& worker : workers) worker->bind_cell(cell.scenario, cfg.methods, gen, pool);
      cell.summaries.assign(nmethods, MonteCarloSummary{});
      for (std::size_t m = 0; m < nmethods; ++m) cell.summaries[m].method = cfg.methods[m];

      for (std::size_t wave_start = 0; wave_start < cfg.trials_per_cell;
           wave_start += cfg.wave_size) {
        const std::size_t wave = std::min(cfg.wave_size, cfg.trials_per_cell - wave_start);
        // Trial t is a pure function of (cfg, wave_start + t): the
        // worker stride below only decides which pooled buffers serve
        // it, so any thread count produces the same wave_stats.
        parallel_for(
            0, worker_count,
            [&](std::size_t k) {
              for (std::size_t t = k; t < wave; t += worker_count)
                workers[k]->run_trial(wave_start + t, wave_stats.data() + t * nmethods);
            },
            pool);
        // Merge in trial order — the exact monte_carlo merge sequence.
        for (std::size_t t = 0; t < wave; ++t) {
          for (std::size_t m = 0; m < nmethods; ++m) {
            const RunningStats& per_run = wave_stats[t * nmethods + m];
            cell.summaries[m].pooled.merge(per_run);
            // Same vacuous-trial guard as monte_carlo: a zero-epoch run
            // has no mean to contribute.
            if (per_run.count() > 0) cell.summaries[m].trial_means.add(per_run.mean());
          }
        }
        ++result.waves;
      }
      result.trials += cfg.trials_per_cell;
      result.cells.push_back(std::move(cell));
    }
  }
  FTTT_OBS_COUNT("sim.campaign.trials", result.trials);
  FTTT_OBS_COUNT("sim.campaign.waves", result.waves);
  return result;
}

}  // namespace fttt
