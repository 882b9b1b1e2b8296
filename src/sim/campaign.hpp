// High-throughput random-deployment Monte-Carlo campaigns.
//
// The random-network MSE analyses (Ma & Xia, PAPERS.md) sweep density
// and node count with a *unique deployment per trial* — the regime where
// FaceMapCache misses on every key and the per-trial path of monte_carlo
// degenerates into cold map builds plus per-trial scratch churn. The
// campaign runs the same trial engine as monte_carlo (EpochPipeline,
// sim/epoch_pipeline.hpp) and only pools what surrounds it:
//
//   - deployments come from a RandomDeploymentGenerator (net/deployment),
//     a pure function of (seed, trial) — bit-reproducible at any thread
//     count;
//   - each worker owns pooled FaceMapBuilders whose build_into() rebuilds
//     recycled FaceMap / SignatureTable products in place, and one
//     EpochPipeline bound per cell whose epoch buffers and score rows
//     survive from trial to trial;
//   - trials fan out across the pool in waves, and each trial's epoch
//     loop nests its own parallel_for on the same pool (a worker runs
//     its own chunks, idle threads may help);
//   - results stream into a density x N grid of RunningStats merged in
//     trial order after each wave barrier.
//
// Equivalence contract: with CountModel::kFixed, every cell's summaries
// are *bit-identical* to a serial monte_carlo(cell.scenario, ...) run —
// same per-epoch errors, same Welford merge sequence. With one engine
// the contract covers what differs: the generator, the pooled builders
// and the wave merge. tests/sim/test_campaign.cpp enforces it per
// (method, density, N) cell; bench_perf_campaign re-proves it before
// timing.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/deployment.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/montecarlo.hpp"
#include "sim/scenario.hpp"

namespace fttt {

/// One campaign: a density x N grid of random-deployment Monte-Carlo
/// cells sharing every other scenario knob.
struct CampaignConfig {
  /// Shared scenario shape. field and sensor_count are overridden per
  /// cell (see campaign_cell_scenario); deployment is forced to kRandom.
  ScenarioConfig base;
  /// Node densities (sensors per m^2), one grid row each.
  std::vector<double> densities{0.001};
  /// Node counts (exact, or Poisson mean under kPoisson), one grid
  /// column each. The cell's field is the square of area N / density.
  std::vector<std::size_t> sensor_counts{10};
  CountModel count_model{CountModel::kFixed};
  std::size_t trials_per_cell{100};
  /// Trials per wave: the unit of worker fan-out and result merging.
  std::size_t wave_size{64};
  std::vector<Method> methods{Method::kFttt, Method::kDirectMle};
};

/// One (density, N) cell of the result grid.
struct CampaignCell {
  double density{0.0};
  std::size_t sensor_count{0};
  /// The exact scenario a serial monte_carlo reproduces this cell with
  /// (kFixed count model): field of area N / density, kRandom deployment.
  ScenarioConfig scenario;
  /// Per-method statistics, merged in trial order — bit-identical to
  /// monte_carlo(scenario, methods, trials_per_cell, pool, nullptr).
  std::vector<MonteCarloSummary> summaries;
};

/// The streamed result grid plus campaign bookkeeping.
struct CampaignResult {
  std::vector<double> densities;
  std::vector<std::size_t> sensor_counts;
  std::vector<CampaignCell> cells;  ///< density-major, N within
  std::size_t trials{0};
  std::size_t waves{0};

  const CampaignCell& at(std::size_t density_index, std::size_t count_index) const {
    return cells[density_index * sensor_counts.size() + count_index];
  }
};

/// The per-cell ScenarioConfig: base with sensor_count = n, a square
/// field of area n / density anchored at the origin, and kRandom
/// deployment. Exposed so tests and benches can hand the identical
/// scenario to the serial monte_carlo reference.
ScenarioConfig campaign_cell_scenario(const CampaignConfig& cfg, double density,
                                      std::size_t n);

/// Run the campaign. Trials fan out across `pool` in waves with
/// per-worker pooled state; summaries are merged in trial order, so the
/// result is bit-identical at any thread count. Throws
/// std::invalid_argument on an empty axis, empty method list, zero
/// trials, zero wave size, or a non-positive density.
CampaignResult run_campaign(const CampaignConfig& cfg,
                            ThreadPool& pool = ThreadPool::global());

}  // namespace fttt
