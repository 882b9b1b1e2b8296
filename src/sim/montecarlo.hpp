// Parallel Monte-Carlo aggregation over independent tracking runs.
//
// Each trial re-draws deployment, trace, noise and faults from trial-keyed
// substreams and runs on the trial engine (run_tracking_pipelined, an
// EpochPipeline per trial; sim/epoch_pipeline.hpp). Trials run across the
// thread pool and results are merged in trial order, so a sweep is
// bit-reproducible at any thread count. run_campaign (sim/campaign.hpp)
// is checked bit for bit against this aggregator.
#pragma once

#include <span>
#include <vector>

#include "common/stats.hpp"
#include "core/facemap_cache.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/runner.hpp"

namespace fttt {

/// Aggregated statistics for one method across trials.
struct MonteCarloSummary {
  Method method{Method::kFttt};
  RunningStats pooled;        ///< every per-localization error, pooled
  RunningStats trial_means;   ///< distribution of per-trial mean errors

  double mean_error() const { return pooled.mean(); }
  double stddev_error() const { return pooled.stddev(); }
};

/// Run `trials` independent tracking runs of `cfg` and aggregate. Runs
/// execute on the epoch pipeline (bit-identical to run_tracking; see
/// sim/epoch_pipeline.hpp) and fetch face maps through `cache`, so a
/// *fixed-deployment* sweep (kGrid / kCross, where every trial divides
/// the same node set) builds each unique map once across all trials.
///
/// `cache` only pays when deployments repeat. Under kRandom every trial
/// draws its own deployment from a trial-keyed substream, so every
/// lookup misses and the default global cache just churns its FIFO with
/// entries nothing will ever hit — pass nullptr there. The summaries are
/// bit-identical either way (the cache changes where maps come from,
/// never their content). For unique-deployment sweeps at scale, prefer
/// run_campaign (sim/campaign.hpp): same statistics to the bit, but
/// per-worker pooled builders and pipeline buffers instead of per-trial
/// cold builds and fresh scratch.
std::vector<MonteCarloSummary> monte_carlo(const ScenarioConfig& cfg,
                                           std::span<const Method> methods,
                                           std::size_t trials,
                                           ThreadPool& pool = ThreadPool::global(),
                                           FaceMapCache* cache = &FaceMapCache::global());

}  // namespace fttt
