// Shared scenario-construction helpers.
//
// The serial runner (sim/runner.cpp) and the epoch pipeline
// (sim/epoch_pipeline.cpp, the trial engine behind monte_carlo and
// run_campaign) must materialize *identical* worlds from a
// ScenarioConfig — same deployment, same trace, same resolved channel,
// same sampling setup — or the pipeline's bit-equivalence contract
// against run_tracking is meaningless. These helpers are the single
// definition every consumer uses; the random ones take the exact
// substream the runner historically used (deployment: root.substream(1),
// trace: root.substream(2)).
#pragma once

#include <memory>

#include "mobility/mobility.hpp"
#include "net/deployment.hpp"
#include "net/sampling.hpp"
#include "rf/pathloss.hpp"
#include "sim/scenario.hpp"

namespace fttt {

/// Materialize the configured deployment from its dedicated substream.
Deployment scenario_deployment(const ScenarioConfig& cfg, RngStream rng);

/// Materialize the configured mobility trace from its dedicated substream.
std::unique_ptr<MobilityModel> scenario_trace(const ScenarioConfig& cfg, RngStream rng);

/// The sensing channel after resolving the config's channel choice: the
/// path-loss model with its noise kind/amplitude filled in, plus the
/// division constant C for the uncertain face map.
struct ResolvedChannel {
  PathLossModel model;
  double C{0.0};
};

/// Resolve cfg.channel. Under the bounded channel the division constant
/// and the noise amplitude are two views of the same quantity, so the
/// Eq. 3 constant is used for both and calibration is moot; under the
/// Gaussian channel C is optionally calibrated for the group size.
ResolvedChannel resolve_channel(const ScenarioConfig& cfg);

/// The grouping-sampling setup of cfg under its resolved channel: the
/// sensing range, sample rate, group size, clock skew and Def. 3
/// stationary-group switch, sampling through channel.model.
SamplingConfig scenario_sampling(const ScenarioConfig& cfg, const ResolvedChannel& channel);

}  // namespace fttt
