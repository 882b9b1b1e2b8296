#include "sim/scenario_build.hpp"

#include <stdexcept>

#include "mobility/gauss_markov.hpp"
#include "mobility/path_trace.hpp"
#include "mobility/waypoint.hpp"
#include "rf/uncertainty.hpp"

namespace fttt {

Deployment scenario_deployment(const ScenarioConfig& cfg, RngStream rng) {
  switch (cfg.deployment) {
    case DeploymentKind::kGrid:
      return grid_deployment(cfg.field, cfg.sensor_count);
    case DeploymentKind::kRandom:
      return random_deployment(cfg.field, cfg.sensor_count, rng);
    case DeploymentKind::kCross:
      return cross_deployment(cfg.field.center(), cfg.cross_spacing);
  }
  throw std::logic_error("scenario_deployment: unknown deployment kind");
}

std::unique_ptr<MobilityModel> scenario_trace(const ScenarioConfig& cfg, RngStream rng) {
  switch (cfg.trace) {
    case TraceKind::kRandomWaypoint:
      return std::make_unique<RandomWaypoint>(
          WaypointConfig{cfg.field, cfg.v_min, cfg.v_max, 0.0, cfg.duration}, rng);
    case TraceKind::kUShape:
      return std::make_unique<PathTrace>(u_shape_path(cfg.field, 0.15 * cfg.field.width()),
                                         cfg.v_min, cfg.v_max, rng);
    case TraceKind::kGaussMarkov: {
      GaussMarkovConfig gm;
      gm.field = cfg.field;
      gm.mean_speed = 0.5 * (cfg.v_min + cfg.v_max);
      gm.v_min = cfg.v_min;
      gm.v_max = cfg.v_max;
      gm.duration = cfg.duration;
      return std::make_unique<GaussMarkov>(gm, rng);
    }
  }
  throw std::logic_error("scenario_trace: unknown trace kind");
}

ResolvedChannel resolve_channel(const ScenarioConfig& cfg) {
  ResolvedChannel out;
  out.model = cfg.model;
  if (cfg.channel == Channel::kBounded) {
    out.C = uncertainty_constant(cfg.eps, out.model.beta, out.model.sigma);
    out.model.noise = NoiseKind::kBounded;
    out.model.bounded_amplitude = bounded_noise_amplitude(out.C, out.model.beta);
  } else {
    out.model.noise = NoiseKind::kGaussian;
    out.C = cfg.calibrate_C
                ? calibrated_uncertainty_constant(cfg.eps, out.model.beta,
                                                  out.model.sigma, cfg.samples_per_group)
                : uncertainty_constant(cfg.eps, out.model.beta, out.model.sigma);
  }
  return out;
}

SamplingConfig scenario_sampling(const ScenarioConfig& cfg, const ResolvedChannel& channel) {
  SamplingConfig out;
  out.model = channel.model;
  out.sensing_range = cfg.sensing_range;
  out.sample_period = 1.0 / cfg.sample_rate;
  out.samples_per_group = cfg.samples_per_group;
  out.clock_skew = cfg.clock_skew;
  out.freeze_target_during_group = cfg.freeze_group;
  return out;
}

}  // namespace fttt
