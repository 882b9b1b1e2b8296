#include "testbed/outdoor.hpp"

#include <cmath>
#include <memory>

#include "core/facemap_builder.hpp"
#include "core/tracker.hpp"
#include "mobility/path_trace.hpp"
#include "net/aggregation.hpp"
#include "net/deployment.hpp"
#include "net/faults.hpp"
#include "net/sampling.hpp"
#include "rf/uncertainty.hpp"

namespace fttt {

namespace {

/// Round a strength reading to the mote's ADC step.
double quantize(double db, double step) {
  return step > 0.0 ? std::round(db / step) * step : db;
}

}  // namespace

OutdoorSystem::Result OutdoorSystem::run(ThreadPool& pool) const {
  const RngStream root(cfg_.seed);
  const Deployment motes = cross_deployment(cfg_.center, cfg_.spacing);

  // The ADC step is the effective sensing resolution of the motes. The
  // acoustic channel is Gaussian, so the division uses the
  // flip-calibrated constant (see EXPERIMENTS.md "Calibration of C").
  const double eps = cfg_.mote.adc_step_db;
  const double C = calibrated_uncertainty_constant(
      eps, cfg_.acoustic.beta, cfg_.acoustic.sigma, cfg_.samples_per_group);
  FaceMapBuilder map_builder(motes, C, cfg_.field, cfg_.grid_cell, pool);
  auto map = std::make_shared<const FaceMap>(map_builder.build());

  // Silence here is MIB520 link loss, not weak signal: mark those pairs
  // '*' rather than applying Eq. 6's missing-reads-smaller rule.
  FtttTracker basic(map, FtttTracker::Config{VectorMode::kBasic, eps,
                                             MissingPolicy::kMissingUnknown});
  FtttTracker extended(map, FtttTracker::Config{VectorMode::kExtended, eps,
                                                MissingPolicy::kMissingUnknown});

  // Keep the walk inside the cross's well-conditioned region (the paper's
  // walk stayed within the instrumented playground area).
  const Polyline path = u_shape_path(cfg_.field, 0.2 * cfg_.field.width());
  const PathTrace walker(path, cfg_.v_min, cfg_.v_max, root.substream(1));

  // Reports ride the MIB520 bridge to the base station: Bernoulli loss
  // plus bounded latency, assembled against the localization deadline.
  const LossyLink link({.loss_probability = cfg_.mote.packet_loss,
                        .latency_min = 0.005,
                        .latency_max = 0.080},
                       root.substream(2));
  const NoFaults no_faults;

  SamplingConfig sampling;
  sampling.model = cfg_.acoustic;
  sampling.sensing_range = cfg_.sensing_range;
  sampling.sample_period = 1.0 / cfg_.sample_rate;
  sampling.samples_per_group = cfg_.samples_per_group;
  sampling.clock_skew = cfg_.mote.clock_skew;

  Result result;
  result.walked_path = path;
  result.faces = map->face_count();

  const auto epochs = static_cast<std::uint64_t>(
      walker.duration() / cfg_.localization_period);
  const auto target_at = [&](double t) { return walker.position_at(t); };
  for (std::uint64_t e = 0; e < epochs; ++e) {
    const double t0 = static_cast<double>(e) * cfg_.localization_period;
    // The station closes an epoch 100 ms after its nominal span: the
    // group itself takes k/rate seconds to record, and the radio adds up
    // to 80 ms — reports are only "late" under real congestion.
    const double deadline = cfg_.localization_period + 0.1;
    GroupingSampling group = collect_group_via_basestation(
        motes, sampling, no_faults, link, deadline, e, t0, target_at,
        root.substream(3, e));
    // MTS300 acquisition: quantize every reading to the ADC step.
    for (std::size_t node = 0; node < group.node_count(); ++node)
      if (group.has(node))
        for (double& sample : group.set_column(node))
          sample = quantize(sample, cfg_.mote.adc_step_db);

    const Vec2 truth = walker.position_at(t0);
    const TrackEstimate b = basic.localize(group);
    const TrackEstimate x = extended.localize(group);
    result.times.push_back(t0);
    result.truth.push_back(truth);
    result.basic.push_back(b.position);
    result.extended.push_back(x.position);
    result.basic_error.push_back(distance(b.position, truth));
    result.extended_error.push_back(distance(x.position, truth));
  }
  return result;
}

}  // namespace fttt
