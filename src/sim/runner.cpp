#include "sim/runner.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>

#include "baselines/direct_mle.hpp"
#include "baselines/path_matching.hpp"
#include "core/facemap_builder.hpp"
#include "core/tracker.hpp"
#include "net/faults.hpp"
#include "net/sampling.hpp"
#include "obs/obs.hpp"
#include "sim/scenario_build.hpp"

namespace fttt {

namespace {

/// Uniform interface over the four method implementations.
struct AnyTracker {
  std::function<TrackEstimate(const GroupingSampling&)> localize;
};

}  // namespace

TrackingResult run_tracking(const ScenarioConfig& cfg, std::span<const Method> methods,
                            std::uint64_t trial, ThreadPool& pool) {
  if (methods.empty()) throw std::invalid_argument("run_tracking: no methods given");

  const RngStream root = RngStream(cfg.seed).substream(trial);
  const Deployment nodes = scenario_deployment(cfg, root.substream(1));
  const std::unique_ptr<MobilityModel> trace = scenario_trace(cfg, root.substream(2));
  const ResolvedChannel channel = resolve_channel(cfg);
  const double C = channel.C;

  // Face maps: the uncertain-boundary map for FTTT and the bisector map
  // for the certain-sequence baselines; build each once and share.
  std::shared_ptr<const FaceMap> uncertain_map;
  std::shared_ptr<const FaceMap> bisector_map;
  const bool needs_uncertain = std::any_of(methods.begin(), methods.end(), [](Method m) {
    return m == Method::kFttt || m == Method::kFtttExtended;
  });
  const bool needs_bisector = std::any_of(methods.begin(), methods.end(), [](Method m) {
    return m == Method::kPathMatching || m == Method::kDirectMle;
  });
  if (needs_uncertain) {
    FTTT_OBS_SPAN("sim.facemap.build");
    FaceMapBuilder builder(nodes, C, cfg.field, cfg.grid_cell, pool);
    uncertain_map = std::make_shared<const FaceMap>(builder.build());
  }
  if (needs_bisector) {
    FTTT_OBS_SPAN("sim.facemap.build");
    FaceMapBuilder builder(nodes, 1.0, cfg.field, cfg.grid_cell, pool);
    bisector_map = std::make_shared<const FaceMap>(builder.build());
  }

  // Trackers, one per requested method.
  std::vector<AnyTracker> trackers;
  for (Method m : methods) {
    switch (m) {
      case Method::kFttt: {
        auto t = std::make_shared<FtttTracker>(
            uncertain_map,
            FtttTracker::Config{VectorMode::kBasic, cfg.eps, cfg.missing,
                                cfg.hierarchical_matching});
        trackers.push_back({[t](const GroupingSampling& g) { return t->localize(g); }});
        break;
      }
      case Method::kFtttExtended: {
        auto t = std::make_shared<FtttTracker>(
            uncertain_map,
            FtttTracker::Config{VectorMode::kExtended, cfg.eps, cfg.missing,
                                cfg.hierarchical_matching});
        trackers.push_back({[t](const GroupingSampling& g) { return t->localize(g); }});
        break;
      }
      case Method::kPathMatching: {
        PathMatchingTracker::Config pm;
        pm.eps = cfg.eps;
        pm.max_velocity = cfg.v_max;
        pm.period = cfg.localization_period;
        pm.missing = cfg.missing;
        auto t = std::make_shared<PathMatchingTracker>(bisector_map, pm);
        trackers.push_back({[t](const GroupingSampling& g) { return t->localize(g); }});
        break;
      }
      case Method::kDirectMle: {
        auto t = std::make_shared<DirectMleTracker>(bisector_map, cfg.eps, cfg.missing);
        trackers.push_back({[t](const GroupingSampling& g) { return t->localize(g); }});
        break;
      }
    }
  }

  // Fault model.
  const BernoulliDropout dropout(cfg.dropout_probability, root.substream(3));
  const NoFaults none;
  const FaultModel& faults =
      cfg.dropout_probability > 0.0 ? static_cast<const FaultModel&>(dropout)
                                    : static_cast<const FaultModel&>(none);

  const SamplingConfig sampling = scenario_sampling(cfg, channel);

  TrackingResult result;
  result.faces_uncertain = uncertain_map ? uncertain_map->face_count() : 0;
  result.faces_bisector = bisector_map ? bisector_map->face_count() : 0;
  result.methods.resize(methods.size());
  for (std::size_t m = 0; m < methods.size(); ++m) result.methods[m].method = methods[m];

  const auto epochs =
      static_cast<std::uint64_t>(cfg.duration / cfg.localization_period);
  const auto target_at = [&](double t) { return trace->position_at(t); };
  for (std::uint64_t e = 0; e < epochs; ++e) {
    FTTT_OBS_SPAN("sim.epoch");
    FTTT_OBS_COUNT("sim.epochs", 1);
    const double t0 = static_cast<double>(e) * cfg.localization_period;
    const GroupingSampling group = collect_group(nodes, sampling, faults, e, t0,
                                                 target_at, root.substream(4, e));
    const Vec2 truth = trace->position_at(t0);
    result.times.push_back(t0);
    result.true_positions.push_back(truth);
    for (std::size_t m = 0; m < trackers.size(); ++m) {
      const TrackEstimate est = trackers[m].localize(group);
      result.methods[m].estimates.push_back(est.position);
      result.methods[m].errors.push_back(distance(est.position, truth));
    }
  }
  return result;
}

}  // namespace fttt
