#include "sim/epoch_pipeline.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "baselines/direct_mle.hpp"
#include "baselines/path_matching.hpp"
#include "core/batch_matcher.hpp"
#include "core/facemap_builder.hpp"
#include "core/tracker.hpp"
#include "net/faults.hpp"
#include "net/sampling.hpp"
#include "obs/obs.hpp"
#include "sim/scenario_build.hpp"

namespace fttt {

namespace {

/// Everything the sequential consume phase needs from one epoch. All
/// fields are pure functions of (cfg, trial, epoch), so the precompute
/// fan-out fills them in any order without changing a bit.
struct EpochPrecompute {
  Vec2 truth;                        ///< target position at the epoch start
  std::vector<SamplingVector> fttt;  ///< one per requested FTTT method
  SamplingVector one_shot;           ///< instant-0 vector (PM / Direct MLE)
  std::vector<double> pm_scores;     ///< per-face similarities for PM
};

}  // namespace

TrackingResult run_tracking_pipelined(const ScenarioConfig& cfg,
                                      std::span<const Method> methods,
                                      std::uint64_t trial, ThreadPool& pool,
                                      FaceMapCache* cache) {
  if (methods.empty())
    throw std::invalid_argument("run_tracking_pipelined: no methods given");

  const RngStream root = RngStream(cfg.seed).substream(trial);
  const Deployment nodes = scenario_deployment(cfg, root.substream(1));
  const std::unique_ptr<MobilityModel> trace = scenario_trace(cfg, root.substream(2));
  const ResolvedChannel channel = resolve_channel(cfg);

  // Face maps, through the cache when one is supplied.
  const bool needs_uncertain = std::any_of(methods.begin(), methods.end(), [](Method m) {
    return m == Method::kFttt || m == Method::kFtttExtended;
  });
  const bool needs_bisector = std::any_of(methods.begin(), methods.end(), [](Method m) {
    return m == Method::kPathMatching || m == Method::kDirectMle;
  });
  const bool needs_pm = std::any_of(methods.begin(), methods.end(),
                                    [](Method m) { return m == Method::kPathMatching; });
  // Without a cache each call builds its own flat divisions, exactly
  // like run_tracking.
  const auto division = [&](double C) {
    if (cache) return cache->get_or_build(nodes, C, cfg.field, cfg.grid_cell, pool);
    FTTT_OBS_SPAN("sim.facemap.build");
    return FaceMapBuilder(nodes, C, cfg.field, cfg.grid_cell, pool).build_division(false);
  };
  Division uncertain, bisector;
  if (needs_uncertain) uncertain = division(channel.C);
  if (needs_bisector) bisector = division(1.0);

  // Per-FTTT-method slot in EpochPrecompute::fttt, assigned in method order.
  std::vector<std::size_t> fttt_slot(methods.size(), 0);
  std::size_t fttt_count = 0;
  for (std::size_t m = 0; m < methods.size(); ++m)
    if (methods[m] == Method::kFttt || methods[m] == Method::kFtttExtended)
      fttt_slot[m] = fttt_count++;

  // One batch matcher over the shared bisector table serves both PM's
  // per-face similarity scans (precompute) and Direct MLE's one-pass
  // match (consume). similarities_into is const and writes only to the
  // caller's buffer, so the precompute threads share it safely.
  std::optional<BatchMatcher> bisector_batch;
  if (needs_bisector) bisector_batch.emplace(bisector.map, bisector.table);

  const BernoulliDropout dropout(cfg.dropout_probability, root.substream(3));
  const NoFaults none;
  const FaultModel& faults =
      cfg.dropout_probability > 0.0 ? static_cast<const FaultModel&>(dropout)
                                    : static_cast<const FaultModel&>(none);

  SamplingConfig sampling;
  sampling.model = channel.model;
  sampling.sensing_range = cfg.sensing_range;
  sampling.sample_period = 1.0 / cfg.sample_rate;
  sampling.samples_per_group = cfg.samples_per_group;
  sampling.clock_skew = cfg.clock_skew;
  sampling.freeze_target_during_group = cfg.freeze_group;

  const auto epochs =
      static_cast<std::uint64_t>(cfg.duration / cfg.localization_period);
  const auto target_at = [&](double t) { return trace->position_at(t); };

  // ---- Phase 1: parallel epoch precompute --------------------------------
  // Epoch e draws every sample from root.substream(4, e) and fault
  // decisions are pure in (node, epoch): the results are independent of
  // execution order, hence bit-identical to the serial runner's loop.
  std::vector<EpochPrecompute> pre;
  {
    FTTT_OBS_SPAN("sim.pipeline.precompute");
    pre = parallel_map<EpochPrecompute>(
        static_cast<std::size_t>(epochs),
        [&](std::size_t e) {
          const double t0 = static_cast<double>(e) * cfg.localization_period;
          const GroupingSampling group =
              collect_group(nodes, sampling, faults, e, t0, target_at,
                            root.substream(4, static_cast<std::uint64_t>(e)));
          EpochPrecompute out;
          out.truth = trace->position_at(t0);
          out.fttt.reserve(fttt_count);
          for (std::size_t m = 0; m < methods.size(); ++m) {
            if (methods[m] == Method::kFttt)
              out.fttt.push_back(
                  build_sampling_vector(group, cfg.eps, VectorMode::kBasic, cfg.missing));
            else if (methods[m] == Method::kFtttExtended)
              out.fttt.push_back(build_sampling_vector(group, cfg.eps,
                                                       VectorMode::kExtended, cfg.missing));
          }
          if (needs_bisector)
            out.one_shot = one_shot_vector(group, 0, cfg.eps, cfg.missing);
          if (needs_pm) {
            out.pm_scores.resize(bisector_batch->table().padded_faces());
            bisector_batch->similarities_into(out.one_shot, out.pm_scores);
          }
          return out;
        },
        pool);
  }
  FTTT_OBS_COUNT("sim.pipeline.epochs", epochs);

  TrackingResult result;
  result.faces_uncertain = uncertain.map ? uncertain.map->face_count() : 0;
  result.faces_bisector = bisector.map ? bisector.map->face_count() : 0;
  result.methods.resize(methods.size());
  for (std::size_t m = 0; m < methods.size(); ++m) result.methods[m].method = methods[m];
  for (std::uint64_t e = 0; e < epochs; ++e) {
    result.times.push_back(static_cast<double>(e) * cfg.localization_period);
    result.true_positions.push_back(pre[e].truth);
  }

  // ---- Phase 2: sequential consume ---------------------------------------
  // Each method walks the epochs in order; methods are independent of
  // one another, so per-method processing matches the serial runner's
  // interleaved loop exactly.
  FTTT_OBS_SPAN("sim.pipeline.consume");
  for (std::size_t m = 0; m < methods.size(); ++m) {
    MethodTrackResult& mr = result.methods[m];
    mr.estimates.reserve(pre.size());
    mr.errors.reserve(pre.size());
    const auto record = [&](std::size_t e, const TrackEstimate& est) {
      mr.estimates.push_back(est.position);
      mr.errors.push_back(distance(est.position, pre[e].truth));
    };
    switch (methods[m]) {
      case Method::kFttt:
      case Method::kFtttExtended: {
        const VectorMode mode = methods[m] == Method::kFttt ? VectorMode::kBasic
                                                            : VectorMode::kExtended;
        FtttTracker tracker(uncertain.map,
                            FtttTracker::Config{mode, cfg.eps, true, 0.5, cfg.missing,
                                                cfg.hierarchical_matching},
                            uncertain.table);
        for (std::size_t e = 0; e < pre.size(); ++e)
          record(e, tracker.localize(pre[e].fttt[fttt_slot[m]]));
        break;
      }
      case Method::kPathMatching: {
        PathMatchingTracker::Config pm;
        pm.eps = cfg.eps;
        pm.max_velocity = cfg.v_max;
        pm.period = cfg.localization_period;
        pm.missing = cfg.missing;
        PathMatchingTracker tracker(bisector.map, pm);
        for (std::size_t e = 0; e < pre.size(); ++e)
          record(e, tracker.localize_scored(pre[e].pm_scores));
        break;
      }
      case Method::kDirectMle: {
        // Stateless: all epochs resolve in one SoA pass. Copy the
        // vectors (a later duplicate Direct MLE entry must see them too).
        std::vector<SamplingVector> vds;
        vds.reserve(pre.size());
        for (const EpochPrecompute& ep : pre) vds.push_back(ep.one_shot);
        const std::vector<MatchResult> matches = bisector_batch->match(vds);
        for (std::size_t e = 0; e < matches.size(); ++e)
          record(e, TrackEstimate{matches[e].position, matches[e].face,
                                  matches[e].similarity});
        break;
      }
    }
  }
  return result;
}

}  // namespace fttt
