#include "sim/epoch_pipeline.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>

#include "baselines/direct_mle.hpp"
#include "baselines/path_matching.hpp"
#include "common/check.hpp"
#include "core/batch_matcher.hpp"
#include "core/facemap_builder.hpp"
#include "core/tracker.hpp"
#include "net/faults.hpp"
#include "obs/obs.hpp"

namespace fttt {

namespace {

bool is_fttt(Method m) { return m == Method::kFttt || m == Method::kFtttExtended; }

VectorMode fttt_mode(Method m) {
  return m == Method::kFttt ? VectorMode::kBasic : VectorMode::kExtended;
}

}  // namespace

void EpochPipeline::bind(const ScenarioConfig& cfg, std::span<const Method> methods) {
  if (methods.empty()) throw std::invalid_argument("EpochPipeline: no methods given");
  cfg_ = cfg;
  methods_.assign(methods.begin(), methods.end());
  channel_ = resolve_channel(cfg);
  sampling_ = scenario_sampling(cfg, channel_);
  epochs_ = static_cast<std::size_t>(cfg.duration / cfg.localization_period);
  needs_uncertain_ = std::any_of(methods.begin(), methods.end(), is_fttt);
  needs_bisector_ = !std::all_of(methods.begin(), methods.end(), is_fttt);
  fttt_slot_.assign(methods.size(), 0);
  fttt_count_ = 0;
  for (std::size_t m = 0; m < methods.size(); ++m)
    if (is_fttt(methods[m])) fttt_slot_[m] = fttt_count_++;
}

void EpochPipeline::run(std::uint64_t trial, const Deployment& nodes,
                        const Division& uncertain, const Division& bisector,
                        ThreadPool& pool) {
  FTTT_CHECK(!methods_.empty(), "EpochPipeline::run before bind");
  const ScenarioConfig& cfg = cfg_;
  const RngStream root = RngStream(cfg.seed).substream(trial);
  const std::unique_ptr<MobilityModel> trace = scenario_trace(cfg, root.substream(2));
  const BernoulliDropout dropout(cfg.dropout_probability, root.substream(3));
  const NoFaults none;
  const FaultModel& faults =
      cfg.dropout_probability > 0.0 ? static_cast<const FaultModel&>(dropout)
                                    : static_cast<const FaultModel&>(none);
  const auto target_at = [&](double t) { return trace->position_at(t); };

  // One batch matcher over the bisector table serves the per-epoch face
  // scans (precompute) and Direct MLE's selection (consume).
  // similarities_into is const and writes only to the caller's row, so
  // the precompute threads share it safely.
  std::optional<BatchMatcher> bisector_batch;
  std::size_t padded = 0;
  if (needs_bisector_) {
    bisector_batch.emplace(bisector.map, bisector.table);
    padded = bisector_batch->table().padded_faces();
  }
  const auto score_row = [&](std::size_t e) {
    return std::span<double>(scores_.data() + e * padded, padded);
  };

  // ---- Phase 1: parallel epoch precompute --------------------------------
  // Epoch e draws every sample from root.substream(4, e) and fault
  // decisions are pure in (node, epoch): every slot below is a pure
  // function of (cfg, trial, e), so any execution order fills the same
  // bits as the serial runner's loop.
  truths_.resize(epochs_);
  fttt_vecs_.resize(epochs_ * fttt_count_);
  scores_.resize(epochs_ * padded);
  {
    FTTT_OBS_SPAN("sim.pipeline.precompute");
    parallel_for(
        0, epochs_,
        [&](std::size_t e) {
          const double t0 = static_cast<double>(e) * cfg.localization_period;
          const GroupingSampling group = collect_group(nodes, sampling_, faults, e, t0,
                                                       target_at, root.substream(4, e));
          truths_[e] = trace->position_at(t0);
          for (std::size_t m = 0; m < methods_.size(); ++m)
            if (is_fttt(methods_[m]))
              fttt_vecs_[e * fttt_count_ + fttt_slot_[m]] = build_sampling_vector(
                  group, cfg.eps, fttt_mode(methods_[m]), cfg.missing);
          if (needs_bisector_)
            bisector_batch->similarities_into(
                one_shot_vector(group, 0, cfg.eps, cfg.missing), score_row(e));
        },
        pool);
  }
  FTTT_OBS_COUNT("sim.pipeline.epochs", epochs_);

  // ---- Phase 2: sequential consume ---------------------------------------
  // Each method walks the epochs in order; methods are independent of
  // one another, so per-method processing matches the serial runner's
  // interleaved loop exactly.
  FTTT_OBS_SPAN("sim.pipeline.consume");
  estimates_.resize(methods_.size() * epochs_);
  for (std::size_t m = 0; m < methods_.size(); ++m) {
    Vec2* out = estimates_.data() + m * epochs_;
    switch (methods_[m]) {
      case Method::kFttt:
      case Method::kFtttExtended: {
        FtttTracker tracker(uncertain.map,
                            FtttTracker::Config{fttt_mode(methods_[m]), cfg.eps,
                                                cfg.missing, cfg.hierarchical_matching},
                            uncertain.table);
        for (std::size_t e = 0; e < epochs_; ++e)
          out[e] = tracker.localize(fttt_vecs_[e * fttt_count_ + fttt_slot_[m]]).position;
        break;
      }
      case Method::kPathMatching: {
        PathMatchingTracker::Config pm;
        pm.eps = cfg.eps;
        pm.max_velocity = cfg.v_max;
        pm.period = cfg.localization_period;
        pm.missing = cfg.missing;
        PathMatchingTracker tracker(bisector.map, pm);
        for (std::size_t e = 0; e < epochs_; ++e)
          out[e] = tracker.localize_scored(score_row(e)).position;
        break;
      }
      case Method::kDirectMle:
        // Stateless: select_from repeats match()'s selection over the
        // row match() would have scanned.
        for (std::size_t e = 0; e < epochs_; ++e)
          out[e] = bisector_batch->select_from(score_row(e)).position;
        break;
    }
  }
}

TrackingResult run_tracking_pipelined(const ScenarioConfig& cfg,
                                      std::span<const Method> methods,
                                      std::uint64_t trial, ThreadPool& pool,
                                      FaceMapCache* cache) {
  EpochPipeline pipeline;
  pipeline.bind(cfg, methods);  // throws on an empty method list

  const RngStream root = RngStream(cfg.seed).substream(trial);
  const Deployment nodes = scenario_deployment(cfg, root.substream(1));
  // Face maps through the cache when one is supplied; without one each
  // call builds its own flat divisions, exactly like run_tracking.
  const auto division = [&](double C) {
    if (cache) return cache->get_or_build(nodes, C, cfg.field, cfg.grid_cell, pool);
    FTTT_OBS_SPAN("sim.facemap.build");
    return FaceMapBuilder(nodes, C, cfg.field, cfg.grid_cell, pool).build_division(false);
  };
  Division uncertain, bisector;
  if (pipeline.needs_uncertain()) uncertain = division(pipeline.channel().C);
  if (pipeline.needs_bisector()) bisector = division(1.0);
  pipeline.run(trial, nodes, uncertain, bisector, pool);

  TrackingResult result;
  result.faces_uncertain = uncertain.map ? uncertain.map->face_count() : 0;
  result.faces_bisector = bisector.map ? bisector.map->face_count() : 0;
  const std::span<const Vec2> truths = pipeline.truths();
  result.true_positions.assign(truths.begin(), truths.end());
  for (std::size_t e = 0; e < truths.size(); ++e)
    result.times.push_back(static_cast<double>(e) * cfg.localization_period);
  result.methods.resize(methods.size());
  for (std::size_t m = 0; m < methods.size(); ++m) {
    MethodTrackResult& mr = result.methods[m];
    mr.method = methods[m];
    const std::span<const Vec2> estimates = pipeline.estimates(m);
    mr.estimates.assign(estimates.begin(), estimates.end());
    for (std::size_t e = 0; e < estimates.size(); ++e)
      mr.errors.push_back(distance(estimates[e], truths[e]));
  }
  return result;
}

}  // namespace fttt
