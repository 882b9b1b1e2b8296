// Layer replay of a traced run: the workload's own shape pushed through
// each core/net/sim layer API one call at a time, so every layer's unit
// cost is measured on the inputs that workload feeds it. Every call is a
// span (name = layer.operation) under one replay span per layer.
#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "core/batch_matcher.hpp"
#include "core/facemap_builder.hpp"
#include "core/facemap_cache.hpp"
#include "core/sampling_vector.hpp"
#include "core/signature_index.hpp"
#include "net/deployment.hpp"
#include "net/faults.hpp"
#include "net/sampling.hpp"
#include "serve/shard.hpp"
#include "sim/epoch_pipeline.hpp"
#include "sim/scenario_build.hpp"
#include "workloads.hpp"

namespace bench {

using fttt::FaceMap;
using fttt::SamplingVector;
using fttt::ThreadPool;

namespace {

/// Median of `reps` spans of `fn`, in the unit `scale` converts ns to.
template <typename Fn>
double timed(SpanRecorder& spans, const char* name, std::uint64_t parent, std::size_t reps,
             double scale, Fn&& fn) {
  std::vector<double> v;
  v.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    const std::uint64_t t0 = now_ns();
    fn(r);
    const std::uint64_t t1 = now_ns();
    spans.record(name, kMain, t0, t1, parent, r);
    v.push_back(static_cast<double>(t1 - t0) / scale);
  }
  return summarize(v).median;
}

/// Repetitions so a replay of ~`unit_ms` per call takes about `budget_ms`.
std::size_t reps_for(double unit_ms, double budget_ms, std::size_t lo, std::size_t hi) {
  const double r = unit_ms > 0.0 ? budget_ms / unit_ms : static_cast<double>(hi);
  return std::clamp(static_cast<std::size_t>(r), lo, hi);
}

}  // namespace

void replay_layers(const Shape& shape, Report& report, SpanRecorder& spans) {
  const fttt::ScenarioConfig& cfg = shape.scenario;
  ThreadPool pool(std::max<std::size_t>(1, cpu_count() - 2));
  ThreadPool single(1);
  const std::size_t n = shape.roster.size();

  // net: deployment generation and one grouping sampling.
  {
    const Scoped layer(spans, "replay.net", kMain);
    const fttt::RngStream root(cfg.seed);
    const double gen_us =
        timed(spans, "net.generate", layer.id(), 200, 1e3, [&](std::size_t r) {
          (void)fttt::scenario_deployment(cfg, root.substream(r).substream(1));
        });
    const fttt::BernoulliDropout dropout(shape.frames.drop_probability,
                                         fttt::RngStream(cfg.seed).substream(2));
    const fttt::NoFaults none;
    const fttt::FaultModel& faults =
        shape.frames.drop_probability > 0.0 ? static_cast<const fttt::FaultModel&>(dropout)
                                            : static_cast<const fttt::FaultModel&>(none);
    const fttt::Vec2 center = cfg.field.center();
    const double collect_us =
        timed(spans, "net.collect_group", layer.id(), 2000, 1e3, [&](std::size_t r) {
          (void)fttt::collect_group(shape.roster, shape.frames.sampling, faults, r, 0.0,
                                    [&](double) { return center; },
                                    fttt::RngStream(cfg.seed).substream(3).substream(r));
        });
    report.layer("net.generate_us", gen_us, "us");
    report.layer("net.collect_group_us", collect_us, "us");
  }

  // The workload's frames: 64 tracks x 16 epochs, track-major, so each
  // vector's predecessor is the same track one epoch earlier.
  constexpr std::size_t kTracks = 64;
  constexpr std::size_t kEpochs = 16;
  fttt::SyntheticWorkload::Config fc = shape.frames;
  fc.tracks = kTracks;
  const fttt::SyntheticWorkload source(shape.roster, cfg.field, fc, cfg.seed);
  std::vector<fttt::ReportFrame> frames;
  for (fttt::TrackId t = 0; t < kTracks; ++t)
    for (std::uint64_t e = 0; e < kEpochs; ++e) frames.push_back(source.frame(t, e));

  std::vector<SamplingVector> vectors(frames.size());
  {
    const Scoped layer(spans, "replay.sampling_vector", kMain);
    const double ns =
        timed(spans, "vector.build", layer.id(), frames.size(), 1.0, [&](std::size_t i) {
          vectors[i] = fttt::build_sampling_vector(frames[i].group, cfg.eps,
                                                   fttt::VectorMode::kBasic, cfg.missing);
        });
    report.layer("vector.build_ns", ns, "ns");
  }

  // facemap_builder: the served division, fresh-roster cold builds, and
  // fail/revive rebuilds with the hierarchy/index patched along each delta.
  fttt::FaceMapBuilder builder(shape.roster, shape.C, cfg.field, cfg.grid_cell, pool);
  auto map = std::make_shared<const FaceMap>(builder.build());
  auto hier = std::make_shared<const fttt::HierFaceMap>(builder.build_hierarchy());
  auto table = std::make_shared<const fttt::SignatureTable>(builder.take_signature_table());
  auto index = std::make_shared<const fttt::SignatureIndex>(
      fttt::SignatureIndex::build(*hier, pool));
  const std::shared_ptr<const FaceMap> served_map = map;
  const std::shared_ptr<const fttt::SignatureTable> served_table = table;
  const std::shared_ptr<const fttt::HierFaceMap> served_hier = hier;
  const std::shared_ptr<const fttt::SignatureIndex> served_index = index;
  report.note("builder.faces", static_cast<double>(map->face_count()), "faces");
  {
    const Scoped layer(spans, "replay.facemap_builder", kMain);
    const fttt::RandomDeploymentGenerator gen(cfg.field, n);
    fttt::FaceMapBuilder cold(gen.generate(cfg.seed, 0), shape.C, cfg.field, cfg.grid_cell,
                              pool);
    fttt::FaceMapBuilder::BuildProducts products;
    cold.build_into(products);
    std::vector<double> rasterized;
    const double cold_ms = timed(spans, "builder.cold_build", layer.id(), 12, 1e6,
                                 [&](std::size_t r) {
                                   cold.reset_roster(gen.generate(cfg.seed, r + 1));
                                   cold.build_into(products);
                                   rasterized.push_back(
                                       static_cast<double>(cold.last_planes_rasterized()));
                                 });

    std::vector<double> rebuild_ms, hier_ms, index_ms;
    std::size_t recomputed = 0, copied = 0;
    fttt::RngStream rng = fttt::RngStream(cfg.seed).substream(11);
    std::optional<fttt::NodeId> down;
    for (std::size_t e = 0; e < 12; ++e) {
      const bool fail = !down;
      const fttt::NodeId node =
          fail ? static_cast<fttt::NodeId>(rng.uniform_index(n)) : *down;
      down = fail ? std::optional<fttt::NodeId>(node) : std::nullopt;
      const std::uint64_t t0 = now_ns();
      if (fail)
        builder.deactivate(node);
      else
        builder.activate(node);
      auto next = std::make_shared<const FaceMap>(builder.build());
      const std::uint64_t t1 = now_ns();
      const fttt::DivisionDelta delta = builder.delta_since(*map, *next);
      fttt::HierPatchReport rep;
      auto next_hier = std::make_shared<const fttt::HierFaceMap>(
          delta.valid ? builder.patch_hierarchy(*hier, delta, &rep)
                      : builder.build_hierarchy());
      const std::uint64_t t2 = now_ns();
      auto next_index = std::make_shared<const fttt::SignatureIndex>(
          delta.valid && rep.structure_matched
              ? fttt::SignatureIndex::patched(*next_hier, *index, delta, rep, pool)
              : fttt::SignatureIndex::build(*next_hier, pool));
      const std::uint64_t t3 = now_ns();
      table = std::make_shared<const fttt::SignatureTable>(builder.take_signature_table());
      spans.record("builder.rebuild", kMain, t0, t1, layer.id(), e);
      spans.record("hier.patch", kMain, t1, t2, layer.id(), e);
      spans.record("index.patch", kMain, t2, t3, layer.id(), e);
      rebuild_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      hier_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
      index_ms.push_back(static_cast<double>(t3 - t2) / 1e6);
      recomputed += rep.recomputed_tiles;
      copied += rep.copied_tiles;
      map = std::move(next);
      hier = std::move(next_hier);
      index = std::move(next_index);
    }
    report.layer("builder.cold_build_ms", cold_ms, "ms");
    report.layer("builder.planes_rasterized", summarize(rasterized).median, "planes");
    report.layer("builder.rebuild_ms", summarize(rebuild_ms).median, "ms");
    report.layer("hier.patch_ms", summarize(hier_ms).median, "ms");
    const std::size_t tiles = recomputed + copied;
    report.layer("hier.recomputed_tile_share",
                 tiles ? static_cast<double>(recomputed) / static_cast<double>(tiles) : 0.0,
                 "ratio");
    report.layer("index.patch_ms", summarize(index_ms).median, "ms");
  }

  // batch_matcher over the served division: flat batch, descent, climb.
  {
    const Scoped layer(spans, "replay.batch_matcher", kMain);
    const fttt::BatchMatcher::Config mc{};
    const fttt::BatchMatcher flat(served_map, served_table, mc, single);
    fttt::BatchMatcher tiered(served_map, served_table, mc, single);
    tiered.attach_hierarchy(served_hier, served_index);

    std::vector<fttt::MatchResult> descended(vectors.size());
    std::vector<double> scored;
    const double descend_ns =
        timed(spans, "matcher.descend", layer.id(), vectors.size(), 1.0,
              [&](std::size_t i) { descended[i] = tiered.descend(vectors[i]); });
    for (const fttt::MatchResult& m : descended)
      scored.push_back(static_cast<double>(m.faces_examined) /
                       static_cast<double>(served_map->face_count()));

    std::vector<double> climb_faces;
    std::vector<double> climb_ns;
    for (std::size_t i = 0; i < vectors.size(); ++i) {
      if (i % kEpochs == 0) continue;  // a track's first epoch has no warm start
      const std::uint64_t t0 = now_ns();
      const fttt::MatchResult c = flat.climb(vectors[i], descended[i - 1].face);
      const std::uint64_t t1 = now_ns();
      spans.record("matcher.climb", kMain, t0, t1, layer.id(), i);
      climb_ns.push_back(static_cast<double>(t1 - t0));
      climb_faces.push_back(static_cast<double>(c.faces_examined));
    }

    // Flat SoA batches of 16, as many as fit ~300 ms (one at least).
    const std::vector<SamplingVector> batch(vectors.begin(), vectors.begin() + 16);
    const std::uint64_t probe0 = now_ns();
    (void)flat.match(batch);
    const std::size_t reps = reps_for(ms_since(probe0), 300.0, 1, 40);
    const double batch_ns = timed(spans, "matcher.match", layer.id(), reps, 1.0,
                                  [&](std::size_t) { (void)flat.match(batch); });

    report.layer("matcher.climb_ns", summarize(climb_ns).median, "ns");
    report.layer("matcher.climb_faces", summarize(climb_faces).median, "faces");
    report.layer("matcher.match_ns_per_vector", batch_ns / 16.0, "ns");
    report.layer("matcher.descend_ns", descend_ns, "ns");
    report.layer("matcher.descend_scored_share", summarize(scored).median, "ratio");
  }

  // facemap_cache: a hit on an entry already built.
  {
    const Scoped layer(spans, "replay.facemap_cache", kMain);
    fttt::FaceMapCache cache;
    (void)cache.get_or_build(shape.roster, shape.C, cfg.field, cfg.grid_cell, pool);
    const double hit_us = timed(spans, "cache.hit", layer.id(), 500, 1e3, [&](std::size_t) {
      (void)cache.get_or_build(shape.roster, shape.C, cfg.field, cfg.grid_cell, pool);
    });
    report.layer("cache.hit_us", hit_us, "us");
  }

  // shard: TrackShard::resolve on one shard, tick-major rounds.
  {
    const Scoped layer(spans, "replay.shard", kMain);
    fttt::TrackShard::Config sc;
    sc.eps = cfg.eps;
    sc.missing = cfg.missing;
    sc.hierarchical = shape.hierarchical;
    fttt::TrackShard shard(sc, single);
    std::vector<fttt::NodeId> members(n);
    for (std::size_t i = 0; i < n; ++i) members[i] = static_cast<fttt::NodeId>(i);
    shard.adopt_division(served_map, served_table, members,
                         shape.hierarchical ? served_hier : nullptr,
                         shape.hierarchical ? served_index : nullptr);
    std::vector<const fttt::ReportFrame*> round(kTracks);
    std::vector<fttt::TrackUpdate> out(kTracks);
    const double us =
        timed(spans, "shard.resolve", layer.id(), kEpochs, 1e3, [&](std::size_t e) {
          for (std::size_t t = 0; t < kTracks; ++t) round[t] = &frames[t * kEpochs + e];
          shard.resolve(round, out.data());
        });
    report.layer("shard.resolve_us_per_frame", us / static_cast<double>(kTracks), "us");
  }

  // sim: one trial per method on a warm cache (same trial, repeated).
  {
    const Scoped layer(spans, "replay.sim", kMain);
    fttt::ScenarioConfig trial_cfg = cfg;
    trial_cfg.duration = std::min(cfg.duration, 20.0);
    fttt::FaceMapCache cache;
    const std::array<std::pair<fttt::Method, const char*>, 4> methods{{
        {fttt::Method::kFttt, "sim.trial_ms.fttt"},
        {fttt::Method::kFtttExtended, "sim.trial_ms.fttt_ext"},
        {fttt::Method::kPathMatching, "sim.trial_ms.pm"},
        {fttt::Method::kDirectMle, "sim.trial_ms.mle"},
    }};
    for (const auto& [method, name] : methods) {
      const std::array<fttt::Method, 1> one{method};
      const std::uint64_t t0 = now_ns();
      (void)fttt::run_tracking_pipelined(trial_cfg, one, 0, ThreadPool::global(), &cache);
      const std::size_t reps = reps_for(ms_since(t0), 250.0, 3, 40);
      const double ms = timed(spans, name, layer.id(), reps, 1e6, [&](std::size_t) {
        (void)fttt::run_tracking_pipelined(trial_cfg, one, 0, ThreadPool::global(), &cache);
      });
      report.layer(name, ms, "ms");
    }
  }
}

}  // namespace bench
