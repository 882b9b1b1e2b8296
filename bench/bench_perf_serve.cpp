// Perf/soak harness for the fleet-scale serving engine (src/serve).
//
// Feeds a TrackManagerFleet a pre-generated multi-target report stream
// and times the steady-state service loop against a per-track scalar
// reference (one cold ExhaustiveMatcher-equivalent match_one per frame,
// no warm starts, no batching, no fan-out) — the loop a naive service
// would run. Emits BENCH_serve.json; tools/fttt_perfcmp.py gates the
// serve_batched row's speedup_vs_scalar (its throughput over
// scalar_per_track's) against bench/baselines/BENCH_serve.json
// (docs/perf.md has the procedure).
//
//   bench_perf_serve [--fast] [--json PATH] [--threads N]
//
// The fast shape serves 64 tracks x 20 ticks with a fail/revive every 6
// ticks; the full shape 256 tracks x 60 ticks, churn every 15.
//
// Before timing, the harness proves the engine right: fleet updates at
// 1, 2 and 8 shards must be bit-identical to each other and to a
// SerialReplay of the same stream, the same equivalence must hold
// through a fail/revive churn schedule, and churn must hold every track
// (zero drops). A wrong-but-fast engine fails the bench, not just the
// unit suite.
//
// Rows:
//   scalar_per_track  the reference loop
//   serve_batched     1 shard on ThreadPool(1): warm climbs + one SoA
//                     batch pass, no hardware parallelism — the gated,
//                     machine-portable algorithmic win
//   serve_fleet_mt    8 shards on the selected pool (informational)
//   serve_churn       serve_fleet_mt plus the fail/revive schedule
//                     (informational; rebuild cost included)
//   rebuild_wholesale median time of one FaceMapBuilder::build_division
//                     per fail/revive event on the hierarchical roster,
//                     tier and index built from scratch
//   rebuild_patched   the same events with the tier and index patched
//                     against the served division (the fleet's rebuild
//                     path); rows report rebuilds (ns_per_localization =
//                     ns per rebuild)
//   churn_stall       service-thread stall per accepted fail/revive call
//                     on a serving hierarchical fleet (informational)
#include <optional>
#include <string>
#include <vector>

#include "core/batch_matcher.hpp"
#include "core/facemap_builder.hpp"
#include "core/facemap_cache.hpp"
#include "core/sampling_vector.hpp"
#include "perf_harness.hpp"
#include "serve/fleet.hpp"
#include "serve/workload.hpp"
#include "sim/scenario_build.hpp"

namespace {

using namespace fttt;

using bench::fail;

/// Bit-exact update equality: the determinism contract compares whole
/// TrackUpdates, not just positions — face choice, similarity, warm/cold
/// provenance and the coverage gate must all agree.
bool identical(const TrackUpdate& a, const TrackUpdate& b) {
  if (a.track != b.track || a.epoch != b.epoch || a.warm != b.warm ||
      a.estimate.has_value() != b.estimate.has_value())
    return false;
  if (!a.estimate) return true;
  return a.estimate->position.x == b.estimate->position.x &&
         a.estimate->position.y == b.estimate->position.y &&
         a.estimate->face == b.estimate->face &&
         a.estimate->similarity == b.estimate->similarity;
}

/// A churn schedule event: before `tick`, fail or revive `node`.
struct ChurnEvent {
  std::uint64_t tick;
  NodeId node;
  bool fail;
};

/// Drive one fleet over the whole pre-generated stream (tick-major,
/// track-order submission), applying `events` between ticks, and return
/// every update in drain order.
std::vector<TrackUpdate> run_fleet(TrackManagerFleet& fleet,
                                   const std::vector<std::vector<ReportFrame>>& stream,
                                   const std::vector<ChurnEvent>& events) {
  std::vector<TrackUpdate> all;
  std::size_t next_event = 0;
  for (std::uint64_t tick = 0; tick < stream.size(); ++tick) {
    bool churned = false;
    while (next_event < events.size() && events[next_event].tick == tick) {
      const ChurnEvent& e = events[next_event++];
      if (!(e.fail ? fleet.fail_node(e.node) : fleet.revive_node(e.node)))
        fail("churn event refused (schedule bug)");
      churned = true;
    }
    // Settle each event's off-thread rebuild so the equivalence check
    // sees the deterministic adopt-per-event schedule the replay mirrors.
    if (churned) fleet.flush_rebuilds();
    for (const ReportFrame& frame : stream[tick])
      if (!fleet.submit(frame)) fail("submit rejected on an open fleet");
    std::vector<TrackUpdate> updates = fleet.tick();
    all.insert(all.end(), std::make_move_iterator(updates.begin()),
               std::make_move_iterator(updates.end()));
  }
  return all;
}

}  // namespace

int main(int argc, char** argv) {
  bench::PerfBench bench("serve", "loc", argc, argv);
  const std::size_t tracks = bench.fast() ? 64 : 256;
  const std::size_t ticks = bench.fast() ? 20 : 60;
  const std::size_t churn_period = bench.fast() ? 6 : 15;  // ticks per churn event

  // Table 1 shape: 100 x 100 m^2, n = 10, grid deployment (a fixed,
  // coverage-friendly roster), bounded channel, 2 m preprocessing grid
  // (the bench-suite default), k = 5, eps = 1.
  ScenarioConfig cfg;
  cfg.deployment = DeploymentKind::kGrid;
  cfg.channel = Channel::kBounded;
  cfg.grid_cell = 2.0;
  RngStream root(cfg.seed);
  const Deployment roster = scenario_deployment(cfg, root.substream(1));
  const ResolvedChannel channel = resolve_channel(cfg);

  SyntheticWorkload::Config wcfg;
  wcfg.tracks = tracks;
  wcfg.epoch_period = cfg.localization_period;
  wcfg.sampling = scenario_sampling(cfg, channel);
  const SyntheticWorkload workload(roster, cfg.field, wcfg, cfg.seed);

  // Pre-generate the whole stream so frame synthesis (collect_group) is
  // outside every timed loop: the rows time *serving*, not sampling.
  std::vector<std::vector<ReportFrame>> stream(ticks);
  for (std::uint64_t tick = 0; tick < ticks; ++tick) {
    stream[tick].reserve(tracks);
    for (TrackId t = 0; t < tracks; ++t) stream[tick].push_back(workload.frame(t, tick));
  }

  ThreadPool single(1);
  ThreadPool& mt_pool = bench.pool();
  const std::size_t threads = bench.threads();

  TrackManagerFleet::Config base_config;
  base_config.queue_capacity = tracks;  // one tick in flight, no shedding
  base_config.track.eps = cfg.eps;
  base_config.track.missing = cfg.missing;

  FaceMapCache cache;  // all fleets serve one shared initial division
  const auto make_fleet = [&](std::optional<TrackManagerFleet>& fleet, std::size_t shards,
                              ThreadPool& pool, bool with_cache) -> TrackManagerFleet& {
    TrackManagerFleet::Config c = base_config;
    c.shards = shards;
    fleet.reset();
    return fleet.emplace(roster, channel.C, cfg.field, cfg.grid_cell, c, pool,
                         with_cache ? &cache : nullptr);
  };

  // ---- Correctness gates (before any timing) ------------------------------

  // Gate 1: shard-count invariance + serial-replay equivalence. The
  // replay is the executable spec: one frame at a time, one shard.
  {
    const FaceMapCache::Entry entry =
        cache.get_or_build(roster, channel.C, cfg.field, cfg.grid_cell, single);
    std::vector<NodeId> all_members(roster.size());
    for (std::size_t i = 0; i < roster.size(); ++i)
      all_members[i] = static_cast<NodeId>(i);
    SerialReplay replay(base_config.track, entry.map, entry.table, all_members,
                        single);
    std::vector<TrackUpdate> spec;
    for (const std::vector<ReportFrame>& tick_frames : stream)
      for (const ReportFrame& frame : tick_frames)
        spec.push_back(replay.process(frame));

    for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      std::optional<TrackManagerFleet> slot;
      TrackManagerFleet& fleet = make_fleet(slot, shards, mt_pool, true);
      const std::vector<TrackUpdate> got = run_fleet(fleet, stream, {});
      if (got.size() != spec.size())
        fail("shard count " + std::to_string(shards) + ": update count mismatch");
      for (std::size_t i = 0; i < spec.size(); ++i)
        if (!identical(got[i], spec[i]))
          fail("shard count " + std::to_string(shards) +
               " diverges from serial replay at update " + std::to_string(i));
      if (fleet.stats().tracks != tracks)
        fail("shard count " + std::to_string(shards) + " dropped tracks");
    }
  }

  // Every churn schedule: event 2i fails node i, event 2i+1 revives it.
  const auto schedule_event = [&](std::size_t k, std::uint64_t tick) {
    return ChurnEvent{tick, static_cast<NodeId>(k / 2 % roster.size()), k % 2 == 0};
  };

  // Gate 2: the same equivalence through deployment churn, tracks held.
  std::vector<ChurnEvent> churn_events;
  {
    for (std::uint64_t tick = churn_period; tick < ticks; tick += churn_period)
      churn_events.push_back(schedule_event(churn_events.size(), tick));

    std::optional<TrackManagerFleet> slot, spec_slot;
    TrackManagerFleet& fleet = make_fleet(slot, 2, mt_pool, false);
    SerialReplay replay(base_config.track, fleet.map(), fleet.table(),
                        fleet.members(), single);
    std::vector<TrackUpdate> spec;
    TrackManagerFleet& spec_divisions = make_fleet(spec_slot, 1, single, false);
    {
      std::size_t next_event = 0;
      for (std::uint64_t tick = 0; tick < ticks; ++tick) {
        while (next_event < churn_events.size() &&
               churn_events[next_event].tick == tick) {
          const ChurnEvent& e = churn_events[next_event++];
          const bool applied = e.fail ? spec_divisions.fail_node(e.node)
                                      : spec_divisions.revive_node(e.node);
          if (!applied) fail("churn schedule refused by spec fleet");
          spec_divisions.flush_rebuilds();
          replay.adopt_division(spec_divisions.map(), spec_divisions.table(),
                                spec_divisions.members());
        }
        for (const ReportFrame& frame : stream[tick])
          spec.push_back(replay.process(frame));
      }
    }
    const std::vector<TrackUpdate> got = run_fleet(fleet, stream, churn_events);
    if (got.size() != spec.size()) fail("churn: update count mismatch");
    for (std::size_t i = 0; i < spec.size(); ++i)
      if (!identical(got[i], spec[i]))
        fail("churn run diverges from serial replay at update " + std::to_string(i));
    const TrackManagerFleet::Stats s = fleet.stats();
    if (s.tracks != tracks) fail("churn dropped tracks");
    if (s.rebuilds != churn_events.size())
      fail("churn rebuild count " + std::to_string(s.rebuilds) + " != events " +
           std::to_string(churn_events.size()));
  }

  // ---- Timed rows ---------------------------------------------------------

  volatile double sink = 0.0;  // defeat whole-loop elision
  std::uint64_t scalar_locs = 0;

  // Scalar reference: cold per-frame exhaustive localization, one at a
  // time, single-threaded — the same coverage gate, none of the serve
  // machinery.
  const FaceMapCache::Entry entry =
      cache.get_or_build(roster, channel.C, cfg.field, cfg.grid_cell, single);
  const BatchMatcher matcher(entry.map, entry.table, BatchMatcher::Config{}, single);
  const bench::Variant scalar{[&] {
    std::uint64_t locs = 0;
    double acc = 0.0;
    for (const std::vector<ReportFrame>& tick_frames : stream)
      for (const ReportFrame& frame : tick_frames) {
        if (frame.group.reporting_count() < kMinReporting) continue;
        const SamplingVector vd = build_sampling_vector(
            frame.group, base_config.track.eps, base_config.track.mode,
            base_config.track.missing);
        acc += matcher.match_one(vd).similarity;
        ++locs;
      }
    sink = acc;
    scalar_locs = locs;
  }};

  /// One fleet shape over the full stream, the fleet rebuilt per round
  /// outside the clock (the shared cache makes it cheap).
  std::optional<TrackManagerFleet> batched_fleet, mt_fleet, churn_fleet;
  const auto fleet_variant = [&](std::optional<TrackManagerFleet>& slot, std::size_t shards,
                                 ThreadPool& pool, const std::vector<ChurnEvent>& events) {
    return bench::Variant{
        [&, slot = &slot, events = &events] {
          TrackManagerFleet& fleet = **slot;
          std::size_t next_event = 0;
          double acc = 0.0;
          for (std::uint64_t tick = 0; tick < ticks; ++tick) {
            bool churned = false;
            while (next_event < events->size() && (*events)[next_event].tick == tick) {
              const ChurnEvent& e = (*events)[next_event++];
              if (!(e.fail ? fleet.fail_node(e.node) : fleet.revive_node(e.node)))
                fail("churn event refused while timing");
              churned = true;
            }
            // serve_churn keeps the historical semantics: the rebuild cost
            // lands inside the timed window (the rebuild rows time the
            // rebuild itself, churn_stall the service-thread call).
            if (churned) fleet.flush_rebuilds();
            for (const ReportFrame& frame : stream[tick]) fleet.submit(frame);
            for (const TrackUpdate& u : fleet.tick())
              if (u.estimate) acc += u.estimate->similarity;
          }
          sink = acc;
        },
        [&, slot = &slot, shards, pool = &pool, events = &events] {
          make_fleet(*slot, shards, *pool, events->empty());
        }};
  };
  const std::vector<ChurnEvent> no_churn;
  const std::vector<bench::SampleStats> t = bench.time({
      scalar,
      fleet_variant(batched_fleet, 1, single, no_churn),
      fleet_variant(mt_fleet, 8, mt_pool, no_churn),
      fleet_variant(churn_fleet, 8, mt_pool, churn_events),
  });
  if (scalar_locs == 0) fail("scalar reference localized nothing");

  // Every fleet row must count the scalar reference's work (churn
  // re-divisions may gate differently, so serve_churn counts its own)
  // and hold every track.
  const auto fleet_row = [&](const std::string& name, const TrackManagerFleet& fleet,
                             std::size_t row_threads, const bench::SampleStats& time,
                             bool churn) {
    const TrackManagerFleet::Stats s = fleet.stats();
    if (!churn && s.localizations != scalar_locs)
      fail(name + ": localization count " + std::to_string(s.localizations) +
           " != scalar reference " + std::to_string(scalar_locs));
    if (s.tracks != tracks) fail(name + ": dropped tracks");
    if (s.localizations == 0) fail(name + ": localized nothing");
    const bench::SampleStats per = time.per(static_cast<double>(s.localizations));
    bench.add({name, tracks, row_threads, per,
               {{"speedup_vs_scalar",
                 t[0].median / static_cast<double>(scalar_locs) / per.median}}});
  };
  bench.add({"scalar_per_track", tracks, 1, t[0].per(static_cast<double>(scalar_locs))});
  fleet_row("serve_batched", *batched_fleet, 1, t[1], false);
  fleet_row("serve_fleet_mt", *mt_fleet, threads, t[2], false);
  fleet_row("serve_churn", *churn_fleet, threads, t[3], true);

  // Churn rows: one sample per event of a fixed fail/revive schedule,
  // reported as the median (on a small-core box the scheduler sometimes
  // preempts one event for a whole quantum).
  std::vector<ChurnEvent> schedule;
  for (std::size_t k = 0; k < (bench.fast() ? 12u : 40u); ++k)
    schedule.push_back(schedule_event(k, 0));
  const auto event_row = [&](const std::string& name, const bench::SampleStats& time,
                             const std::string& unit) {
    bench.add({name, tracks, threads, time,
               {{"events", static_cast<double>(schedule.size())}}, unit});
  };

  // Rebuild rows: the division work one churn event costs, i.e. what
  // staleness after churn waits for. Two builders over the hierarchical
  // roster take the schedule; per event each times one
  // FaceMapBuilder::build_division — wholesale (no previous division)
  // and patched (against the division it served). Events interleave the
  // two so both see the same machine state, and every patched division
  // must match its wholesale twin.
  {
    FaceMapBuilder wholesale(roster, channel.C, cfg.field, cfg.grid_cell, mt_pool);
    FaceMapBuilder patching(roster, channel.C, cfg.field, cfg.grid_cell, mt_pool);
    (void)wholesale.build_division(true);
    Division served = patching.build_division(true);
    Division want, got;
    std::size_t next = 0;
    const auto adopt_checked = [&] {
      if (got.members != want.members || got.map->face_count() != want.map->face_count() ||
          got.hier->bytes() != want.hier->bytes() ||
          got.index->mixed_entries() != want.index->mixed_entries())
        fail("rebuild_patched diverges from rebuild_wholesale");
      served = std::move(got);
      want = Division{};
    };
    const std::vector<bench::SampleStats> r = bench::time_rounds(
        schedule.size(),
        {{[&] { want = wholesale.build_division(true); },
          [&] {
            if (next > 0) adopt_checked();
            const ChurnEvent& e = schedule[next++];
            for (FaceMapBuilder* b : {&wholesale, &patching}) {
              if (e.fail)
                b->deactivate(e.node);
              else
                b->activate(e.node);
            }
          }},
         {[&] { got = patching.build_division(true, &served); }}});
    adopt_checked();
    event_row("rebuild_wholesale", r[0], "rebuild");
    event_row("rebuild_patched", r[1], "rebuild");
  }

  // churn_stall: what the *service thread* pays per accepted fail/revive
  // call on a serving hierarchical fleet — the alive-mirror flip plus the
  // rebuild enqueue; each event's rebuild runs off-thread and is settled
  // outside the clock, so no event is a coalesced no-op.
  {
    TrackManagerFleet::Config c = base_config;
    c.shards = 8;
    c.track.hierarchical = true;
    TrackManagerFleet fleet(roster, channel.C, cfg.field, cfg.grid_cell, c, mt_pool,
                            nullptr);
    // Hold a full track slate so the stall is measured on a fleet that is
    // actually serving (adoption walks every shard).
    for (const ReportFrame& frame : stream[0]) fleet.submit(frame);
    (void)fleet.tick();
    std::size_t next = 0;
    const std::vector<bench::SampleStats> r = bench::time_rounds(
        schedule.size(), {{[&] {
                             const ChurnEvent& e = schedule[next++];
                             if (!(e.fail ? fleet.fail_node(e.node)
                                          : fleet.revive_node(e.node)))
                               fail("churn_stall: churn event refused");
                           },
                           [&] { fleet.flush_rebuilds(); }}});
    fleet.flush_rebuilds();
    if (fleet.stats().tracks != tracks) fail("churn_stall: dropped tracks");
    if (fleet.stats().rebuilds != schedule.size()) fail("churn_stall: rebuild count != events");
    event_row("churn_stall", r[0], "event");
  }
  (void)sink;

  return bench.finish({{"sensors", static_cast<double>(roster.size())},
                       {"tracks", static_cast<double>(tracks)},
                       {"ticks", static_cast<double>(ticks)},
                       {"localized_frames", static_cast<double>(scalar_locs)},
                       {"churn_period", static_cast<double>(churn_period)}});
}
