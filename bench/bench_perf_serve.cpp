// Perf/soak harness for the fleet-scale serving engine (src/serve).
//
// Feeds a TrackManagerFleet a pre-generated multi-target report stream
// and times the steady-state service loop against a per-track scalar
// reference (one cold ExhaustiveMatcher-equivalent match_one per frame,
// no warm starts, no batching, no fan-out) — the loop a naive service
// would run. Emits BENCH_serve.json; tools/fttt_perfcmp.py gates the
// serve_batched row by its `throughput_ref` ratio against
// bench/baselines/BENCH_serve.json (docs/perf.md has the procedure).
//
//   bench_perf_serve [--fast] [--json PATH] [--tracks N] [--ticks N]
//                    [--repeats R] [--threads N] [--churn N]
//
// Before timing, the harness proves the engine right: fleet updates at
// 1, 2 and 8 shards must be bit-identical to each other and to a
// SerialReplay of the same stream, the same equivalence must hold
// through a fail/revive churn schedule, and churn must hold every track
// (zero drops). A wrong-but-fast engine fails the bench, not just the
// unit suite.
//
// Rows:
//   scalar_per_track  the reference loop (localizations_per_sec anchor)
//   serve_batched     1 shard on ThreadPool(1): warm climbs + one SoA
//                     batch pass, no hardware parallelism — the gated,
//                     machine-portable algorithmic win
//   serve_fleet_mt    8 shards on the selected pool (informational)
//   serve_churn       serve_fleet_mt plus a fail/revive every --churn
//                     ticks (informational; rebuild cost included)
//   rebuild_wholesale median time of one FaceMapBuilder::build_division
//                     per fail/revive event on the hierarchical roster,
//                     tier and index built from scratch
//   rebuild_patched   the same events with the tier and index patched
//                     against the served division (the fleet's rebuild
//                     path); rows report rebuilds (ns_per_localization =
//                     ns per rebuild)
//   churn_stall       service-thread stall per accepted fail/revive call
//                     on a serving hierarchical fleet (informational)
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/batch_matcher.hpp"
#include "core/facemap_builder.hpp"
#include "core/facemap_cache.hpp"
#include "core/sampling_vector.hpp"
#include "serve/fleet.hpp"
#include "serve/workload.hpp"
#include "sim/scenario_build.hpp"

namespace {

using namespace fttt;

struct Options {
  bool fast = false;
  std::string json_path = "BENCH_serve.json";
  std::size_t tracks = 256;
  std::size_t ticks = 60;
  std::size_t repeats = 5;   ///< timed passes; best (min) wins
  std::size_t threads = 0;   ///< mt rows; 0 = shared global pool
  std::size_t churn = 15;    ///< fail/revive period (ticks) for serve_churn
};

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--fast") {
      opt.fast = true;
      opt.tracks = 64;
      opt.ticks = 20;
      opt.repeats = 3;
      opt.churn = 6;
    } else if (arg == "--json" && i + 1 < argc) {
      opt.json_path = argv[++i];
    } else if (arg == "--tracks" && i + 1 < argc) {
      opt.tracks = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--ticks" && i + 1 < argc) {
      opt.ticks = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--repeats" && i + 1 < argc) {
      opt.repeats = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--threads" && i + 1 < argc) {
      opt.threads = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--churn" && i + 1 < argc) {
      opt.churn = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--fast] [--json PATH] [--tracks N] [--ticks N]"
                   " [--repeats R] [--threads N] [--churn N]\n";
      std::exit(2);
    }
  }
  if (opt.tracks == 0 || opt.ticks == 0 || opt.repeats == 0 || opt.churn == 0) {
    std::cerr << "bench_perf_serve: --tracks/--ticks/--repeats/--churn must be >= 1\n";
    std::exit(2);
  }
  return opt;
}

void fail(const std::string& message) {
  std::cerr << "bench_perf_serve: " << message << "\n";
  std::exit(1);
}

struct Row {
  std::string name;
  std::size_t batch;           ///< concurrent tracks
  double ns_per_localization;  ///< churn rows: ns per churn event
  double localizations_per_sec;
  std::size_t threads;
  std::string ref;    ///< throughput_ref row name; empty = ungated
  std::string extra;  ///< raw JSON fields appended to the row; empty = none
  std::string unit{"loc"};  ///< what one ns_per_localization measures
};

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
  const Options opt = parse(argc, argv);

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
  wcfg.tracks = opt.tracks;
  wcfg.epoch_period = cfg.localization_period;
  wcfg.sampling = scenario_sampling(cfg, channel);
  const SyntheticWorkload workload(roster, cfg.field, wcfg, cfg.seed);

  // Pre-generate the whole stream so frame synthesis (collect_group) is
  // outside every timed loop: the rows time *serving*, not sampling.
  std::vector<std::vector<ReportFrame>> stream(opt.ticks);
  for (std::uint64_t tick = 0; tick < opt.ticks; ++tick) {
    stream[tick].reserve(opt.tracks);
    for (TrackId t = 0; t < opt.tracks; ++t)
      stream[tick].push_back(workload.frame(t, tick));
  }

  ThreadPool single(1);
  std::unique_ptr<ThreadPool> owned_mt;
  ThreadPool& mt_pool =
      opt.threads > 0 ? *(owned_mt = std::make_unique<ThreadPool>(opt.threads))
                      : ThreadPool::global();

  TrackManagerFleet::Config base_config;
  base_config.queue_capacity = opt.tracks;  // one tick in flight, no shedding
  base_config.track.eps = cfg.eps;
  base_config.track.missing = cfg.missing;

  FaceMapCache cache;  // all fleets serve one shared initial division
  const auto make_fleet = [&](std::size_t shards, ThreadPool& pool,
                              bool with_cache) {
    TrackManagerFleet::Config c = base_config;
    c.shards = shards;
    return TrackManagerFleet(roster, channel.C, cfg.field, cfg.grid_cell, c, pool,
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
      TrackManagerFleet fleet = make_fleet(shards, mt_pool, true);
      const std::vector<TrackUpdate> got = run_fleet(fleet, stream, {});
      if (got.size() != spec.size())
        fail("shard count " + std::to_string(shards) + ": update count mismatch");
      for (std::size_t i = 0; i < spec.size(); ++i)
        if (!identical(got[i], spec[i]))
          fail("shard count " + std::to_string(shards) +
               " diverges from serial replay at update " + std::to_string(i));
      if (fleet.stats().tracks != opt.tracks)
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
    for (std::uint64_t tick = opt.churn; tick < opt.ticks; tick += opt.churn)
      churn_events.push_back(schedule_event(churn_events.size(), tick));

    TrackManagerFleet fleet = make_fleet(2, mt_pool, false);
    SerialReplay replay(base_config.track, fleet.map(), fleet.table(),
                        fleet.members(), single);
    std::vector<TrackUpdate> spec;
    TrackManagerFleet spec_divisions = make_fleet(1, single, false);
    {
      std::size_t next_event = 0;
      for (std::uint64_t tick = 0; tick < opt.ticks; ++tick) {
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
    if (s.tracks != opt.tracks) fail("churn dropped tracks");
    if (s.rebuilds != churn_events.size())
      fail("churn rebuild count " + std::to_string(s.rebuilds) + " != events " +
           std::to_string(churn_events.size()));
  }

  // ---- Timed rows ---------------------------------------------------------

  const auto now = [] { return std::chrono::steady_clock::now(); };
  const auto seconds = [](auto d) { return std::chrono::duration<double>(d).count(); };
  std::vector<Row> rows;
  volatile double sink = 0.0;  // defeat whole-loop elision
  std::uint64_t scalar_locs = 0;

  // Scalar reference: cold per-frame exhaustive localization, one at a
  // time, single-threaded — the same coverage gate, none of the serve
  // machinery.
  double scalar_s = 1e300;
  {
    const FaceMapCache::Entry entry =
        cache.get_or_build(roster, channel.C, cfg.field, cfg.grid_cell, single);
    const BatchMatcher matcher(entry.map, entry.table, BatchMatcher::Config{},
                               single);
    for (std::size_t r = 0; r < opt.repeats; ++r) {
      std::uint64_t locs = 0;
      double acc = 0.0;
      const auto t0 = now();
      for (const std::vector<ReportFrame>& tick_frames : stream)
        for (const ReportFrame& frame : tick_frames) {
          if (frame.group.reporting_count() < kMinReporting) continue;
          const SamplingVector vd =
              build_sampling_vector(frame.group, base_config.track.eps,
                                    base_config.track.mode,
                                    base_config.track.missing);
          const MatchResult m = matcher.match_one(vd);
          acc += m.similarity;
          ++locs;
        }
      scalar_s = std::min(scalar_s, seconds(now() - t0));
      sink = acc;
      scalar_locs = locs;
    }
    if (scalar_locs == 0) fail("scalar reference localized nothing");
  }
  rows.push_back({"scalar_per_track", opt.tracks,
                  scalar_s * 1e9 / static_cast<double>(scalar_locs),
                  static_cast<double>(scalar_locs) / scalar_s, 1, "", ""});

  /// Time one fleet shape: best-of-repeats over the full stream, fleet
  /// rebuilt per pass (construction outside the clock; the shared cache
  /// makes it cheap), localization count checked against the scalar
  /// reference so the rows always count the same work.
  const auto time_fleet = [&](const std::string& name, std::size_t shards,
                              ThreadPool& pool, std::size_t threads,
                              const std::vector<ChurnEvent>& events,
                              const std::string& ref) {
    double best = 1e300;
    std::uint64_t locs = scalar_locs;
    for (std::size_t r = 0; r < opt.repeats; ++r) {
      TrackManagerFleet fleet = make_fleet(shards, pool, events.empty());
      std::size_t next_event = 0;
      double acc = 0.0;
      const auto t0 = now();
      for (std::uint64_t tick = 0; tick < opt.ticks; ++tick) {
        bool churned = false;
        while (next_event < events.size() && events[next_event].tick == tick) {
          const ChurnEvent& e = events[next_event++];
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
      best = std::min(best, seconds(now() - t0));
      sink = acc;
      const TrackManagerFleet::Stats s = fleet.stats();
      // Churn re-divisions may gate differently (fewer live nodes), so
      // only the churn-free rows must match the scalar count exactly.
      if (events.empty() && s.localizations != scalar_locs)
        fail(name + ": localization count " + std::to_string(s.localizations) +
             " != scalar reference " + std::to_string(scalar_locs));
      if (s.tracks != opt.tracks) fail(name + ": dropped tracks");
      locs = s.localizations;  // may differ under churn (coverage gating)
    }
    if (locs == 0) fail(name + ": localized nothing");
    rows.push_back({name, opt.tracks,
                    best * 1e9 / static_cast<double>(locs),
                    static_cast<double>(locs) / best, threads, ref, ""});
  };

  time_fleet("serve_batched", 1, single, 1, {}, "scalar_per_track");
  time_fleet("serve_fleet_mt", 8, mt_pool, mt_pool.thread_count(), {}, "");
  time_fleet("serve_churn", 8, mt_pool, mt_pool.thread_count(), churn_events, "");

  /// Churn-row metric: the *median* per-event time (on a small-core box
  /// the scheduler sometimes preempts one event for a whole quantum; the
  /// median rejects those artifacts), mean and p99 as extra fields.
  const auto median_row = [&](const std::string& name, std::vector<double> ns,
                              const std::string& unit) {
    double sum = 0.0;
    for (const double v : ns) sum += v;
    std::sort(ns.begin(), ns.end());
    const double p50 = ns[ns.size() / 2];
    std::ostringstream extra;
    extra.precision(6);
    extra << "\"unit\": \"" << unit << "\", \"events\": " << ns.size()
          << ", \"mean_ns\": " << sum / static_cast<double>(ns.size())
          << ", \"p99_ns\": " << ns[std::min(ns.size() - 1, ns.size() * 99 / 100)];
    rows.push_back({name, opt.tracks, p50, 1e9 / p50, mt_pool.thread_count(), "",
                    extra.str(), unit});
  };
  std::vector<ChurnEvent> schedule;
  for (std::size_t k = 0; k < (opt.fast ? 12u : 40u); ++k)
    schedule.push_back(schedule_event(k, 0));

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
    std::vector<double> wholesale_ns, patched_ns;
    for (const ChurnEvent& e : schedule) {
      for (FaceMapBuilder* b : {&wholesale, &patching}) {
        if (e.fail)
          b->deactivate(e.node);
        else
          b->activate(e.node);
      }
      auto t0 = now();
      const Division want = wholesale.build_division(true);
      wholesale_ns.push_back(seconds(now() - t0) * 1e9);
      t0 = now();
      Division got = patching.build_division(true, &served);
      patched_ns.push_back(seconds(now() - t0) * 1e9);
      if (got.members != want.members || got.map->face_count() != want.map->face_count() ||
          got.hier->bytes() != want.hier->bytes() ||
          got.index->mixed_entries() != want.index->mixed_entries())
        fail("rebuild_patched diverges from rebuild_wholesale");
      served = std::move(got);
    }
    median_row("rebuild_wholesale", std::move(wholesale_ns), "rebuild");
    median_row("rebuild_patched", std::move(patched_ns), "rebuild");
  }

  // churn_stall: what the *service thread* pays per accepted fail/revive
  // call on a serving hierarchical fleet — the alive-mirror flip plus the
  // rebuild enqueue; the rebuild itself runs off-thread and is settled
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
    std::vector<double> event_ns;
    for (const ChurnEvent& e : schedule) {
      const auto t0 = now();
      const bool ok = e.fail ? fleet.fail_node(e.node) : fleet.revive_node(e.node);
      event_ns.push_back(seconds(now() - t0) * 1e9);
      if (!ok) fail("churn_stall: churn event refused");
      fleet.flush_rebuilds();
    }
    if (fleet.stats().tracks != opt.tracks) fail("churn_stall: dropped tracks");
    if (fleet.stats().rebuilds != schedule.size()) fail("churn_stall: rebuild count != events");
    median_row("churn_stall", std::move(event_ns), "event");
  }
  (void)sink;

  // Human-readable report.
  std::cout << "serve perf (n=" << roster.size() << " grid, tracks=" << opt.tracks
            << ", ticks=" << opt.ticks << ", frames=" << opt.tracks * opt.ticks
            << ", localized=" << scalar_locs
            << ", mt threads=" << mt_pool.thread_count() << ")\n";
  for (const Row& r : rows) {
    std::cout << "  " << r.name << ": " << r.ns_per_localization << " ns/"
              << r.unit << ", " << r.localizations_per_sec << " " << r.unit << "/s";
    const Row* base = r.unit == "loc" && r.name != "scalar_per_track" ? &rows[0] : nullptr;
    if (base)
      std::cout << ", ratio "
                << r.localizations_per_sec / base->localizations_per_sec << "x vs "
                << base->name;
    std::cout << "\n";
  }
  if (!opt.fast) {
    for (const Row& r : rows)
      if (r.name == "serve_fleet_mt" && r.localizations_per_sec < 1e5)
        std::cout << "warning: serve_fleet_mt below the 100k loc/s soak target "
                     "(machine-dependent; the CI gate is the portable ratio)\n";
  }

  // Machine-readable trajectory point (see docs/perf.md). The gated row
  // carries throughput_ref: fttt_perfcmp.py compares the in-file
  // localizations_per_sec ratio vs scalar_per_track, which is
  // machine-portable the same way speedup_vs_scalar is.
  std::ofstream json(opt.json_path);
  if (!json) fail("cannot write " + opt.json_path);
  json.precision(6);
  json << "{\n"
       << "  \"bench\": \"serve\",\n"
       << "  \"scenario\": {\"sensors\": " << roster.size()
       << ", \"tracks\": " << opt.tracks << ", \"ticks\": " << opt.ticks
       << ", \"localized_frames\": " << scalar_locs
       << ", \"churn_period\": " << opt.churn
       << ", \"threads\": " << mt_pool.thread_count()
       << ", \"fast\": " << (opt.fast ? "true" : "false") << "},\n"
       << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    json << "    {\"name\": \"" << r.name << "\", \"batch\": " << r.batch
         << ", \"ns_per_localization\": " << r.ns_per_localization
         << ", \"localizations_per_sec\": " << r.localizations_per_sec
         << ", \"threads\": " << r.threads;
    if (!r.ref.empty()) json << ", \"throughput_ref\": \"" << r.ref << "\"";
    if (!r.extra.empty()) json << ", " << r.extra;
    json << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "wrote " << opt.json_path << "\n";
  return 0;
}
