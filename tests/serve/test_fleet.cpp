// TrackManagerFleet contract suite: shard-count invariance against the
// SerialReplay executable spec, deployment churn with tracks held,
// ingestion-policy accounting, and the coverage gate. The determinism
// cases are the serve layer's core claim — batch composition and shard
// fan-out can never change an estimate.
#include "serve/fleet.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <future>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/facemap_cache.hpp"
#include "net/deployment.hpp"
#include "serve/workload.hpp"

namespace fttt {
namespace {

const Aabb kField{{0.0, 0.0}, {60.0, 60.0}};
constexpr double kC = 1.2;
constexpr double kCell = 2.0;

Deployment roster9() { return grid_deployment(kField, 9); }

SyntheticWorkload::Config workload_config(std::size_t tracks) {
  SyntheticWorkload::Config cfg;
  cfg.tracks = tracks;
  cfg.sampling.model =
      PathLossModel{.ref_power_dbm = -40.0, .beta = 4.0, .sigma = 0.5, .d0 = 1.0};
  cfg.sampling.sensing_range = 90.0;  // whole field: every node reports
  cfg.sampling.samples_per_group = 3;
  return cfg;
}

/// Tick-major stream: one frame per track per tick, track order.
std::vector<std::vector<ReportFrame>> make_stream(const SyntheticWorkload& workload,
                                                  std::size_t tracks,
                                                  std::size_t ticks) {
  std::vector<std::vector<ReportFrame>> stream(ticks);
  for (std::uint64_t tick = 0; tick < ticks; ++tick)
    for (TrackId t = 0; t < tracks; ++t)
      stream[tick].push_back(workload.frame(t, tick));
  return stream;
}

void expect_identical(const TrackUpdate& got, const TrackUpdate& want,
                      std::size_t i) {
  EXPECT_EQ(got.track, want.track) << "update " << i;
  EXPECT_EQ(got.epoch, want.epoch) << "update " << i;
  EXPECT_EQ(got.warm, want.warm) << "update " << i;
  ASSERT_EQ(got.estimate.has_value(), want.estimate.has_value()) << "update " << i;
  if (!want.estimate) return;
  EXPECT_EQ(got.estimate->position.x, want.estimate->position.x) << "update " << i;
  EXPECT_EQ(got.estimate->position.y, want.estimate->position.y) << "update " << i;
  EXPECT_EQ(got.estimate->face, want.estimate->face) << "update " << i;
  EXPECT_EQ(got.estimate->similarity, want.estimate->similarity) << "update " << i;
}

TEST(Fleet, ConstructorValidation) {
  TrackManagerFleet::Config cfg;
  cfg.shards = 0;
  EXPECT_THROW(TrackManagerFleet(roster9(), kC, kField, kCell, cfg),
               std::invalid_argument);
  cfg.shards = 1;
  cfg.queue_capacity = 0;
  EXPECT_THROW(TrackManagerFleet(roster9(), kC, kField, kCell, cfg),
               std::invalid_argument);
  cfg.queue_capacity = 16;
  Deployment lone;
  lone.push_back(SensorNode{0, {1.0, 1.0}});
  EXPECT_THROW(TrackManagerFleet(lone, kC, kField, kCell, cfg),
               std::invalid_argument);
}

TEST(Workload, FramesArePureFunctionsOfSeedTrackEpoch) {
  const Deployment roster = roster9();
  const SyntheticWorkload a(roster, kField, workload_config(8), 11);
  const SyntheticWorkload b(roster, kField, workload_config(8), 11);

  // Query b in reverse order, a forward: results must not depend on
  // call history, only on (seed, track, epoch).
  std::vector<ReportFrame> from_b;
  for (int t = 7; t >= 0; --t)
    for (int e = 3; e >= 0; --e)
      from_b.push_back(b.frame(static_cast<TrackId>(t),
                               static_cast<std::uint64_t>(e)));
  for (std::size_t t = 0; t < 8; ++t)
    for (std::uint64_t e = 0; e < 4; ++e) {
      const ReportFrame& want = from_b[(7 - t) * 4 + (3 - e)];
      const ReportFrame got = a.frame(static_cast<TrackId>(t), e);
      ASSERT_EQ(got.group.node_count(), want.group.node_count());
      for (std::size_t n = 0; n < got.group.node_count(); ++n)
        ASSERT_EQ(got.group.has(n), want.group.has(n));
      const auto ga = got.group.raw();
      const auto gb = want.group.raw();
      ASSERT_EQ(ga.size(), gb.size());
      for (std::size_t s = 0; s < ga.size(); ++s) ASSERT_EQ(ga[s], gb[s]);
      EXPECT_EQ(a.target_at(got.track, got.epoch).x,
                b.target_at(want.track, want.epoch).x);
    }
}

TEST(Workload, ConfigValidation) {
  EXPECT_THROW(SyntheticWorkload(roster9(), kField, workload_config(0), 1),
               std::invalid_argument);
  auto bad = workload_config(4);
  bad.drop_probability = 1.0;  // certain dropout can never localize
  EXPECT_THROW(SyntheticWorkload(roster9(), kField, bad, 1),
               std::invalid_argument);
}

TEST(Fleet, ShardCountInvarianceAgainstSerialReplay) {
  const Deployment roster = roster9();
  constexpr std::size_t kTracks = 12;
  constexpr std::size_t kTicks = 6;
  const SyntheticWorkload workload(roster, kField, workload_config(kTracks), 5);
  const auto stream = make_stream(workload, kTracks, kTicks);

  TrackManagerFleet::Config cfg;
  FaceMapCache cache;

  // The spec: one shard, one frame at a time, same initial division.
  const FaceMapCache::Entry entry =
      cache.get_or_build(roster, kC, kField, kCell, ThreadPool::global());
  std::vector<NodeId> members(roster.size());
  for (std::size_t i = 0; i < roster.size(); ++i)
    members[i] = static_cast<NodeId>(i);
  SerialReplay replay(cfg.track, entry.map, entry.table, members);
  std::vector<TrackUpdate> spec;
  for (const auto& tick_frames : stream)
    for (const ReportFrame& frame : tick_frames)
      spec.push_back(replay.process(frame));
  ASSERT_EQ(replay.track_count(), kTracks);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    cfg.shards = shards;
    TrackManagerFleet fleet(roster, kC, kField, kCell, cfg, ThreadPool::global(),
                            &cache);
    std::vector<TrackUpdate> got;
    for (const auto& tick_frames : stream) {
      for (const ReportFrame& frame : tick_frames)
        ASSERT_TRUE(fleet.submit(frame));
      for (TrackUpdate& u : fleet.tick()) got.push_back(std::move(u));
    }
    ASSERT_EQ(got.size(), spec.size()) << shards << " shards";
    for (std::size_t i = 0; i < spec.size(); ++i)
      expect_identical(got[i], spec[i], i);
    const auto stats = fleet.stats();
    EXPECT_EQ(stats.tracks, kTracks) << shards << " shards";
    EXPECT_EQ(stats.frames, kTracks * kTicks);
    EXPECT_EQ(stats.enqueued, kTracks * kTicks);
    EXPECT_EQ(stats.shed, 0u);
  }
}

TEST(Fleet, SeveralFramesOfATrackInOneTickMatchSerialReplay) {
  // A backlog drained in one tick carries several epochs of each track
  // (and a gated frame mid-stream): each frame still localizes from its
  // track's previous result, exactly as the one-at-a-time spec does.
  const Deployment roster = roster9();
  constexpr std::size_t kTracks = 5;
  constexpr std::size_t kTicks = 8;
  const SyntheticWorkload workload(roster, kField, workload_config(kTracks), 17);
  std::vector<ReportFrame> backlog;
  for (const auto& tick_frames : make_stream(workload, kTracks, kTicks))
    for (const ReportFrame& frame : tick_frames) backlog.push_back(frame);
  ReportFrame& thin = backlog[2 * kTracks + 1];
  thin.group.resize(roster.size(), thin.group.instants());
  thin.group.set_column(3);  // one reporter: gated, the track restarts cold

  TrackManagerFleet::Config cfg;
  FaceMapCache cache;
  const FaceMapCache::Entry entry =
      cache.get_or_build(roster, kC, kField, kCell, ThreadPool::global());
  std::vector<NodeId> members(roster.size());
  for (std::size_t i = 0; i < roster.size(); ++i) members[i] = static_cast<NodeId>(i);
  SerialReplay replay(cfg.track, entry.map, entry.table, members);
  std::vector<TrackUpdate> spec;
  for (const ReportFrame& frame : backlog) spec.push_back(replay.process(frame));

  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    cfg.shards = shards;
    TrackManagerFleet fleet(roster, kC, kField, kCell, cfg, ThreadPool::global(),
                            &cache);
    for (const ReportFrame& frame : backlog) ASSERT_TRUE(fleet.submit(frame));
    const std::vector<TrackUpdate> got = fleet.tick();
    ASSERT_EQ(got.size(), spec.size()) << shards << " shards";
    for (std::size_t i = 0; i < spec.size(); ++i) expect_identical(got[i], spec[i], i);
  }
}

TEST(Fleet, ChurnMatchesReplayWithTracksHeld) {
  const Deployment roster = roster9();
  constexpr std::size_t kTracks = 8;
  constexpr std::size_t kTicks = 6;
  const SyntheticWorkload workload(roster, kField, workload_config(kTracks), 9);
  const auto stream = make_stream(workload, kTracks, kTicks);

  TrackManagerFleet::Config cfg;
  cfg.shards = 2;
  TrackManagerFleet fleet(roster, kC, kField, kCell, cfg);
  SerialReplay replay(cfg.track, fleet.map(), fleet.table(), fleet.members());

  for (std::uint64_t tick = 0; tick < kTicks; ++tick) {
    // Fail node 0 before tick 2, revive it before tick 4; the rebuild
    // runs off-thread, so flush before mirroring the division into the
    // replay at the same stream position.
    if (tick == 2) {
      ASSERT_TRUE(fleet.fail_node(0));
      fleet.flush_rebuilds();
      replay.adopt_division(fleet.map(), fleet.table(), fleet.members());
    }
    if (tick == 4) {
      ASSERT_TRUE(fleet.revive_node(0));
      fleet.flush_rebuilds();
      replay.adopt_division(fleet.map(), fleet.table(), fleet.members());
    }
    std::vector<TrackUpdate> spec;
    for (const ReportFrame& frame : stream[tick]) {
      spec.push_back(replay.process(frame));
      ASSERT_TRUE(fleet.submit(frame));
    }
    const std::vector<TrackUpdate> got = fleet.tick();
    ASSERT_EQ(got.size(), spec.size()) << "tick " << tick;
    for (std::size_t i = 0; i < spec.size(); ++i)
      expect_identical(got[i], spec[i], i);
  }

  const auto stats = fleet.stats();
  EXPECT_EQ(stats.tracks, kTracks);  // zero dropped tracks through churn
  EXPECT_EQ(stats.rebuilds, 2u);
  EXPECT_EQ(stats.churn_events, 2u);
  EXPECT_EQ(fleet.alive_count(), roster.size());
}

TEST(Fleet, ChurnRefusalRules) {
  Deployment three;
  three.push_back(SensorNode{0, {5.0, 5.0}});
  three.push_back(SensorNode{1, {55.0, 5.0}});
  three.push_back(SensorNode{2, {30.0, 55.0}});
  TrackManagerFleet fleet(three, kC, kField, kCell, {});

  EXPECT_FALSE(fleet.fail_node(99));   // unknown id
  EXPECT_FALSE(fleet.revive_node(0));  // already alive
  EXPECT_TRUE(fleet.fail_node(0));
  EXPECT_FALSE(fleet.fail_node(0));    // already failed
  EXPECT_FALSE(fleet.fail_node(1));    // would leave < 2 alive
  EXPECT_EQ(fleet.alive_count(), 2u);  // refusal/alive answers are instant
  EXPECT_TRUE(fleet.revive_node(0));
  EXPECT_EQ(fleet.alive_count(), 3u);
  EXPECT_EQ(fleet.stats().churn_events, 2u);
  fleet.flush_rebuilds();  // every accepted event got its own rebuild
  EXPECT_EQ(fleet.stats().rebuilds, 2u);
}

TEST(Fleet, ShedAccountingReconciles) {
  const Deployment roster = roster9();
  constexpr std::size_t kTracks = 10;
  const SyntheticWorkload workload(roster, kField, workload_config(kTracks), 3);

  TrackManagerFleet::Config cfg;
  cfg.queue_capacity = 4;
  TrackManagerFleet fleet(roster, kC, kField, kCell, cfg);
  for (TrackId t = 0; t < kTracks; ++t)
    ASSERT_TRUE(fleet.submit(workload.frame(t, 0)));  // shed-oldest admits all

  auto stats = fleet.stats();
  EXPECT_EQ(stats.enqueued, kTracks);
  EXPECT_EQ(stats.shed, kTracks - cfg.queue_capacity);
  EXPECT_EQ(stats.queue_depth, cfg.queue_capacity);

  const std::vector<TrackUpdate> updates = fleet.tick();
  ASSERT_EQ(updates.size(), cfg.queue_capacity);
  for (std::size_t i = 0; i < updates.size(); ++i)
    EXPECT_EQ(updates[i].track, kTracks - cfg.queue_capacity + i);  // newest won

  stats = fleet.stats();
  EXPECT_EQ(stats.enqueued - stats.shed, stats.frames);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(Fleet, TrySubmitRejectsWhenFull) {
  const Deployment roster = roster9();
  const SyntheticWorkload workload(roster, kField, workload_config(4), 3);
  TrackManagerFleet::Config cfg;
  cfg.queue_capacity = 2;
  TrackManagerFleet fleet(roster, kC, kField, kCell, cfg);
  EXPECT_TRUE(fleet.try_submit(workload.frame(0, 0)));
  EXPECT_TRUE(fleet.try_submit(workload.frame(1, 0)));
  EXPECT_FALSE(fleet.try_submit(workload.frame(2, 0)));  // full: kept out
  const auto stats = fleet.stats();
  EXPECT_EQ(stats.enqueued, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.shed, 0u);
}

TEST(Fleet, CloseRejectsSubmitsButResolvesQueuedFrames) {
  const Deployment roster = roster9();
  const SyntheticWorkload workload(roster, kField, workload_config(4), 3);
  TrackManagerFleet fleet(roster, kC, kField, kCell, {});
  ASSERT_TRUE(fleet.submit(workload.frame(0, 0)));
  ASSERT_TRUE(fleet.submit(workload.frame(1, 0)));
  fleet.close();
  EXPECT_FALSE(fleet.submit(workload.frame(2, 0)));
  EXPECT_FALSE(fleet.try_submit(workload.frame(2, 0)));
  EXPECT_FALSE(fleet.submit_wait(workload.frame(2, 0)));
  EXPECT_EQ(fleet.tick().size(), 2u);  // accepted work outlives close()
}

TEST(Fleet, CoverageGateEmitsNoEstimate) {
  const Deployment roster = roster9();
  TrackManagerFleet fleet(roster, kC, kField, kCell, {});

  ReportFrame thin;
  thin.track = 42;
  thin.epoch = 0;
  thin.group.resize(roster.size(), 3);
  thin.group.set_column(1);  // one reporter < min_reporting
  ASSERT_TRUE(fleet.submit(thin));

  const std::vector<TrackUpdate> updates = fleet.tick();
  ASSERT_EQ(updates.size(), 1u);
  EXPECT_EQ(updates[0].track, 42u);
  EXPECT_FALSE(updates[0].estimate.has_value());
  EXPECT_FALSE(updates[0].warm);
  const auto stats = fleet.stats();
  EXPECT_EQ(stats.frames, 1u);
  EXPECT_EQ(stats.localizations, 0u);
  EXPECT_EQ(stats.tracks, 1u);  // the gated track still holds a slot
}

TEST(Fleet, HierarchicalFleetMatchesFlatReplayUnderChurn) {
  // The strongest cross-mode claim: a hierarchical fleet's updates are
  // bit-identical to a *flat* serial replay of the same stream under the
  // same division schedule — the descent can never change an estimate,
  // even across churn-induced tier rebuilds.
  const Deployment roster = roster9();
  constexpr std::size_t kTracks = 8;
  constexpr std::size_t kTicks = 6;
  const SyntheticWorkload workload(roster, kField, workload_config(kTracks), 21);
  const auto stream = make_stream(workload, kTracks, kTicks);

  TrackManagerFleet::Config cfg;
  cfg.shards = 2;
  cfg.track.hierarchical = true;
  TrackManagerFleet fleet(roster, kC, kField, kCell, cfg);
  ASSERT_NE(fleet.hier(), nullptr);
  ASSERT_NE(fleet.index(), nullptr);

  TrackShard::Config flat = cfg.track;
  flat.hierarchical = false;
  SerialReplay replay(flat, fleet.map(), fleet.table(), fleet.members());

  for (std::uint64_t tick = 0; tick < kTicks; ++tick) {
    if (tick == 2) {
      ASSERT_TRUE(fleet.fail_node(0));
      fleet.flush_rebuilds();
      replay.adopt_division(fleet.map(), fleet.table(), fleet.members());
    }
    if (tick == 4) {
      ASSERT_TRUE(fleet.revive_node(0));
      fleet.flush_rebuilds();
      replay.adopt_division(fleet.map(), fleet.table(), fleet.members());
    }
    std::vector<TrackUpdate> spec;
    for (const ReportFrame& frame : stream[tick]) {
      spec.push_back(replay.process(frame));
      ASSERT_TRUE(fleet.submit(frame));
    }
    const std::vector<TrackUpdate> got = fleet.tick();
    ASSERT_EQ(got.size(), spec.size()) << "tick " << tick;
    for (std::size_t i = 0; i < spec.size(); ++i)
      expect_identical(got[i], spec[i], i);
  }
  EXPECT_EQ(fleet.stats().rebuilds, 2u);
}

TEST(Fleet, ReplaySharesTheFleetsTier) {
  const Deployment roster = roster9();
  TrackManagerFleet::Config cfg;
  cfg.track.hierarchical = true;
  TrackManagerFleet fleet(roster, kC, kField, kCell, cfg);
  // Handing the fleet's tier to a hierarchical replay skips a rebuild;
  // results stay identical (tier determinism).
  SerialReplay own(cfg.track, fleet.map(), fleet.table(), fleet.members());
  SerialReplay shared(cfg.track, fleet.map(), fleet.table(), fleet.members());
  shared.adopt_division(fleet.map(), fleet.table(), fleet.members(),
                        fleet.hier(), fleet.index());
  const SyntheticWorkload workload(roster, kField, workload_config(4), 33);
  for (std::uint64_t e = 0; e < 4; ++e)
    for (TrackId t = 0; t < 4; ++t) {
      const ReportFrame frame = workload.frame(t, e);
      expect_identical(shared.process(frame), own.process(frame), t);
    }
}

TEST(Fleet, AsyncRebuildServesOldDivisionUntilReady) {
  // The double-buffer claim: while a rebuild is in flight, ticks keep
  // resolving against the division served before the churn event — no
  // stall, no half-adopted state. A one-worker pool whose worker is
  // pinned by a blocker task keeps the rebuild provably un-started;
  // ticks still run (parallel_for callers claim chunks themselves).
  const Deployment roster = roster9();
  constexpr std::size_t kTracks = 6;
  const SyntheticWorkload workload(roster, kField, workload_config(kTracks), 17);

  ThreadPool pool(1);
  TrackManagerFleet::Config cfg;
  TrackManagerFleet fleet(roster, kC, kField, kCell, cfg, pool);
  SerialReplay replay(cfg.track, fleet.map(), fleet.table(), fleet.members());
  const FaceMap* old_division = fleet.map().get();

  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  ASSERT_TRUE(pool.submit([gate] { gate.wait(); }));

  ASSERT_TRUE(fleet.fail_node(0));  // rebuild queued behind the blocker
  std::vector<TrackUpdate> spec;
  for (TrackId t = 0; t < kTracks; ++t) {
    const ReportFrame frame = workload.frame(t, 0);
    spec.push_back(replay.process(frame));  // replay still on old division
    ASSERT_TRUE(fleet.submit(frame));
  }
  const std::vector<TrackUpdate> got = fleet.tick();
  EXPECT_EQ(fleet.map().get(), old_division);  // still serving the old one
  ASSERT_EQ(got.size(), spec.size());
  for (std::size_t i = 0; i < spec.size(); ++i)
    expect_identical(got[i], spec[i], i);

  release.set_value();
  fleet.flush_rebuilds();
  EXPECT_NE(fleet.map().get(), old_division);
  EXPECT_EQ(fleet.stats().rebuilds, 1u);

  // And the adopted division matches a replay that adopts it too.
  replay.adopt_division(fleet.map(), fleet.table(), fleet.members());
  spec.clear();
  std::vector<TrackUpdate> got2;
  for (TrackId t = 0; t < kTracks; ++t) {
    const ReportFrame frame = workload.frame(t, 1);
    spec.push_back(replay.process(frame));
    ASSERT_TRUE(fleet.submit(frame));
  }
  for (TrackUpdate& u : fleet.tick()) got2.push_back(std::move(u));
  ASSERT_EQ(got2.size(), spec.size());
  for (std::size_t i = 0; i < spec.size(); ++i)
    expect_identical(got2[i], spec[i], i);
  EXPECT_EQ(fleet.stats().tracks, kTracks);  // zero dropped tracks
}

TEST(Fleet, FlushRebuildsIsTheSynchronousBarrier) {
  const Deployment roster = roster9();
  TrackManagerFleet fleet(roster, kC, kField, kCell, {});
  const FaceMap* before = fleet.map().get();
  ASSERT_TRUE(fleet.fail_node(0));
  fleet.flush_rebuilds();
  const FaceMap* after = fleet.map().get();
  EXPECT_NE(after, before);  // adopted by the time the barrier returns
  EXPECT_EQ(fleet.members().size(), roster.size() - 1);
  EXPECT_EQ(fleet.stats().rebuilds, 1u);
  EXPECT_EQ(fleet.stats().churn_events, 1u);
  fleet.flush_rebuilds();  // nothing pending: a no-op
  EXPECT_EQ(fleet.stats().rebuilds, 1u);
  EXPECT_EQ(fleet.map().get(), after);
}

TEST(Fleet, RefusesFramesThatAreNotRosterWide) {
  // After fail_node(0) the division covers 8 nodes, so a frame one node
  // short of the roster has exactly the division's width — it must not
  // pass for an already-projected frame, nor be read past its end.
  const Deployment roster = roster9();
  const SyntheticWorkload workload(roster, kField, workload_config(1), 5);
  TrackManagerFleet fleet(roster, kC, kField, kCell, {});
  ASSERT_TRUE(fleet.fail_node(0));
  fleet.flush_rebuilds();

  const ReportFrame full = workload.frame(0, 0);
  ReportFrame short_frame;
  short_frame.track = 7;
  short_frame.group.resize(roster.size() - 1, full.group.instants());
  for (std::size_t node = 1; node < roster.size(); ++node)
    if (full.group.has(node)) short_frame.group.set_column(node - 1, full.group.column(node));

  EXPECT_FALSE(fleet.submit(short_frame));
  EXPECT_FALSE(fleet.try_submit(short_frame));
  EXPECT_FALSE(fleet.submit_wait(short_frame));

  // Hostile roster-wide frames: no instants at all, and a NaN (or an
  // infinity) in a reporting column.
  ReportFrame no_instants;
  no_instants.track = 8;
  no_instants.group.resize(roster.size(), 0);
  ReportFrame nan_frame = full;
  nan_frame.track = 9;
  NodeId reporting = 0;
  while (!nan_frame.group.has(reporting)) ++reporting;
  nan_frame.group.set_column(reporting)[0] = std::numeric_limits<double>::quiet_NaN();
  ReportFrame inf_frame = full;
  inf_frame.track = 10;
  inf_frame.group.set_column(reporting)[1] = std::numeric_limits<double>::infinity();
  for (const ReportFrame* hostile : {&no_instants, &nan_frame, &inf_frame}) {
    EXPECT_FALSE(fleet.submit(*hostile));
    EXPECT_FALSE(fleet.try_submit(*hostile));
    EXPECT_FALSE(fleet.submit_wait(*hostile));
  }
  auto stats = fleet.stats();
  EXPECT_EQ(stats.malformed, 12u);
  EXPECT_EQ(stats.enqueued, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_TRUE(fleet.tick().empty());  // never resolved

  ASSERT_TRUE(fleet.submit(full));  // roster-wide frames still flow
  const std::vector<TrackUpdate> updates = fleet.tick();
  ASSERT_EQ(updates.size(), 1u);
  EXPECT_EQ(updates[0].track, full.track);
  stats = fleet.stats();
  EXPECT_EQ(stats.enqueued + stats.malformed, 13u);
  EXPECT_EQ(stats.frames, 1u);
  EXPECT_EQ(stats.tracks, 1u);  // the refused track never got a slot
}

TEST(Fleet, FreeRunningAsyncMatchesMirroredReplay) {
  // No flushes: churn events land between ticks and the fleet adopts
  // whenever a rebuild happens to be ready at a tick boundary. The
  // replay mirrors adoption after the fact — a rebuilds increase during
  // tick() means the division swapped *before* that tick's frames
  // resolved, so the replay adopts and then processes the saved frames.
  const Deployment roster = roster9();
  constexpr std::size_t kTracks = 6;
  constexpr std::size_t kTicks = 10;
  const SyntheticWorkload workload(roster, kField, workload_config(kTracks), 29);
  const auto stream = make_stream(workload, kTracks, kTicks);

  TrackManagerFleet::Config cfg;
  cfg.shards = 2;
  cfg.track.hierarchical = true;
  TrackManagerFleet fleet(roster, kC, kField, kCell, cfg);
  TrackShard::Config flat = cfg.track;
  flat.hierarchical = false;
  SerialReplay replay(flat, fleet.map(), fleet.table(), fleet.members());

  std::uint64_t churned = 0;
  std::uint64_t adopted = 0;
  NodeId churn_node = 0;
  bool fail_next = true;
  for (std::uint64_t tick = 0; tick < kTicks; ++tick) {
    if (tick % 2 == 1) {
      const bool ok = fail_next ? fleet.fail_node(churn_node)
                                : fleet.revive_node(churn_node);
      ASSERT_TRUE(ok);
      if (!fail_next) churn_node = static_cast<NodeId>((churn_node + 1) % 9);
      fail_next = !fail_next;
      ++churned;
    }
    for (const ReportFrame& frame : stream[tick])
      ASSERT_TRUE(fleet.submit(frame));
    const std::vector<TrackUpdate> got = fleet.tick();

    if (fleet.stats().rebuilds > adopted) {
      adopted = fleet.stats().rebuilds;
      replay.adopt_division(fleet.map(), fleet.table(), fleet.members());
    }
    std::vector<TrackUpdate> spec;
    for (const ReportFrame& frame : stream[tick])
      spec.push_back(replay.process(frame));
    ASSERT_EQ(got.size(), spec.size()) << "tick " << tick;
    for (std::size_t i = 0; i < spec.size(); ++i)
      expect_identical(got[i], spec[i], i);
  }
  fleet.flush_rebuilds();
  const auto stats = fleet.stats();
  EXPECT_EQ(stats.churn_events, churned);
  EXPECT_GE(stats.rebuilds, 1u);
  EXPECT_LE(stats.rebuilds, churned);  // coalescing never over-counts
  EXPECT_EQ(stats.tracks, kTracks);    // zero dropped tracks throughout
}

TEST(Fleet, SharedCacheServesOneBuildToSiblingFleets) {
  const Deployment roster = roster9();
  FaceMapCache cache;
  TrackManagerFleet a(roster, kC, kField, kCell, {}, ThreadPool::global(), &cache);
  TrackManagerFleet b(roster, kC, kField, kCell, {}, ThreadPool::global(), &cache);
  EXPECT_EQ(a.map().get(), b.map().get());
  EXPECT_EQ(a.table().get(), b.table().get());
  EXPECT_EQ(cache.stats().misses, 1u);
}

}  // namespace
}  // namespace fttt
