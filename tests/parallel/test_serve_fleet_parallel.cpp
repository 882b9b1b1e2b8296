// Race probe for the serve fleet's ingestion edge: producer threads
// hammer submit()/try_submit()/submit_wait() while one service thread
// ticks, churns the deployment, and finally closes. Under the tsan
// preset any unsynchronized state between the producer side and the
// service loop becomes a hard failure; in every build the producer-side
// accounting must reconcile *exactly* — enqueued frames either resolve
// or are still queued, shed plus resolved plus queued equals accepted,
// and no track is ever dropped.
#include "serve/fleet.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "net/deployment.hpp"
#include "serve/workload.hpp"

namespace fttt {
namespace {

const Aabb kField{{0.0, 0.0}, {60.0, 60.0}};

SyntheticWorkload::Config stress_workload(std::size_t tracks) {
  SyntheticWorkload::Config cfg;
  cfg.tracks = tracks;
  cfg.sampling.model =
      PathLossModel{.ref_power_dbm = -40.0, .beta = 4.0, .sigma = 0.5, .d0 = 1.0};
  cfg.sampling.sensing_range = 90.0;
  cfg.sampling.samples_per_group = 3;
  return cfg;
}

TEST(ServeFleetRace, ProducersAgainstServiceLoopReconcileExactly) {
  const Deployment roster = grid_deployment(kField, 9);
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kFramesPerProducer = 120;
  constexpr std::size_t kTracksPerProducer = 8;
  const SyntheticWorkload workload(
      roster, kField, stress_workload(kProducers * kTracksPerProducer), 17);

  TrackManagerFleet::Config cfg;
  cfg.shards = 4;
  cfg.queue_capacity = 32;  // small on purpose: force shedding under load
  TrackManagerFleet fleet(roster, 1.2, kField, 2.0, cfg);

  std::atomic<std::size_t> accepted{0};
  std::atomic<std::size_t> rejected{0};
  std::atomic<std::size_t> malformed{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      // Each producer owns a disjoint track range and mixes the two
      // non-blocking policies plus the odd frame that is not roster-wide,
      // counting every outcome.
      for (std::size_t i = 0; i < kFramesPerProducer; ++i) {
        const TrackId track = p * kTracksPerProducer + (i % kTracksPerProducer);
        const std::uint64_t epoch = i / kTracksPerProducer;
        ReportFrame frame = workload.frame(track, epoch);
        if (i % 10 == 5) {
          frame.group = GroupingSampling(roster.size() - 1, frame.group.instants());
          ASSERT_FALSE(i % 20 == 5 ? fleet.submit(std::move(frame))
                                   : fleet.try_submit(std::move(frame)));
          malformed.fetch_add(1);
        } else if (i % 3 == 0) {
          if (fleet.try_submit(std::move(frame)))
            accepted.fetch_add(1);
          else
            rejected.fetch_add(1);
        } else {
          ASSERT_TRUE(fleet.submit(std::move(frame)));  // shed-oldest admits
          accepted.fetch_add(1);
        }
      }
    });
  }

  // The service loop runs concurrently with the producers, churning the
  // deployment between ticks; resolved updates are counted per frame.
  std::size_t resolved = 0;
  std::size_t churned = 0;
  NodeId churn_node = 0;
  bool fail_next = true;
  std::uint64_t service_ticks = 0;
  constexpr std::size_t kTotal = kProducers * kFramesPerProducer;
  const auto churn_once = [&] {
    if (fail_next ? fleet.fail_node(churn_node) : fleet.revive_node(churn_node)) {
      if (!fail_next) churn_node = (churn_node + 1) % roster.size();
      fail_next = !fail_next;
      ++churned;
    }
  };
  while (accepted.load() + rejected.load() + malformed.load() < kTotal) {
    if (++service_ticks % 2 == 0) churn_once();
    resolved += fleet.tick().size();
    std::this_thread::yield();
  }
  for (auto& t : producers) t.join();
  // Producers can outpace the loop entirely on a loaded machine; the
  // fail/revive-under-held-frames part of the contract must still run.
  while (churned < 2) {
    churn_once();
    resolved += fleet.tick().size();
  }
  resolved += fleet.tick().size();  // final drain after the join
  fleet.flush_rebuilds();           // settle any in-flight rebuild

  const TrackManagerFleet::Stats stats = fleet.stats();
  EXPECT_EQ(accepted.load() + rejected.load() + malformed.load(),
            kProducers * kFramesPerProducer);
  EXPECT_EQ(stats.enqueued, accepted.load());
  EXPECT_EQ(stats.rejected, rejected.load());
  EXPECT_EQ(stats.malformed, malformed.load());
  EXPECT_GT(stats.malformed, 0u);
  // Conservation: every accepted frame was either shed or resolved.
  EXPECT_EQ(stats.enqueued, stats.shed + stats.frames);
  EXPECT_EQ(stats.frames, resolved);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_GT(churned, 0u);
  // Off-thread rebuilds coalesce events that land while one is in
  // flight: every event is counted, and at least one rebuild adopted.
  EXPECT_EQ(stats.churn_events, churned);
  EXPECT_LE(stats.rebuilds, churned);
  EXPECT_GE(stats.rebuilds, 1u);
  // Zero dropped tracks: every track that had any frame resolved holds a
  // slot forever after; shedding can delay a track's first resolution
  // but the slot count can never exceed the track universe.
  EXPECT_LE(stats.tracks, kProducers * kTracksPerProducer);
  EXPECT_GT(stats.tracks, 0u);
}

TEST(ServeFleetRace, HierarchicalAsyncChurnUnderLoad) {
  // The double-buffered adoption race probe: off-thread rebuild tasks
  // (map build + tier patch + index patch) share the global pool with
  // tick()'s resolution parallel_for while producers keep the queue hot
  // and the service thread churns every other tick with no flushes.
  // Under tsan any read of the serving division by a rebuild task, or
  // publication without the rebuild mutex, is a hard failure; in every
  // build the accounting must still reconcile exactly.
  const Deployment roster = grid_deployment(kField, 9);
  constexpr std::size_t kProducers = 3;
  constexpr std::size_t kFramesPerProducer = 90;
  constexpr std::size_t kTracksPerProducer = 6;
  const SyntheticWorkload workload(
      roster, kField, stress_workload(kProducers * kTracksPerProducer), 31);

  TrackManagerFleet::Config cfg;
  cfg.shards = 4;
  cfg.queue_capacity = 64;
  cfg.track.hierarchical = true;  // exercise the tier + index patch path
  TrackManagerFleet fleet(roster, 1.2, kField, 2.0, cfg);
  ASSERT_NE(fleet.hier(), nullptr);

  std::atomic<std::size_t> accepted{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kFramesPerProducer; ++i) {
        const TrackId track = p * kTracksPerProducer + (i % kTracksPerProducer);
        ASSERT_TRUE(fleet.submit(workload.frame(track, i / kTracksPerProducer)));
        accepted.fetch_add(1);
      }
    });
  }

  std::size_t resolved = 0;
  std::size_t churned = 0;
  NodeId churn_node = 0;
  bool fail_next = true;
  std::uint64_t service_ticks = 0;
  while (accepted.load() < kProducers * kFramesPerProducer) {
    if (++service_ticks % 2 == 0) {
      if (fail_next ? fleet.fail_node(churn_node)
                    : fleet.revive_node(churn_node)) {
        if (!fail_next) churn_node = (churn_node + 1) % roster.size();
        fail_next = !fail_next;
        ++churned;
      }
    }
    resolved += fleet.tick().size();
    std::this_thread::yield();
  }
  for (auto& t : producers) t.join();
  resolved += fleet.tick().size();
  fleet.flush_rebuilds();

  const TrackManagerFleet::Stats stats = fleet.stats();
  EXPECT_EQ(stats.enqueued, accepted.load());
  EXPECT_EQ(stats.enqueued, stats.shed + stats.frames);
  EXPECT_EQ(stats.frames, resolved);
  EXPECT_EQ(stats.churn_events, churned);
  EXPECT_LE(stats.rebuilds, churned);
  if (churned > 0) EXPECT_GE(stats.rebuilds, 1u);
  EXPECT_LE(stats.tracks, kProducers * kTracksPerProducer);
}

TEST(ServeFleetRace, SubmitWaitBackpressureDrainsWithoutLoss) {
  const Deployment roster = grid_deployment(kField, 9);
  constexpr std::size_t kProducers = 3;
  constexpr std::size_t kFramesPerProducer = 40;
  const SyntheticWorkload workload(roster, kField, stress_workload(kProducers), 23);

  TrackManagerFleet::Config cfg;
  cfg.shards = 2;
  cfg.queue_capacity = 4;  // producers must block on the full queue
  TrackManagerFleet fleet(roster, 1.2, kField, 2.0, cfg);

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kFramesPerProducer; ++i)
        ASSERT_TRUE(fleet.submit_wait(
            workload.frame(p, static_cast<std::uint64_t>(i))));
    });
  }

  std::size_t resolved = 0;
  while (resolved < kProducers * kFramesPerProducer) {
    resolved += fleet.tick().size();
    std::this_thread::yield();
  }
  for (auto& t : producers) t.join();

  const TrackManagerFleet::Stats stats = fleet.stats();
  // Backpressure never sheds and never rejects: every frame resolves.
  EXPECT_EQ(stats.enqueued, kProducers * kFramesPerProducer);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.frames, kProducers * kFramesPerProducer);
  EXPECT_EQ(stats.tracks, kProducers);

  fleet.close();
  EXPECT_FALSE(fleet.submit_wait(workload.frame(0, 999)));
}

TEST(ServeFleetRace, CloseWakesBlockedProducers) {
  const Deployment roster = grid_deployment(kField, 9);
  const SyntheticWorkload workload(roster, kField, stress_workload(2), 29);
  TrackManagerFleet::Config cfg;
  cfg.queue_capacity = 1;
  TrackManagerFleet fleet(roster, 1.2, kField, 2.0, cfg);
  ASSERT_TRUE(fleet.submit(workload.frame(0, 0)));

  std::thread blocked([&] {
    EXPECT_FALSE(fleet.submit_wait(workload.frame(1, 0)));  // queue full
  });
  fleet.close();
  blocked.join();
  EXPECT_EQ(fleet.tick().size(), 1u);  // the queued frame still resolves
}

}  // namespace
}  // namespace fttt
