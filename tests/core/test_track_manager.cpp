#include "core/track_manager.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "net/deployment.hpp"
#include "net/faults.hpp"
#include "net/sampling.hpp"

namespace fttt {
namespace {

const Aabb kField{{0.0, 0.0}, {40.0, 40.0}};

std::shared_ptr<FtttTracker> make_tracker() {
  auto map = std::make_shared<const FaceMap>(
      FaceMap::build(grid_deployment(kField, 9), 1.0, kField, 0.5));
  return std::make_shared<FtttTracker>(
      map, FtttTracker::Config{VectorMode::kBasic, 0.0});
}

GroupingSampling sample_at(const FtttTracker& tracker, Vec2 target,
                           std::uint64_t epoch = 0, double range = 100.0) {
  SamplingConfig cfg;
  cfg.model = PathLossModel{.ref_power_dbm = -40.0, .beta = 4.0, .sigma = 0.0, .d0 = 1.0};
  cfg.sensing_range = range;
  cfg.sample_period = 0.1;
  cfg.samples_per_group = 3;
  const NoFaults faults;
  return collect_group(tracker.map().nodes(), cfg, faults, epoch, 0.0,
                       [&](double) { return target; }, RngStream(77).substream(epoch));
}

GroupingSampling empty_group(std::size_t nodes) {
  GroupingSampling g(nodes, 3);
  return g;
}

TEST(TrackManager, ConstructorValidation) {
  EXPECT_THROW(TrackManager(nullptr, {}), std::invalid_argument);
  TrackManager::Config bad;
  bad.confirm_count = 0;
  EXPECT_THROW(TrackManager(make_tracker(), bad), std::invalid_argument);
}

TEST(TrackManager, ConfirmsTrackAfterConsistentFixes) {
  auto tracker = make_tracker();
  TrackManager mgr(tracker, {.confirm_count = 3});
  EXPECT_EQ(mgr.state(), TrackState::kAcquiring);
  for (std::uint64_t e = 0; e < 2; ++e) {
    const auto u = mgr.process(sample_at(*tracker, {20.0, 20.0}, e), 0.5 * e);
    EXPECT_EQ(u.state, TrackState::kAcquiring);
  }
  const auto u = mgr.process(sample_at(*tracker, {20.0, 20.0}, 2), 1.0);
  EXPECT_EQ(u.state, TrackState::kTracking);
  EXPECT_TRUE(u.estimate.has_value());
}

TEST(TrackManager, CoverageGateDeclaresLost) {
  auto tracker = make_tracker();
  TrackManager mgr(tracker, {.confirm_count = 1});
  mgr.process(sample_at(*tracker, {20.0, 20.0}, 0), 0.0);
  EXPECT_EQ(mgr.state(), TrackState::kTracking);
  const auto u = mgr.process(empty_group(9), 0.5);
  EXPECT_EQ(u.state, TrackState::kLost);
  EXPECT_FALSE(u.estimate.has_value());
  EXPECT_EQ(mgr.losses(), 1u);
}

TEST(TrackManager, ReacquiresAfterLoss) {
  auto tracker = make_tracker();
  TrackManager mgr(tracker, {.confirm_count = 2});
  mgr.process(sample_at(*tracker, {10.0, 10.0}, 0), 0.0);
  mgr.process(empty_group(9), 0.5);  // lost
  EXPECT_EQ(mgr.state(), TrackState::kLost);
  // Target reappears: acquiring, then tracking after confirm_count fixes.
  auto u = mgr.process(sample_at(*tracker, {30.0, 30.0}, 2), 1.0);
  EXPECT_EQ(u.state, TrackState::kAcquiring);
  u = mgr.process(sample_at(*tracker, {30.0, 30.0}, 3), 1.5);
  EXPECT_EQ(u.state, TrackState::kTracking);
  ASSERT_TRUE(u.estimate.has_value());
  EXPECT_LT(distance(u.estimate->position, {30.0, 30.0}), 6.0);
}

TEST(TrackManager, VelocityOnlyWhileTracking) {
  auto tracker = make_tracker();
  TrackManager mgr(tracker, {.confirm_count = 2});
  auto u = mgr.process(sample_at(*tracker, {10.0, 20.0}, 0), 0.0);
  EXPECT_FALSE(u.velocity.has_value());  // still acquiring
  u = mgr.process(sample_at(*tracker, {11.0, 20.0}, 1), 0.5);
  u = mgr.process(sample_at(*tracker, {12.0, 20.0}, 2), 1.0);
  u = mgr.process(sample_at(*tracker, {13.0, 20.0}, 3), 1.5);
  EXPECT_EQ(u.state, TrackState::kTracking);
  EXPECT_TRUE(u.velocity.has_value());
}

TEST(TrackManager, SimilarityCollapseDeclaresLost) {
  auto tracker = make_tracker();
  TrackManager::Config cfg;
  cfg.confirm_count = 1;
  cfg.similarity_window = 3;
  cfg.min_similarity = 1e9;  // impossible bar: every window collapses
  TrackManager mgr(tracker, cfg);
  TrackManager::Update u;
  for (std::uint64_t e = 0; e < 3; ++e)
    u = mgr.process(sample_at(*tracker, {20.0, 20.0}, e), 0.5 * e);
  EXPECT_EQ(u.state, TrackState::kLost);
  EXPECT_FALSE(u.estimate.has_value());
}

TEST(TrackManager, StateNames) {
  EXPECT_STREQ(track_state_name(TrackState::kAcquiring), "acquiring");
  EXPECT_STREQ(track_state_name(TrackState::kTracking), "tracking");
  EXPECT_STREQ(track_state_name(TrackState::kLost), "lost");
}

}  // namespace
}  // namespace fttt
