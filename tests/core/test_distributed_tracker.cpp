#include "core/distributed_tracker.hpp"

#include <gtest/gtest.h>

#include "net/deployment.hpp"
#include "net/faults.hpp"
#include "net/sampling.hpp"
#include "rf/uncertainty.hpp"

namespace fttt {
namespace {

const Aabb kField{{0.0, 0.0}, {100.0, 100.0}};

Deployment field_nodes(std::size_t n = 24) {
  return grid_deployment(kField, n);
}

GroupingSampling sample_at(const Deployment& nodes, Vec2 target,
                           std::uint64_t epoch = 0) {
  SamplingConfig cfg;
  cfg.model = PathLossModel{.ref_power_dbm = -40.0, .beta = 4.0, .sigma = 0.0, .d0 = 1.0};
  cfg.sensing_range = 60.0;
  cfg.sample_period = 0.1;
  cfg.samples_per_group = 3;
  const NoFaults faults;
  return collect_group(nodes, cfg, faults, epoch, 0.0,
                       [&](double) { return target; }, RngStream(3).substream(epoch));
}

DistributedTracker make_tracker(const Deployment& nodes, std::size_t clusters = 4) {
  DistributedTracker::Config cfg;
  cfg.clusters = clusters;
  cfg.eps = 0.0;
  cfg.grid_cell = 1.0;
  return DistributedTracker(nodes, 1.0, kField, cfg);
}

TEST(DistributedTracker, TooFewNodesThrows) {
  EXPECT_THROW(make_tracker({{0, {1.0, 1.0}}}), std::invalid_argument);
}

TEST(DistributedTracker, BuildsRequestedClusters) {
  const Deployment nodes = field_nodes();
  const DistributedTracker dt = make_tracker(nodes, 4);
  EXPECT_EQ(dt.cluster_count(), 4u);
  EXPECT_GT(dt.total_faces(), 0u);
}

TEST(DistributedTracker, PerHeadDimensionFarBelowGlobal) {
  const Deployment nodes = field_nodes(24);
  const DistributedTracker dt = make_tracker(nodes, 4);
  // Global dimension would be C(24,2) = 276; per-head should be much
  // smaller (clusters of ~6 nodes -> 15).
  EXPECT_LT(dt.max_dimension(), 276u / 3);
}

TEST(DistributedTracker, LocalizesInsideClusterResolution) {
  // Per-head resolution is bounded by the member count: a 4-node head
  // carves its territory into a handful of large faces, so the honest
  // accuracy contract is "within the face scale of the active cluster",
  // i.e. clearly better than guessing the cluster centroid, with the
  // exact-face match confirmed via similarity.
  const Deployment nodes = field_nodes();
  DistributedTracker dt = make_tracker(nodes, 4);
  // Targets deliberately off the deployment's symmetry axes: a point on
  // a bisector matches a degenerate line-shaped face whose centroid can
  // sit far along the line.
  for (Vec2 target : {Vec2{27.0, 22.0}, Vec2{73.0, 26.0}, Vec2{24.0, 71.0}}) {
    const TrackEstimate e = dt.localize(sample_at(nodes, target));
    EXPECT_LT(distance(e.position, target), 20.0) << target;
    EXPECT_GE(e.similarity, 1.0) << target;  // noiseless: (near-)exact match
  }
}

TEST(DistributedTracker, MoreMembersPerHeadSharpenTheFix) {
  // The documented trade: fewer clusters (more members each) -> finer
  // faces -> smaller error at the same target.
  const Deployment nodes = field_nodes();
  DistributedTracker coarse = make_tracker(nodes, 6);
  DistributedTracker fine = make_tracker(nodes, 2);
  double coarse_err = 0.0;
  double fine_err = 0.0;
  std::uint64_t epoch = 0;
  for (Vec2 target : {Vec2{27.0, 22.0}, Vec2{73.0, 26.0}, Vec2{24.0, 71.0},
                      Vec2{61.0, 58.0}}) {
    const auto g = sample_at(nodes, target, epoch++);
    coarse_err += distance(coarse.localize(g).position, target);
    fine_err += distance(fine.localize(g).position, target);
  }
  EXPECT_LT(fine_err, coarse_err);
}

TEST(DistributedTracker, HandsOffWhenTargetCrossesTheField) {
  const Deployment nodes = field_nodes();
  DistributedTracker dt = make_tracker(nodes, 4);
  // Walk from the south-west corner to the north-east corner.
  std::uint64_t epoch = 0;
  for (double s = 10.0; s <= 90.0; s += 5.0)
    dt.localize(sample_at(nodes, {s, s}, epoch++));
  EXPECT_GE(dt.handoffs(), 1u);
}

TEST(DistributedTracker, RoutesToTheNearestCluster) {
  const Deployment nodes = field_nodes();
  DistributedTracker dt = make_tracker(nodes, 4);
  dt.localize(sample_at(nodes, {10.0, 10.0}));
  const std::size_t active = dt.active_cluster();
  // The active cluster's centroid must be the one nearest the target.
  const auto& clusters = dt.clusters();
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    if (c == active) continue;
    EXPECT_LE(distance(clusters[active].centroid, {10.0, 10.0}),
              distance(clusters[c].centroid, {10.0, 10.0}) + 1e-9);
  }
}

TEST(DistributedTracker, SurvivesAllSilentEpochs) {
  const Deployment nodes = field_nodes();
  DistributedTracker dt = make_tracker(nodes, 4);
  GroupingSampling silent(nodes.size(), 3);
  const TrackEstimate e = dt.localize(silent);  // nothing heard anywhere
  EXPECT_TRUE(kField.contains(e.position));
  EXPECT_EQ(dt.handoffs(), 0u);
}

TEST(DistributedTracker, SingleMemberClustersGetMerged) {
  // 3 nodes, ask for 3 clusters: at least one would be a singleton; the
  // merge logic must still produce valid (>= 2 member) heads.
  const Deployment nodes{{0, {10.0, 10.0}}, {1, {12.0, 10.0}}, {2, {90.0, 90.0}}};
  DistributedTracker::Config cfg;
  cfg.clusters = 3;
  cfg.grid_cell = 2.0;
  const DistributedTracker dt(nodes, 1.2, kField, cfg);
  for (const Cluster& c : dt.clusters()) EXPECT_GE(c.members.size(), 2u);
}

TEST(DistributedTracker, NodeFailureRebuildsOwningHeadIncrementally) {
  const Deployment nodes = field_nodes();
  DistributedTracker dt = make_tracker(nodes, 4);
  const std::size_t faces_before = dt.total_faces();

  // Kill one node: exactly its owning head re-derives its division.
  EXPECT_TRUE(dt.on_node_failed(5));
  EXPECT_EQ(dt.map_rebuilds(), 1u);
  EXPECT_FALSE(dt.on_node_failed(5));  // already failed: no-op
  EXPECT_EQ(dt.map_rebuilds(), 1u);
  EXPECT_FALSE(dt.on_node_failed(999));  // unknown node
  const std::size_t faces_degraded = dt.total_faces();
  EXPECT_LT(faces_degraded, faces_before);  // one fewer node -> coarser head

  // Tracking keeps working against the degraded division.
  for (Vec2 target : {Vec2{27.0, 22.0}, Vec2{73.0, 26.0}}) {
    const TrackEstimate e = dt.localize(sample_at(nodes, target));
    EXPECT_LT(distance(e.position, target), 25.0) << target;
  }

  // Recovery restores the exact original division (the builder's plane
  // cache makes the fail/recover round trip rasterize nothing).
  EXPECT_TRUE(dt.on_node_recovered(5));
  EXPECT_FALSE(dt.on_node_recovered(5));  // already live: no-op
  EXPECT_EQ(dt.map_rebuilds(), 2u);
  EXPECT_EQ(dt.total_faces(), faces_before);
}

TEST(DistributedTracker, HeadBelowOnePairDefersRebuild) {
  // Three well-separated tight pairs force 2-member heads: killing both
  // members of one must not rebuild a sub-pair map — the head keeps
  // serving its previous division until a member recovers.
  const Deployment nodes{{0, {5.0, 5.0}},  {1, {12.0, 5.0}},
                         {2, {88.0, 5.0}}, {3, {95.0, 5.0}},
                         {4, {45.0, 95.0}}, {5, {52.0, 95.0}}};
  DistributedTracker dt = make_tracker(nodes, 3);
  const std::size_t faces_before = dt.total_faces();

  // Find two nodes sharing a cluster.
  NodeId a = 0, b = 0;
  bool found = false;
  for (const Cluster& c : dt.clusters()) {
    if (c.members.size() == 2) {
      a = c.members[0];
      b = c.members[1];
      found = true;
      break;
    }
  }
  if (!found) GTEST_SKIP() << "clustering produced no 2-member head";

  EXPECT_FALSE(dt.on_node_failed(a));  // 1 live member left: deferred
  EXPECT_FALSE(dt.on_node_failed(b));  // 0 live members: deferred
  EXPECT_EQ(dt.map_rebuilds(), 0u);
  EXPECT_EQ(dt.total_faces(), faces_before);  // old map still served
  EXPECT_FALSE(dt.on_node_recovered(a));      // still below a pair
  EXPECT_TRUE(dt.on_node_recovered(b));       // pair restored -> rebuild
  EXPECT_EQ(dt.total_faces(), faces_before);
  (void)dt.localize(sample_at(nodes, {50.0, 50.0}));
}

}  // namespace
}  // namespace fttt
