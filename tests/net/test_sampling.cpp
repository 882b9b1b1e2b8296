#include "net/sampling.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "net/deployment.hpp"

namespace fttt {
namespace {

SamplingConfig noiseless_config() {
  SamplingConfig cfg;
  cfg.model = PathLossModel{.ref_power_dbm = -40.0, .beta = 4.0, .sigma = 0.0, .d0 = 1.0};
  cfg.sensing_range = 40.0;
  cfg.sample_period = 0.1;
  cfg.samples_per_group = 5;
  return cfg;
}

Deployment two_nodes() {
  return {{0, {0.0, 0.0}}, {1, {30.0, 0.0}}};
}

TEST(CollectGroup, ShapeMatchesConfig) {
  const auto nodes = two_nodes();
  const auto cfg = noiseless_config();
  const NoFaults faults;
  const auto target = [](double) { return Vec2{10.0, 0.0}; };
  const GroupingSampling g = collect_group(nodes, cfg, faults, 0, 0.0, target, RngStream(1));
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.instants(), 5u);
  ASSERT_TRUE(g.has(0));
  ASSERT_TRUE(g.has(1));
  EXPECT_EQ(g.column(0).size(), 5u);
  EXPECT_EQ(g.reporting_count(), 2u);
}

TEST(CollectGroup, OutOfRangeNodeIsMissing) {
  const auto nodes = two_nodes();
  const auto cfg = noiseless_config();
  const NoFaults faults;
  // Target 50 m from node 1, 20 m from node 0 (range 40).
  const auto target = [](double) { return Vec2{-20.0, 0.0}; };
  const GroupingSampling g = collect_group(nodes, cfg, faults, 0, 0.0, target, RngStream(1));
  EXPECT_TRUE(g.has(0));
  EXPECT_FALSE(g.has(1));
  EXPECT_EQ(g.reporting_count(), 1u);
}

TEST(CollectGroup, FaultedNodeIsMissing) {
  const auto nodes = two_nodes();
  const auto cfg = noiseless_config();
  const PermanentFailures faults({{0, 0}});
  const auto target = [](double) { return Vec2{10.0, 0.0}; };
  const GroupingSampling g = collect_group(nodes, cfg, faults, 0, 0.0, target, RngStream(1));
  EXPECT_FALSE(g.has(0));
  EXPECT_TRUE(g.has(1));
}

TEST(CollectGroup, NoiselessStationaryTargetGivesConstantColumns) {
  const auto nodes = two_nodes();
  const auto cfg = noiseless_config();
  const NoFaults faults;
  const auto target = [](double) { return Vec2{10.0, 5.0}; };
  const GroupingSampling g = collect_group(nodes, cfg, faults, 0, 0.0, target, RngStream(1));
  for (std::size_t t = 1; t < g.instants(); ++t)
    EXPECT_DOUBLE_EQ(g.column(0)[t], g.column(0)[0]);
}

TEST(CollectGroup, NearerNodeReadsStrongerWithoutNoise) {
  const auto nodes = two_nodes();
  const auto cfg = noiseless_config();
  const NoFaults faults;
  const auto target = [](double) { return Vec2{5.0, 0.0}; };  // nearer node 0
  const GroupingSampling g = collect_group(nodes, cfg, faults, 0, 0.0, target, RngStream(1));
  EXPECT_GT(g.column(0)[0], g.column(1)[0]);
}

TEST(CollectGroup, FrozenGroupIgnoresTargetMotion) {
  // Default Def. 3 semantics: the whole group is collected at the
  // epoch-start position even if the target model moves.
  const auto nodes = two_nodes();
  auto cfg = noiseless_config();
  cfg.sample_period = 0.5;
  const NoFaults faults;
  const auto target = [](double t) { return Vec2{5.0 + 10.0 * t, 0.0}; };
  const GroupingSampling g = collect_group(nodes, cfg, faults, 0, 0.0, target, RngStream(1));
  for (std::size_t t = 1; t < g.instants(); ++t)
    EXPECT_DOUBLE_EQ(g.column(0)[t], g.column(0)[0]);
}

TEST(CollectGroup, MovingTargetChangesSamplesWithinGroup) {
  const auto nodes = two_nodes();
  auto cfg = noiseless_config();
  cfg.sample_period = 0.5;
  cfg.freeze_target_during_group = false;
  const NoFaults faults;
  // Fast mover: 10 m/s along x, away from node 0.
  const auto target = [](double t) { return Vec2{5.0 + 10.0 * t, 0.0}; };
  const GroupingSampling g = collect_group(nodes, cfg, faults, 0, 0.0, target, RngStream(1));
  EXPECT_LT(g.column(0)[4], g.column(0)[0]);  // receding: weaker over time
  EXPECT_GT(g.column(1)[4], g.column(1)[0]);  // approaching: stronger
}

TEST(CollectGroup, ReproducibleFromStream) {
  const auto nodes = two_nodes();
  auto cfg = noiseless_config();
  cfg.model.sigma = 6.0;
  const NoFaults faults;
  const auto target = [](double) { return Vec2{10.0, 0.0}; };
  const GroupingSampling a = collect_group(nodes, cfg, faults, 0, 0.0, target, RngStream(42));
  const GroupingSampling b = collect_group(nodes, cfg, faults, 0, 0.0, target, RngStream(42));
  for (std::size_t t = 0; t < a.instants(); ++t)
    EXPECT_DOUBLE_EQ(a.column(0)[t], b.column(0)[t]);
}

TEST(CollectGroup, NoiseVariesAcrossInstants) {
  const auto nodes = two_nodes();
  auto cfg = noiseless_config();
  cfg.model.sigma = 6.0;
  const NoFaults faults;
  const auto target = [](double) { return Vec2{10.0, 0.0}; };
  const GroupingSampling g = collect_group(nodes, cfg, faults, 0, 0.0, target, RngStream(42));
  bool any_diff = false;
  for (std::size_t t = 1; t < g.instants(); ++t)
    if (g.column(0)[t] != g.column(0)[0]) any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(CollectGroup, ClockSkewShiftsMovingTargetSamples) {
  const auto nodes = two_nodes();
  auto no_skew = noiseless_config();
  no_skew.freeze_target_during_group = false;
  auto with_skew = no_skew;
  with_skew.clock_skew = 0.05;
  const NoFaults faults;
  const auto target = [](double t) { return Vec2{5.0 + 10.0 * t, 0.0}; };
  const GroupingSampling a =
      collect_group(nodes, no_skew, faults, 0, 0.0, target, RngStream(7));
  const GroupingSampling b =
      collect_group(nodes, with_skew, faults, 0, 0.0, target, RngStream(7));
  bool any_diff = false;
  for (std::size_t t = 0; t < a.instants(); ++t)
    if (a.column(0)[t] != b.column(0)[t]) any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(GroupingSampling, PopcountReportingCountMatchesLegacyScan) {
  // reporting_count() is a popcount over the presence bitmask; pin it
  // against the legacy definition — count the nodes whose column is
  // present — across sizes that straddle the 64-bit mask word boundary
  // and arbitrary set/clear sequences.
  for (std::size_t nodes : {1u, 7u, 63u, 64u, 65u, 130u}) {
    GroupingSampling g(nodes, 3);
    std::size_t toggle = 0;
    for (std::size_t i = 0; i < nodes; i += 2) g.set_column(i);
    for (std::size_t i = 0; i < nodes; i += 5) g.clear_column(i);
    for (std::size_t i = 0; i < nodes; i += 3) {
      g.set_column(i);
      ++toggle;
    }
    (void)toggle;
    std::size_t legacy = 0;
    for (std::size_t i = 0; i < nodes; ++i)
      if (g.has(i)) ++legacy;
    EXPECT_EQ(g.reporting_count(), legacy) << "nodes=" << nodes;
  }
}

TEST(GroupingSampling, ReportingCountSaturatesAndClears) {
  GroupingSampling g(70, 2);
  EXPECT_EQ(g.reporting_count(), 0u);
  for (std::size_t i = 0; i < 70; ++i) g.set_column(i);
  EXPECT_EQ(g.reporting_count(), 70u);
  g.clear_column(69);
  g.clear_column(0);
  EXPECT_EQ(g.reporting_count(), 68u);
  // Setting an already-present column must not double count.
  g.set_column(5);
  EXPECT_EQ(g.reporting_count(), 68u);
}

TEST(GroupingSampling, ProjectOntoRelabelsMembersAndKeepsAbsence) {
  GroupingSampling g(5, 2);
  g.set_column(0, std::vector<double>{-50.0, -51.0});
  g.set_column(3, std::vector<double>{-60.0, -61.0});
  g.set_column(4, std::vector<double>{-70.0, -71.0});
  const std::vector<NodeId> members{1, 3, 4};
  const GroupingSampling p = project_onto(g, members);
  ASSERT_EQ(p.node_count(), 3u);
  EXPECT_EQ(p.instants(), 2u);
  EXPECT_FALSE(p.has(0));  // node 1 did not report
  ASSERT_TRUE(p.has(1));
  EXPECT_EQ(p.column(1)[0], -60.0);
  ASSERT_TRUE(p.has(2));
  EXPECT_EQ(p.column(2)[1], -71.0);
  EXPECT_EQ(p.reporting_count(), 2u);
}

}  // namespace
}  // namespace fttt
