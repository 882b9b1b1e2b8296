#include "sim/cli.hpp"

#include <gtest/gtest.h>

namespace fttt {
namespace {

CliOptions must_parse(const std::vector<std::string>& args) {
  const CliParseResult r = parse_cli(args);
  EXPECT_TRUE(r.ok()) << r.error;
  return r.options.value_or(CliOptions{});
}

TEST(Cli, EmptyArgsGiveDefaults) {
  const CliOptions opt = must_parse({});
  EXPECT_EQ(opt.scenario.sensor_count, 10u);
  EXPECT_EQ(opt.methods, std::vector<Method>{Method::kFttt});
  EXPECT_EQ(opt.trials, 10u);
  EXPECT_FALSE(opt.csv_path.has_value());
  EXPECT_FALSE(opt.want_help);
}

TEST(Cli, ScenarioFlags) {
  const CliOptions opt = must_parse(
      {"--sensors", "25", "--deployment", "grid", "--field", "200", "60",
       "--range", "50", "--eps", "2.5", "--beta", "3", "--sigma", "4",
       "--channel", "bounded", "--k", "7", "--rate", "20", "--period", "0.25",
       "--dropout", "0.1", "--speed", "2", "4", "--duration", "30",
       "--grid-cell", "0.5", "--seed", "99"});
  const ScenarioConfig& cfg = opt.scenario;
  EXPECT_EQ(cfg.sensor_count, 25u);
  EXPECT_EQ(cfg.deployment, DeploymentKind::kGrid);
  EXPECT_DOUBLE_EQ(cfg.field.width(), 200.0);
  EXPECT_DOUBLE_EQ(cfg.field.height(), 60.0);
  EXPECT_DOUBLE_EQ(cfg.sensing_range, 50.0);
  EXPECT_DOUBLE_EQ(cfg.eps, 2.5);
  EXPECT_DOUBLE_EQ(cfg.model.beta, 3.0);
  EXPECT_DOUBLE_EQ(cfg.model.sigma, 4.0);
  EXPECT_EQ(cfg.channel, Channel::kBounded);
  EXPECT_EQ(cfg.samples_per_group, 7u);
  EXPECT_DOUBLE_EQ(cfg.sample_rate, 20.0);
  EXPECT_DOUBLE_EQ(cfg.localization_period, 0.25);
  EXPECT_DOUBLE_EQ(cfg.dropout_probability, 0.1);
  EXPECT_DOUBLE_EQ(cfg.v_min, 2.0);
  EXPECT_DOUBLE_EQ(cfg.v_max, 4.0);
  EXPECT_DOUBLE_EQ(cfg.duration, 30.0);
  EXPECT_DOUBLE_EQ(cfg.grid_cell, 0.5);
  EXPECT_EQ(cfg.seed, 99u);
}

TEST(Cli, TraceKinds) {
  EXPECT_EQ(must_parse({"--trace", "waypoint"}).scenario.trace,
            TraceKind::kRandomWaypoint);
  EXPECT_EQ(must_parse({"--trace", "ushape"}).scenario.trace, TraceKind::kUShape);
  EXPECT_EQ(must_parse({"--trace", "gauss-markov"}).scenario.trace,
            TraceKind::kGaussMarkov);
  EXPECT_FALSE(parse_cli({"--trace", "teleport"}).ok());
}

TEST(Cli, ObservabilityFlags) {
  const CliOptions opt = must_parse(
      {"--metrics", "/tmp/m.json", "--trace-out", "/tmp/t.trace.json"});
  EXPECT_EQ(opt.metrics_path.value(), "/tmp/m.json");
  EXPECT_EQ(opt.trace_path.value(), "/tmp/t.trace.json");
  EXPECT_FALSE(must_parse({}).metrics_path.has_value());
  EXPECT_FALSE(must_parse({}).trace_path.has_value());
  EXPECT_FALSE(parse_cli({"--metrics"}).ok());
  EXPECT_FALSE(parse_cli({"--trace-out"}).ok());
}

TEST(Cli, TraceFlagSniffsJsonOperandAsOutputPath) {
  // A ".json" operand means "Chrome-trace output here"; mobility kinds
  // keep working; anything else is still rejected.
  const CliOptions opt = must_parse({"--trace", "out/run.trace.json"});
  EXPECT_EQ(opt.trace_path.value(), "out/run.trace.json");
  EXPECT_EQ(opt.scenario.trace, TraceKind::kRandomWaypoint);  // untouched

  const CliOptions both =
      must_parse({"--trace", "ushape", "--trace", "spans.json"});
  EXPECT_EQ(both.scenario.trace, TraceKind::kUShape);
  EXPECT_EQ(both.trace_path.value(), "spans.json");

  EXPECT_FALSE(parse_cli({"--trace", "spans.txt"}).ok());
  EXPECT_FALSE(parse_cli({"--trace", ".json"}).ok());
}

TEST(Cli, ToggleFlags) {
  const CliOptions opt = must_parse({"--no-calibrate-c", "--moving-group"});
  EXPECT_FALSE(opt.scenario.calibrate_C);
  EXPECT_FALSE(opt.scenario.freeze_group);
}

TEST(Cli, HierarchicalMatchingFlag) {
  EXPECT_FALSE(must_parse({}).scenario.hierarchical_matching);
  EXPECT_TRUE(must_parse({"--hier"}).scenario.hierarchical_matching);
}

TEST(Cli, MissingPolicy) {
  EXPECT_EQ(must_parse({"--missing", "smaller"}).scenario.missing,
            MissingPolicy::kMissingReadsSmaller);
  EXPECT_EQ(must_parse({"--missing", "unknown"}).scenario.missing,
            MissingPolicy::kMissingUnknown);
  EXPECT_FALSE(parse_cli({"--missing", "teleport"}).ok());
}

TEST(Cli, RunFlags) {
  const CliOptions opt = must_parse(
      {"--methods", "fttt,pm,mle", "--trials", "5", "--csv", "/tmp/x.csv"});
  ASSERT_EQ(opt.methods.size(), 3u);
  EXPECT_EQ(opt.methods[0], Method::kFttt);
  EXPECT_EQ(opt.methods[1], Method::kPathMatching);
  EXPECT_EQ(opt.methods[2], Method::kDirectMle);
  EXPECT_EQ(opt.trials, 5u);
  EXPECT_EQ(opt.csv_path.value(), "/tmp/x.csv");
}

TEST(Cli, ServeFlagsDefaultOffAndParse) {
  const CliOptions off = must_parse({});
  EXPECT_FALSE(off.serve.enabled);
  EXPECT_EQ(off.serve.shards, 4u);
  EXPECT_EQ(off.serve.queue_capacity, 4096u);
  EXPECT_EQ(off.serve.churn_period, 0u);  // no churn unless asked

  const CliOptions opt = must_parse(
      {"--serve", "--serve-shards", "8", "--serve-tracks", "128",
       "--serve-ticks", "500", "--serve-queue", "1024", "--serve-churn", "25"});
  EXPECT_TRUE(opt.serve.enabled);
  EXPECT_EQ(opt.serve.shards, 8u);
  EXPECT_EQ(opt.serve.tracks, 128u);
  EXPECT_EQ(opt.serve.ticks, 500u);
  EXPECT_EQ(opt.serve.queue_capacity, 1024u);
  EXPECT_EQ(opt.serve.churn_period, 25u);
}

TEST(Cli, ServeFlagsRejectGarbage) {
  EXPECT_FALSE(parse_cli({"--serve-shards", "0"}).ok());
  EXPECT_FALSE(parse_cli({"--serve-tracks", "0"}).ok());
  EXPECT_FALSE(parse_cli({"--serve-ticks", "none"}).ok());
  EXPECT_FALSE(parse_cli({"--serve-queue", "0"}).ok());
  EXPECT_FALSE(parse_cli({"--serve-queue"}).ok());
  EXPECT_EQ(must_parse({"--serve-churn", "0"}).serve.churn_period, 0u);
}

TEST(Cli, HelpShortCircuits) {
  const CliOptions opt = must_parse({"--help", "--bogus-after-help-ignored"});
  EXPECT_TRUE(opt.want_help);
  EXPECT_FALSE(cli_usage().empty());
}

TEST(Cli, UnknownFlagFails) {
  const CliParseResult r = parse_cli({"--bogus"});
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("--bogus"), std::string::npos);
}

TEST(Cli, MissingOperandFails) {
  EXPECT_FALSE(parse_cli({"--sensors"}).ok());
  EXPECT_FALSE(parse_cli({"--speed", "2"}).ok());
}

TEST(Cli, RejectsGarbageValues) {
  EXPECT_FALSE(parse_cli({"--sensors", "many"}).ok());
  EXPECT_FALSE(parse_cli({"--eps", "1.5x"}).ok());
  EXPECT_FALSE(parse_cli({"--dropout", "1.5"}).ok());
  EXPECT_FALSE(parse_cli({"--speed", "5", "2"}).ok());
  EXPECT_FALSE(parse_cli({"--k", "0"}).ok());
  EXPECT_FALSE(parse_cli({"--trials", "0"}).ok());
  EXPECT_FALSE(parse_cli({"--field", "-10", "10"}).ok());
  EXPECT_FALSE(parse_cli({"--deployment", "hexagon"}).ok());
  EXPECT_FALSE(parse_cli({"--channel", "laplace"}).ok());
  EXPECT_FALSE(parse_cli({"--methods", "fttt,bogus"}).ok());
}

TEST(Cli, RejectsNonFiniteNumbers) {
  // NaN passes every `<= 0` and range check, and an infinite duration or
  // rate never finishes: both must fail at parse time.
  EXPECT_FALSE(parse_cli({"--period", "nan"}).ok());
  EXPECT_FALSE(parse_cli({"--duration", "inf"}).ok());
  EXPECT_FALSE(parse_cli({"--grid-cell", "nan"}).ok());
  EXPECT_FALSE(parse_cli({"--dropout", "nan"}).ok());
  EXPECT_FALSE(parse_cli({"--speed", "nan", "nan"}).ok());
  EXPECT_FALSE(parse_cli({"--rate", "inf"}).ok());
}

TEST(ParseMethodList, AllNamesAndFailures) {
  const auto all = parse_method_list("fttt,fttt-ext,pm,mle");
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(all->size(), 4u);
  EXPECT_FALSE(parse_method_list("").has_value());
  EXPECT_FALSE(parse_method_list("kalman").has_value());
}

}  // namespace
}  // namespace fttt
