// The four benchmark workloads and the layer replay they share.
//
// A Shape is what every layer of one workload sees: the deployment being
// divided and served, the division constant, the frame source settings,
// and the equivalent simulation scenario. The layer replay of a traced
// run pushes exactly this shape through each layer API.
#pragma once

#include <cstdint>
#include <memory>

#include "common.hpp"
#include "net/sensor.hpp"
#include "serve/workload.hpp"
#include "sim/scenario.hpp"

namespace bench {

// Fixed workload constants. The open-loop rates are set from what the
// fleet sustained when the benchmark was defined (4 vCPUs), at the batch
// size the open loop produces, rounded down to two significant figures;
// they stay fixed so every commit is offered the same load.
//   serve_steady     closed-loop throughput ~880k frames/s; an eighth ->
//                    110k (at a quarter, ticks carry ~40 frames and the
//                    latency of a run swings with the host's speed half
//                    again as much as at an eighth)
//   serve_churn_n64  ticks carry one frame, one ~3.5 ms descent each on
//                    the service thread: ~280 frames/s; a quarter -> 70
// Well under a half: on a shared host the fleet sometimes runs at half
// speed, and a half-capacity load then overloads and turns latency into
// backlog. Trial counts are fixed per job for the same reason.
constexpr double kSteadyRateFps = 110000.0;
constexpr double kChurnRateFps = 70.0;
constexpr std::uint64_t kChurnRosterSeed = 20120625;
constexpr std::size_t kSimFixedTrialsPerJob = 64;
constexpr std::size_t kCampaignTrialsPerCell = 16;

struct Shape {
  fttt::ScenarioConfig scenario;  ///< sim view: field, channel, grid, dropout, seed
  fttt::Deployment roster;        ///< the deployment divided and served
  double C{1.0};                  ///< division constant of the served map
  fttt::SyntheticWorkload::Config frames;  ///< frame source (tracks, sampling, drop)
  bool hierarchical{false};       ///< serve through the coarse descent tier
};

void run_serve_steady(const Options& opt, Report& report, SpanRecorder& spans);
void run_serve_churn(const Options& opt, Report& report, SpanRecorder& spans);
void run_sim_fixed(const Options& opt, Report& report, SpanRecorder& spans);
void run_campaign_random(const Options& opt, Report& report, SpanRecorder& spans);

/// One process's set-up sample of each workload (--setup-only): fresh
/// builds of the division the workload serves or simulates first.
SetupSample setup_serve_steady(const Options& opt);
SetupSample setup_serve_churn(const Options& opt);
SetupSample setup_sim_fixed(const Options& opt);
SetupSample setup_campaign_random(const Options& opt);

/// The serve-layer part of a sim workload's traced run: a short fleet
/// session on the workload's own deployment, so every workload reports
/// the fleet and queue layer metrics.
void serve_replay(const Shape& shape, Report& report, SpanRecorder& spans);

/// Staleness after churn where no churn runs under load: a drill of
/// fail/revive events on an idle fleet serving 256 tracks of the shape's
/// deployment, each timed from the call's return to the first tick()
/// whose members() reflect it. The events fall due evenly over `seconds`;
/// a workload calls catch_up() between its timed calls, so the drill
/// samples the same stretch of host time as its other metrics.
class StaleDrill {
 public:
  StaleDrill(const Shape& shape, double seconds, SpanRecorder& spans);
  ~StaleDrill();
  StaleDrill(const StaleDrill&) = delete;
  StaleDrill& operator=(const StaleDrill&) = delete;

  /// Run every event that has fallen due.
  void catch_up();
  /// Run the events still left, then report stale_p50_ms and
  /// stale_p90_ms (and, traced, the churn layer metrics).
  void finish(Report& report);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// Replay the shape through every core/net/sim layer API and report the
/// per-layer unit costs (traced runs only).
void replay_layers(const Shape& shape, Report& report, SpanRecorder& spans);

/// Build the Shape of a served deployment from its scenario.
Shape make_shape(const fttt::ScenarioConfig& scenario, std::size_t tracks,
                 double drop_probability, bool hierarchical);

}  // namespace bench
