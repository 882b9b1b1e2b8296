// Fault drill: exercise the fault-tolerance machinery of Sec. 4.4(3)
// under an escalating failure scenario.
//
// A 16-sensor network tracks a random-waypoint target for 60 s while:
//   - every node suffers 10 % transient packet loss throughout,
//   - at t = 20 s two nodes die permanently (battery),
//   - from t = 40 s a jammer causes correlated burst losses.
// The drill reports how the tracking error and the '*' (unknowable
// component) count evolve across the three phases.
#include <iostream>
#include <memory>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/tracker.hpp"
#include "mobility/waypoint.hpp"
#include "net/deployment.hpp"
#include "net/faults.hpp"
#include "net/sampling.hpp"
#include "rf/uncertainty.hpp"

int main() {
  using namespace fttt;

  const Aabb field{{0.0, 0.0}, {100.0, 100.0}};
  const PathLossModel model{.ref_power_dbm = -40.0, .beta = 4.0, .sigma = 6.0, .d0 = 1.0};
  const double eps = 1.0;
  RngStream rng(424242);

  const Deployment sensors = grid_deployment(field, 16);
  const double C = uncertainty_constant(eps, model.beta, model.sigma);
  auto map = std::make_shared<const FaceMap>(FaceMap::build(sensors, C, field, 1.0));
  FtttTracker tracker(map, FtttTracker::Config{VectorMode::kExtended, eps});

  // Composite fault model: transient loss + two battery deaths at epoch 40
  // (t = 20 s) + burst jamming expressed as a second dropout layer that we
  // switch on by epoch below.
  const double period = 0.5;
  auto transient = std::make_shared<const BernoulliDropout>(0.10, rng.substream(1));
  auto deaths = std::make_shared<const PermanentFailures>(
      std::vector<std::pair<NodeId, std::uint64_t>>{{5, 40}, {10, 40}});
  auto jammer = std::make_shared<const BurstLoss>(0.25, 0.3, rng.substream(2));

  /// Phase-aware model: the jammer only acts from epoch 80 (t = 40 s).
  class DrillFaults final : public FaultModel {
   public:
    DrillFaults(std::shared_ptr<const FaultModel> always,
                std::shared_ptr<const FaultModel> deaths,
                std::shared_ptr<const FaultModel> late, std::uint64_t late_from)
        : always_(std::move(always)), deaths_(std::move(deaths)),
          late_(std::move(late)), late_from_(late_from) {}
    bool reports(NodeId n, std::uint64_t e) const override {
      if (!always_->reports(n, e) || !deaths_->reports(n, e)) return false;
      return e < late_from_ || late_->reports(n, e);
    }

   private:
    std::shared_ptr<const FaultModel> always_;
    std::shared_ptr<const FaultModel> deaths_;
    std::shared_ptr<const FaultModel> late_;
    std::uint64_t late_from_;
  };
  const DrillFaults faults(transient, deaths, jammer, 80);

  const RandomWaypoint target(WaypointConfig{field, 1.0, 5.0, 0.0, 60.0}, rng.substream(3));
  SamplingConfig sampling;
  sampling.model = model;
  sampling.sensing_range = 40.0;
  sampling.sample_period = 0.1;
  sampling.samples_per_group = 5;

  struct Phase {
    const char* name;
    RunningStats error;
    RunningStats missing_nodes;
    RunningStats star_components;
  };
  Phase phases[3] = {{"0-20 s: transient loss only", {}, {}, {}},
                     {"20-40 s: + two nodes dead", {}, {}, {}},
                     {"40-60 s: + burst jammer", {}, {}, {}}};

  for (std::uint64_t e = 0; e < 120; ++e) {
    const double t0 = period * static_cast<double>(e);
    const GroupingSampling group =
        collect_group(sensors, sampling, faults, e, t0,
                      [&](double t) { return target.position_at(t); },
                      rng.substream(4, e));
    const SamplingVector vd = build_sampling_vector(group, eps, VectorMode::kExtended);
    const TrackEstimate est = tracker.localize(group);

    Phase& phase = phases[e < 40 ? 0 : (e < 80 ? 1 : 2)];
    phase.error.add(distance(est.position, target.position_at(t0)));
    phase.missing_nodes.add(
        static_cast<double>(sensors.size() - group.reporting_count()));
    phase.star_components.add(static_cast<double>(vd.unknown_count()));
  }

  TextTable table({"phase", "mean err (m)", "stddev", "missing nodes/epoch",
                   "'*' components/epoch"});
  for (const Phase& p : phases)
    table.add_row({p.name, TextTable::num(p.error.mean(), 2),
                   TextTable::num(p.error.stddev(), 2),
                   TextTable::num(p.missing_nodes.mean(), 2),
                   TextTable::num(p.star_components.mean(), 2)});
  std::cout << table << "\n"
            << "fallbacks to exhaustive matching: " << tracker.stats().fallbacks << " of "
            << tracker.stats().localizations << " localizations\n";
  return 0;
}
