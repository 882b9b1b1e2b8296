// Ablation: centralized vs cluster-head (distributed) FTTT (Sec. 4.3's
// "stored in the base stations or in the cluster heads").
//
// Sweeps the cluster count at fixed n and measures the storage the heads
// carry (faces, vector dimension) against the tracking error and handoff
// churn on a random-waypoint run. One cluster == the centralized tracker.
#include <iostream>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "core/distributed_tracker.hpp"
#include "mobility/waypoint.hpp"
#include "net/deployment.hpp"
#include "net/faults.hpp"
#include "rf/uncertainty.hpp"
#include "sim/scenario_build.hpp"

int main(int argc, char** argv) {
  using namespace fttt;
  const bench::Options opt = bench::parse_options(argc, argv);

  print_banner(std::cout, "Ablation: centralized vs cluster-head tracking");
  const std::size_t n = 24;
  const ScenarioConfig base = bench::default_scenario(opt);
  std::cout << "n = " << n << ", grid deployment, bounded channel, "
            << "one 60 s random-waypoint run per row\n\n";

  // Shared world.
  const Deployment nodes = grid_deployment(base.field, n);
  PathLossModel model = base.model;
  const double C = uncertainty_constant(base.eps, model.beta, model.sigma);
  model.noise = NoiseKind::kBounded;
  model.bounded_amplitude = bounded_noise_amplitude(C, model.beta);

  const SamplingConfig sampling = scenario_sampling(base, ResolvedChannel{model, C});

  const RngStream root(base.seed);
  const RandomWaypoint target(
      WaypointConfig{base.field, base.v_min, base.v_max, 0.0, 60.0}, root.substream(1));
  const NoFaults faults;

  TextTable t({"clusters", "total faces", "max dim", "mean err (m)", "stddev",
               "handoffs"});
  bench::CsvSink csv(opt);
  csv.row(std::vector<std::string>{"clusters", "faces", "dim", "mean", "stddev",
                                   "handoffs"});

  for (std::size_t k : {1u, 2u, 4u, 6u, 8u}) {
    DistributedTracker::Config cfg;
    cfg.clusters = k;
    cfg.eps = base.eps;
    cfg.grid_cell = base.grid_cell;
    DistributedTracker dt(nodes, C, base.field, cfg);

    RunningStats err;
    for (std::uint64_t e = 0; e < 120; ++e) {
      const double t0 = 0.5 * static_cast<double>(e);
      const GroupingSampling group =
          collect_group(nodes, sampling, faults, e, t0,
                        [&](double time) { return target.position_at(time); },
                        root.substream(2, e));
      const TrackEstimate est = dt.localize(group);
      err.add(distance(est.position, target.position_at(t0)));
    }
    t.add_row({std::to_string(dt.cluster_count()), std::to_string(dt.total_faces()),
               std::to_string(dt.max_dimension()), TextTable::num(err.mean(), 2),
               TextTable::num(err.stddev(), 2), std::to_string(dt.handoffs())});
    csv.row({static_cast<double>(dt.cluster_count()),
             static_cast<double>(dt.total_faces()),
             static_cast<double>(dt.max_dimension()), err.mean(), err.stddev(),
             static_cast<double>(dt.handoffs())});
  }
  std::cout << t
            << "\nReading: splitting the field across heads divides the stored\n"
               "faces and shrinks per-localization vectors (O(m^4)/O(m^2) per\n"
               "head instead of O(n^4)/O(n^2) central), at the cost of border\n"
               "accuracy and handoff churn as the target crosses territories.\n";
  return 0;
}
