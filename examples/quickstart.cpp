// Quickstart: the smallest complete FTTT application.
//
// Deploys 10 sensors at random in a 100x100 m field, builds the face map
// once (preprocessing), then tracks a random-waypoint target for 30 s with
// the basic FTTT tracker, printing each localization and the run summary.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <iostream>

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

  // 1. The world: field, signal model, sensors.
  const Aabb field{{0.0, 0.0}, {100.0, 100.0}};
  const PathLossModel model{.ref_power_dbm = -40.0, .beta = 4.0, .sigma = 6.0, .d0 = 1.0};
  const double eps = 1.0;  // sensing resolution (dBm)

  RngStream rng(2012);
  const Deployment sensors = random_deployment(field, 10, rng);

  // 2. Preprocessing: derive the uncertainty constant C from the noise
  //    model and divide the field into faces (paper Sec. 3.2 + 4.3).
  const double C = uncertainty_constant(eps, model.beta, model.sigma);
  std::cout << "uncertainty constant C = " << C << "\n";
  auto map = std::make_shared<const FaceMap>(FaceMap::build(sensors, C, field, 1.0));
  std::cout << "face map: " << map->face_count() << " faces over "
            << map->grid().cell_count() << " cells\n\n";

  // 3. The tracker (basic mode, heuristic matching with warm starts).
  FtttTracker tracker(map, FtttTracker::Config{VectorMode::kBasic, eps});

  // 4. A target and the sampling loop: one grouping sampling (k = 5 RSS
  //    samples per sensor) every 0.5 s.
  const RandomWaypoint target(WaypointConfig{field, 1.0, 5.0, 0.0, 30.0}, rng.substream(1));
  SamplingConfig sampling;
  sampling.model = model;
  sampling.sensing_range = 40.0;
  sampling.sample_period = 0.1;  // 10 Hz
  sampling.samples_per_group = 5;
  const NoFaults faults;

  TextTable table({"t (s)", "true x", "true y", "est x", "est y", "error (m)"});
  RunningStats errors;
  for (std::uint64_t epoch = 0; epoch < 60; ++epoch) {
    const double t0 = 0.5 * static_cast<double>(epoch);
    const GroupingSampling group =
        collect_group(sensors, sampling, faults, epoch, t0,
                      [&](double t) { return target.position_at(t); },
                      rng.substream(2, epoch));
    const TrackEstimate est = tracker.localize(group);
    const Vec2 truth = target.position_at(t0);
    const double err = distance(est.position, truth);
    errors.add(err);
    if (epoch % 6 == 0)
      table.add_row({TextTable::num(t0, 1), TextTable::num(truth.x, 1),
                     TextTable::num(truth.y, 1), TextTable::num(est.position.x, 1),
                     TextTable::num(est.position.y, 1), TextTable::num(err, 2)});
  }

  std::cout << table << "\n";
  std::cout << "localizations: " << errors.count() << "\n"
            << "mean error:    " << errors.mean() << " m\n"
            << "error stddev:  " << errors.stddev() << " m\n"
            << "worst error:   " << errors.max() << " m\n";
  return 0;
}
