// Border intrusion monitoring: the workload the paper's introduction
// motivates — detect an intruder crossing a guarded strip and hand the
// track to a response team.
//
// A 200 x 60 m border strip is instrumented with a jittered grid of 24
// sensors. An intruder enters from the north edge, cuts across the strip
// at a shallow angle and leaves south. The application:
//   1. tracks with extended FTTT (quantified vectors for a smooth trace),
//   2. raises an alarm when the estimated track first crosses the
//      mid-strip tripwire (y = 30),
//   3. reports where it would intercept, against the ground truth.
#include <iostream>
#include <optional>

#include "common/ascii_plot.hpp"
#include "common/stats.hpp"
#include "core/tracker.hpp"
#include "geometry/polyline.hpp"
#include "mobility/path_trace.hpp"
#include "net/deployment.hpp"
#include "net/faults.hpp"
#include "net/sampling.hpp"
#include "rf/uncertainty.hpp"

int main() {
  using namespace fttt;

  const Aabb strip{{0.0, 0.0}, {200.0, 60.0}};
  const double tripwire_y = 30.0;
  const PathLossModel model{.ref_power_dbm = -40.0, .beta = 4.0, .sigma = 6.0, .d0 = 1.0};
  const double eps = 1.0;

  RngStream rng(777);
  const Deployment sensors = jittered_grid_deployment(strip, 24, 4.0, rng);

  const double C = uncertainty_constant(eps, model.beta, model.sigma);
  auto map = std::make_shared<const FaceMap>(FaceMap::build(sensors, C, strip, 1.0));
  std::cout << "border strip instrumented: " << sensors.size() << " sensors, "
            << map->face_count() << " faces, C = " << C << "\n";

  FtttTracker tracker(map, FtttTracker::Config{VectorMode::kExtended, eps});

  // The intruder: enters at the top-left, exits bottom-right at ~2 m/s.
  const Polyline intrusion({{20.0, 60.0}, {80.0, 35.0}, {150.0, 20.0}, {185.0, 0.0}});
  const PathTrace intruder(intrusion, 1.5, 2.5, rng.substream(1));

  SamplingConfig sampling;
  sampling.model = model;
  sampling.sensing_range = 45.0;
  sampling.sample_period = 0.1;
  sampling.samples_per_group = 7;  // k chosen via theory::required_sampling_times
  const BernoulliDropout faults(0.05, rng.substream(2));  // lossy field radios

  std::vector<Vec2> truth_points;
  std::vector<Vec2> estimates;
  RunningStats errors;
  std::optional<double> alarm_time;
  std::optional<Vec2> alarm_position;

  const double period = 0.5;
  const auto epochs = static_cast<std::uint64_t>(intruder.duration() / period);
  for (std::uint64_t e = 0; e < epochs; ++e) {
    const double t0 = period * static_cast<double>(e);
    const GroupingSampling group =
        collect_group(sensors, sampling, faults, e, t0,
                      [&](double t) { return intruder.position_at(t); },
                      rng.substream(3, e));
    const TrackEstimate est = tracker.localize(group);
    const Vec2 truth = intruder.position_at(t0);
    truth_points.push_back(truth);
    estimates.push_back(est.position);
    errors.add(distance(est.position, truth));

    if (!alarm_time && est.position.y <= tripwire_y) {
      alarm_time = t0;
      alarm_position = est.position;
    }
  }

  AsciiPlot plot(strip, 100, 24);
  plot.polyline(truth_points, '.');
  plot.scatter(estimates, 'o');
  std::vector<Vec2> sensor_pos;
  for (const auto& s : sensors) sensor_pos.push_back(s.position);
  plot.scatter(sensor_pos, '^');
  std::cout << "\nlegend: . true path   o FTTT estimate   ^ sensor\n" << plot.render();

  std::cout << "\nmean tracking error: " << errors.mean() << " m (stddev "
            << errors.stddev() << ")\n";
  if (alarm_time) {
    // Ground truth tripwire crossing for comparison.
    double truth_cross = -1.0;
    for (std::size_t i = 1; i < truth_points.size(); ++i)
      if (truth_points[i - 1].y > tripwire_y && truth_points[i].y <= tripwire_y)
        truth_cross = period * static_cast<double>(i);
    std::cout << "ALARM: estimated tripwire crossing at t = " << *alarm_time
              << " s, position " << *alarm_position << "\n"
              << "       true crossing at t = " << truth_cross << " s\n";
  } else {
    std::cout << "no tripwire crossing detected (unexpected)\n";
  }
  return alarm_time ? 0 : 1;
}
