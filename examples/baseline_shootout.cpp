// Baseline shootout: every localizer in the library on the same scenario.
//
// One deployment, one Gauss-Markov target, one stream of grouping
// samplings — consumed in parallel by FTTT (basic + extended), the
// sequence/rank and pairwise formulations of Direct MLE, PM, weighted
// centroid and RSS trilateration. Prints a league table of error and
// smoothness metrics; a compact demonstration of why the uncertain-area
// representation earns its preprocessing cost.
#include <functional>
#include <iostream>
#include <memory>
#include <vector>

#include "baselines/direct_mle.hpp"
#include "baselines/path_matching.hpp"
#include "baselines/range_based.hpp"
#include "baselines/sequence_localizer.hpp"
#include "common/table.hpp"
#include "core/tracker.hpp"
#include "mobility/gauss_markov.hpp"
#include "net/deployment.hpp"
#include "net/faults.hpp"
#include "net/sampling.hpp"
#include "rf/uncertainty.hpp"
#include "sim/metrics.hpp"

int main() {
  using namespace fttt;

  const Aabb field{{0.0, 0.0}, {100.0, 100.0}};
  PathLossModel model{.ref_power_dbm = -40.0, .beta = 4.0, .sigma = 6.0, .d0 = 1.0};
  const double eps = 1.0;
  const std::size_t k = 5;
  RngStream rng(20120625);

  const Deployment sensors = random_deployment(field, 16, rng);

  // Bounded channel: the regime where the uncertain-area dichotomy is
  // exact (see EXPERIMENTS.md "Sensing channels").
  const double C = uncertainty_constant(eps, model.beta, model.sigma);
  model.noise = NoiseKind::kBounded;
  model.bounded_amplitude = bounded_noise_amplitude(C, model.beta);

  auto uncertain = std::make_shared<const FaceMap>(FaceMap::build(sensors, C, field, 1.0));
  auto bisector = std::make_shared<const FaceMap>(FaceMap::build(sensors, 1.0, field, 1.0));
  std::cout << "deployment: 16 sensors, C = " << C << ", " << uncertain->face_count()
            << " uncertain faces / " << bisector->face_count() << " bisector faces\n";

  // The contestants.
  auto fttt = std::make_shared<FtttTracker>(
      uncertain, FtttTracker::Config{VectorMode::kBasic, eps});
  auto fttt_ext = std::make_shared<FtttTracker>(
      uncertain, FtttTracker::Config{VectorMode::kExtended, eps});
  auto mle_pairwise = std::make_shared<DirectMleTracker>(bisector, eps);
  auto mle_ranks = std::make_shared<SequenceLocalizer>(bisector);
  PathMatchingTracker::Config pm_cfg;
  pm_cfg.eps = eps;
  auto pm = std::make_shared<PathMatchingTracker>(bisector, pm_cfg);
  auto centroid = std::make_shared<WeightedCentroidLocalizer>(sensors);
  auto trilat = std::make_shared<TrilaterationLocalizer>(
      sensors, TrilaterationLocalizer::Config{.model = model});

  struct Contestant {
    const char* name;
    std::function<Vec2(const GroupingSampling&)> localize;
    std::vector<Vec2> estimates;
  };
  std::vector<Contestant> field_of_play;
  field_of_play.push_back({"FTTT (basic)", [&](const GroupingSampling& g) {
                             return fttt->localize(g).position;
                           }, {}});
  field_of_play.push_back({"FTTT (extended)", [&](const GroupingSampling& g) {
                             return fttt_ext->localize(g).position;
                           }, {}});
  field_of_play.push_back({"PM (path matching)", [&](const GroupingSampling& g) {
                             return pm->localize(g).position;
                           }, {}});
  field_of_play.push_back({"Direct MLE (pairwise)", [&](const GroupingSampling& g) {
                             return mle_pairwise->localize(g).position;
                           }, {}});
  field_of_play.push_back({"Direct MLE (rank/tau)", [&](const GroupingSampling& g) {
                             return mle_ranks->localize(g).position;
                           }, {}});
  field_of_play.push_back({"weighted centroid", [&](const GroupingSampling& g) {
                             return centroid->localize(g).position;
                           }, {}});
  field_of_play.push_back({"RSS trilateration", [&](const GroupingSampling& g) {
                             return trilat->localize(g).position;
                           }, {}});

  // The shared world.
  GaussMarkovConfig gm;
  gm.field = field;
  gm.duration = 60.0;
  const GaussMarkov target(gm, rng.substream(1));
  SamplingConfig sampling;
  sampling.model = model;
  sampling.sensing_range = 40.0;
  sampling.sample_period = 0.1;
  sampling.samples_per_group = k;
  const NoFaults faults;

  std::vector<Vec2> truth;
  for (std::uint64_t e = 0; e < 120; ++e) {
    const double t0 = 0.5 * static_cast<double>(e);
    const GroupingSampling group =
        collect_group(sensors, sampling, faults, e, t0,
                      [&](double t) { return target.position_at(t); },
                      rng.substream(2, e));
    truth.push_back(target.position_at(t0));
    for (auto& c : field_of_play) c.estimates.push_back(c.localize(group));
  }

  TextTable t({"localizer", "mean (m)", "rmse", "p95", "max", "turn energy"});
  for (const auto& c : field_of_play) {
    const ErrorMetrics em = error_metrics(c.estimates, truth);
    const SmoothnessMetrics sm = smoothness_metrics(c.estimates);
    t.add_row({c.name, TextTable::num(em.mean, 2), TextTable::num(em.rmse, 2),
               TextTable::num(em.p95, 2), TextTable::num(em.max, 2),
               TextTable::num(sm.turn_energy, 2)});
  }
  std::cout << '\n' << t;
  return 0;
}
