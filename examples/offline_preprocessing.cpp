// Offline preprocessing pipeline: what a deployment crew runs before
// going to the field (paper Sec. 4.3 — the division is computed once and
// stored at base stations / cluster heads).
//
//   1. survey: load the sensor positions (here: a jittered grid),
//   2. divide: adaptive double-level grid division (ref [29]) with the
//      flip-calibrated uncertainty constant,
//   3. persist: save the FTTTMAP1 file an operator would flash,
//   4. verify: reload the artifact, check integrity and spot-check that
//      the reloaded division localizes correctly,
//   5. report: storage figures for the deployment document.
#include <cstdio>
#include <iostream>
#include <sstream>

#include "common/table.hpp"
#include "core/adaptive_grid.hpp"
#include "core/facemap_io.hpp"
#include "core/tracker.hpp"
#include "net/deployment.hpp"
#include "net/faults.hpp"
#include "net/sampling.hpp"
#include "rf/uncertainty.hpp"

int main() {
  using namespace fttt;

  // 1. Survey.
  const Aabb field{{0.0, 0.0}, {100.0, 100.0}};
  RngStream rng(100);
  const Deployment sensors = jittered_grid_deployment(field, 10, 5.0, rng);
  PathLossModel model{.ref_power_dbm = -40.0, .beta = 4.0, .sigma = 6.0, .d0 = 1.0};
  const double eps = 1.0;
  const std::size_t k = 5;

  // 2. Divide. This rig runs the bounded channel (step 4), whose flip
  // region is exactly the Eq. 3 annulus. Note the savings report: with
  // C(10,2) = 45 pairs the annuli blanket a 100 m field and adaptive
  // probing barely pays — it shines on the few-node local maps cluster
  // heads store (see DistributedTracker), which is where Sec. 4.3 puts
  // the division anyway. The deployment doc records the measured figure.
  const double C = uncertainty_constant(eps, model.beta, model.sigma);
  const AdaptiveBuildResult built = build_facemap_adaptive(sensors, C, field, 0.5, 4);
  std::cout << "division: C = " << C << ", " << built.map.face_count() << " faces, "
            << built.evaluations << " signature evaluations ("
            << TextTable::num(built.savings() * 100.0, 1)
            << " % saved vs uniform, " << built.refined_blocks << "/"
            << built.total_blocks << " blocks refined)\n";

  // 3. Persist.
  const std::string artifact = "fttt_deployment_map.bin";
  save_facemap(built.map, artifact);

  // 4. Verify: reload and spot-check localization with the artifact.
  const FaceMap reloaded = load_facemap(artifact);
  std::cout << "artifact: " << artifact << " reloaded, " << reloaded.face_count()
            << " faces, Theorem-1 link fraction "
            << TextTable::num(reloaded.theorem1_link_fraction(), 3) << "\n";

  auto map = std::make_shared<const FaceMap>(std::move(reloaded));
  FtttTracker tracker(map, FtttTracker::Config{VectorMode::kExtended, eps});

  model.noise = NoiseKind::kBounded;
  model.bounded_amplitude = bounded_noise_amplitude(
      uncertainty_constant(eps, model.beta, model.sigma), model.beta);
  SamplingConfig sampling;
  sampling.model = model;
  sampling.sensing_range = 40.0;
  sampling.sample_period = 0.1;
  sampling.samples_per_group = k;
  const NoFaults faults;

  TextTable t({"checkpoint", "true position", "estimate", "error (m)"});
  int checkpoint = 0;
  for (Vec2 target : {Vec2{22.0, 37.0}, Vec2{51.0, 68.0}, Vec2{83.0, 19.0}}) {
    const GroupingSampling g =
        collect_group(sensors, sampling, faults, static_cast<std::uint64_t>(checkpoint),
                      0.0, [&](double) { return target; },
                      rng.substream(static_cast<std::uint64_t>(checkpoint)));
    const TrackEstimate e = tracker.localize(g);
    std::ostringstream truth_s;
    truth_s << target;
    std::ostringstream est_s;
    est_s << e.position;
    t.add_row({std::to_string(++checkpoint), truth_s.str(), est_s.str(),
               TextTable::num(distance(e.position, target), 2)});
  }
  std::cout << '\n' << t;

  // 5. Report.
  const std::size_t sig_bytes = map->face_count() * map->dimension();
  const std::size_t cell_bytes = map->grid().cell_count() * 4;
  std::cout << "\nstorage estimate: " << sig_bytes / 1024 << " KiB signatures + "
            << cell_bytes / 1024 << " KiB cell index for "
            << sensors.size() << " sensors\n";
  std::remove(artifact.c_str());
  return 0;
}
