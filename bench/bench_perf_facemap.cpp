// Perf harness for the plane-major face-map construction engine.
//
// Times the legacy per-cell FaceMap::build against FaceMapBuilder's
// span-fill rasterization on the Table 1 default scenario, plus the
// incremental fail/recover rebuild that re-rasterizes nothing — at n = 10
// and at the N = 64 churn shape, where assembling ~10k faces of 2016
// planes is the whole cost — and emits BENCH_facemap.json (ns/build,
// builds/s, speedup vs the legacy path, pool threads per row).
// tools/fttt_perfcmp.py diffs that file against the checked-in baseline
// (bench/baselines/BENCH_facemap.json) and gates CI on regressions;
// docs/perf.md has the full procedure.
//
//   bench_perf_facemap [--fast] [--json PATH] [--threads N]
//
// Before timing, the builder's map is checked bit-identical to the
// legacy build — ids, signatures, centroids, adjacency — including after
// a fail/recover round trip (which must also rasterize zero planes), at
// both roster sizes. A wrong-but-fast engine fails the bench, not just
// the unit suite.
//
// Single-thread rows run on a ThreadPool(1) so the gated speedups
// measure the algorithm, not the CI machine's core count; the _mt row
// runs on the selected pool and is informational only (no baseline
// speedup, so perfcmp skips it).
#include <memory>
#include <string>
#include <vector>

#include "core/facemap.hpp"
#include "core/facemap_builder.hpp"
#include "core/pairs.hpp"
#include "net/deployment.hpp"
#include "perf_harness.hpp"
#include "rf/uncertainty.hpp"

namespace {

using namespace fttt;

using bench::fail;

/// Bit-equivalence check (the executable-spec contract the unit suite
/// enforces in depth; re-verified here so timing never blesses a wrong map).
void expect_identical(const FaceMap& legacy, const FaceMap& plane,
                      const std::string& what) {
  if (legacy.face_count() != plane.face_count())
    fail(what + ": face_count mismatch");
  const std::size_t cells = legacy.grid().cell_count();
  for (std::size_t c = 0; c < cells; ++c)
    if (legacy.face_of_cell(c) != plane.face_of_cell(c))
      fail(what + ": cell_face mismatch at cell " + std::to_string(c));
  for (FaceId f = 0; f < legacy.face_count(); ++f) {
    const Face& a = legacy.face(f);
    const Face& b = plane.face(f);
    if (a.signature != b.signature || a.centroid.x != b.centroid.x ||
        a.centroid.y != b.centroid.y || a.cell_count != b.cell_count ||
        legacy.neighbors(f) != plane.neighbors(f))
      fail(what + ": face " + std::to_string(f) + " mismatch");
  }
}

/// Full build and a fail/recover round trip of `victim` against the
/// legacy division; the round trip must rasterize nothing.
void check_round_trip(const Deployment& nodes, double C, const Aabb& field, double cell,
                      NodeId victim, ThreadPool& pool, const std::string& what) {
  const FaceMap legacy = FaceMap::build(nodes, C, field, cell, pool);
  FaceMapBuilder builder(nodes, C, field, cell, pool);
  expect_identical(legacy, builder.build(), what + " full build");
  builder.deactivate(victim);
  (void)builder.build();
  builder.activate(victim);
  const FaceMap revived = builder.build();
  expect_identical(legacy, revived, what + " fail/recover round trip");
  if (builder.last_planes_rasterized() != 0)
    fail(what + " fail/recover round trip rasterized planes (cache miss)");
}

/// `builds` legacy per-cell builds of `nodes`.
bench::Variant legacy_builds(std::size_t builds, const Deployment& nodes, double C,
                             const Aabb& field, double cell, ThreadPool& pool) {
  return {[=, nodes = &nodes, field = &field, pool = &pool] {
    std::size_t acc = 0;
    for (std::size_t k = 0; k < builds; ++k)
      acc += FaceMap::build(*nodes, C, *field, cell, *pool).face_count();
    volatile std::size_t sink = acc;  // defeat whole-loop elision
    (void)sink;
  }};
}

/// `builds` incremental fail/recover rebuild pairs of `victim` on a warm
/// builder (both divisions' planes cached, so every build is pure
/// regroup and assembly — the path a churned fleet takes).
bench::Variant incremental_builds(std::size_t builds, const Deployment& nodes, double C,
                                  const Aabb& field, double cell, NodeId victim,
                                  ThreadPool& pool) {
  auto warm = std::make_shared<FaceMapBuilder>(nodes, C, field, cell, pool);
  (void)warm->build();
  warm->deactivate(victim);
  (void)warm->build();
  warm->activate(victim);
  (void)warm->build();  // cache now holds both divisions
  return {[=] {
    std::size_t acc = 0;
    for (std::size_t k = 0; k < builds; ++k) {
      warm->deactivate(victim);
      acc += warm->build().face_count();
      warm->activate(victim);
      acc += warm->build().face_count();
    }
    volatile std::size_t sink = acc;
    (void)sink;
    if (warm->last_planes_rasterized() != 0)
      fail("timed incremental rebuild rasterized planes (cache miss)");
  }};
}

}  // namespace

int main(int argc, char** argv) {
  bench::PerfBench bench("facemap", "build", argc, argv);
  const std::size_t builds = bench.fast() ? 2 : 5;  // builds per timed run

  // Table 1 default scenario: 100 x 100 m^2 field, n = 10 random nodes,
  // beta = 4, sigma_X = 6, eps = 1 dBm. Grid resolution 0.5 m — the
  // outdoor-testbed default and the finest production grid, where
  // construction cost actually bites. The engine's advantage *grows*
  // with resolution (span fills amortize the per-row work over more
  // cells while the legacy path stays strictly per-cell), so coarser
  // grids show smaller ratios; docs/perf.md tabulates the scaling.
  const Aabb field{{0.0, 0.0}, {100.0, 100.0}};
  const std::size_t sensors = 10;
  RngStream rng(42);
  const Deployment nodes = random_deployment(field, sensors, rng);
  const double C = uncertainty_constant(1.0, 4.0, 6.0);
  const double cell = 0.5;
  const NodeId victim = 3;  // fail/recover subject for the incremental row

  // The N = 64 churn shape (serve_churn_n64's): 100 x 100 m, 64 random
  // nodes, 1 m grid — ~10k cells that are nearly all faces, 2016 planes.
  const std::size_t sensors64 = 64;
  RngStream rng64(64);
  const Deployment nodes64 = random_deployment(field, sensors64, rng64);
  const double cell64 = 1.0;

  ThreadPool single(1);

  // Correctness gate before any timing: full build and a fail/recover
  // round trip must match the legacy division bit-for-bit, and the round
  // trip must hit the plane cache (zero rasterization).
  check_round_trip(nodes, C, field, cell, victim, single, "n=10");
  check_round_trip(nodes64, C, field, cell64, victim, single, "n=64");

  // A fresh builder per build so every plane-major run pays allocation
  // + all C(n,2) plane rasterizations, matching what the legacy row pays.
  const auto plane_builds = [&](ThreadPool& pool) {
    return bench::Variant{[&, pool = &pool] {
      std::size_t acc = 0;
      for (std::size_t k = 0; k < builds; ++k)
        acc += FaceMapBuilder(nodes, C, field, cell, *pool).build().face_count();
      volatile std::size_t sink = acc;
      (void)sink;
    }};
  };
  // Rows: legacy per-cell build (the reference); plane-major full build
  // on one thread (the gated algorithmic win) and on the selected pool
  // (informational); the incremental fail/recover rebuild, gated against
  // the legacy *full* rebuild it replaces; and both again at N = 64,
  // where rasterization is cached and the rebuild is pure assembly:
  // packing, grouping and emitting 2016 planes for ~10k faces.
  const std::vector<bench::SampleStats> t = bench.time({
      legacy_builds(builds, nodes, C, field, cell, single),
      plane_builds(single),
      plane_builds(bench.pool()),
      incremental_builds(builds, nodes, C, field, cell, victim, single),
      legacy_builds(builds, nodes64, C, field, cell64, single),
      incremental_builds(builds, nodes64, C, field, cell64, victim, single),
  });
  const double ops = static_cast<double>(builds);
  const auto speedup = [&](std::size_t ref, bench::SampleStats row) {
    return bench::Metrics{{"speedup_vs_scalar", t[ref].per(ops).median / row.median}};
  };
  bench.add({"legacy_full", 1, 1, t[0].per(ops)});
  bench.add({"plane_full", 1, 1, t[1].per(ops), speedup(0, t[1].per(ops))});
  bench.add({"plane_full_mt", 1, bench.threads(), t[2].per(ops), speedup(0, t[2].per(ops))});
  bench.add({"incremental_revive", 1, 1, t[3].per(2 * ops), speedup(0, t[3].per(2 * ops))});
  bench.add({"legacy_full_n64", 1, 1, t[4].per(ops)});
  bench.add({"incremental_revive_n64", 1, 1, t[5].per(2 * ops), speedup(4, t[5].per(2 * ops))});
  return bench.finish({{"sensors", static_cast<double>(sensors)},
                       {"cells", static_cast<double>(UniformGrid(field, cell).cell_count())},
                       {"pairs", static_cast<double>(pair_count(sensors))},
                       {"builds_per_run", ops}});
}
