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
//   bench_perf_facemap [--fast] [--json PATH] [--builds N] [--repeats R]
//
// Before timing, the builder's map is checked bit-identical to the
// legacy build — ids, signatures, centroids, adjacency — including after
// a fail/recover round trip (which must also rasterize zero planes), at
// both roster sizes. A wrong-but-fast engine fails the bench, not just
// the unit suite.
//
// Single-thread rows run on a ThreadPool(1) so the gated speedups
// measure the algorithm, not the CI machine's core count; the _mt row is
// informational only (no baseline speedup, so perfcmp skips it).
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/facemap.hpp"
#include "core/facemap_builder.hpp"
#include "core/pairs.hpp"
#include "net/deployment.hpp"
#include "rf/uncertainty.hpp"

namespace {

using namespace fttt;

struct Options {
  bool fast = false;
  std::string json_path = "BENCH_facemap.json";
  std::size_t builds = 5;   ///< builds per timed pass
  std::size_t repeats = 5;  ///< timed passes; best (min) wins
};

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--fast") {
      opt.fast = true;
      opt.builds = 2;
      opt.repeats = 3;
    } else if (arg == "--json" && i + 1 < argc) {
      opt.json_path = argv[++i];
    } else if (arg == "--builds" && i + 1 < argc) {
      opt.builds = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--repeats" && i + 1 < argc) {
      opt.repeats = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--fast] [--json PATH] [--builds N] [--repeats R]\n";
      std::exit(2);
    }
  }
  if (opt.builds == 0 || opt.repeats == 0) {
    std::cerr << "bench_perf_facemap: --builds/--repeats must be >= 1\n";
    std::exit(2);
  }
  return opt;
}

/// Best-of-R wall time of `fn` in seconds.
template <typename Fn>
double time_best(std::size_t repeats, Fn&& fn) {
  double best = 1e300;
  for (std::size_t r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

struct Row {
  std::string name;
  std::size_t batch;
  std::size_t threads;  ///< workers of the pool the row's builds ran on
  double ns_per_build;
  double throughput_per_s;
  double speedup_vs_legacy;  ///< < 0 means "not applicable" (the baseline row)
};

void fail(const std::string& message) {
  std::cerr << "bench_perf_facemap: " << message << "\n";
  std::exit(1);
}

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

/// Per-build seconds of the legacy per-cell build (best of R passes).
double time_legacy(const Options& opt, const Deployment& nodes, double C, const Aabb& field,
                   double cell, ThreadPool& pool) {
  volatile std::size_t sink = 0;  // defeat whole-loop elision
  const double s = time_best(opt.repeats, [&] {
    std::size_t acc = 0;
    for (std::size_t k = 0; k < opt.builds; ++k)
      acc += FaceMap::build(nodes, C, field, cell, pool).face_count();
    sink = acc;
  });
  (void)sink;
  return s / static_cast<double>(opt.builds);
}

/// Per-build seconds of an incremental fail/recover rebuild of `victim`
/// on a warm builder (both divisions' planes cached, so every build is
/// pure regroup and assembly — the path a churned fleet takes).
double time_incremental(const Options& opt, const Deployment& nodes, double C,
                        const Aabb& field, double cell, NodeId victim, ThreadPool& pool) {
  FaceMapBuilder warm(nodes, C, field, cell, pool);
  (void)warm.build();
  warm.deactivate(victim);
  (void)warm.build();
  warm.activate(victim);
  (void)warm.build();  // cache now holds both divisions
  volatile std::size_t sink = 0;
  const double s = time_best(opt.repeats, [&] {
    std::size_t acc = 0;
    for (std::size_t k = 0; k < opt.builds; ++k) {
      warm.deactivate(victim);
      acc += warm.build().face_count();
      warm.activate(victim);
      acc += warm.build().face_count();
    }
    sink = acc;
  });
  (void)sink;
  if (warm.last_planes_rasterized() != 0)
    fail("timed incremental rebuild rasterized planes (cache miss)");
  return s / (2.0 * static_cast<double>(opt.builds));
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

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

  std::vector<Row> rows;
  const double ops = static_cast<double>(opt.builds);
  volatile std::size_t sink = 0;  // defeat whole-loop elision
  const std::size_t pool_threads = ThreadPool::global().thread_count();

  // Legacy reference: per-cell signature_at, single thread.
  const double legacy_s = time_legacy(opt, nodes, C, field, cell, single);
  rows.push_back({"legacy_full", 1, 1, legacy_s * 1e9, 1.0 / legacy_s, -1.0});

  // Plane-major full build, single thread (the gated algorithmic win).
  // A fresh builder per build so every pass pays allocation + all
  // C(n,2) plane rasterizations, matching what the legacy row pays.
  const double plane_s = time_best(opt.repeats, [&] {
    std::size_t acc = 0;
    for (std::size_t k = 0; k < opt.builds; ++k) {
      FaceMapBuilder b(nodes, C, field, cell, single);
      acc += b.build().face_count();
    }
    sink = acc;
  }) / ops;
  rows.push_back({"plane_full", 1, 1, plane_s * 1e9, 1.0 / plane_s, legacy_s / plane_s});

  // Plane-major full build on the shared pool: informational (machine
  // dependent), never gated.
  const double mt_s = time_best(opt.repeats, [&] {
    std::size_t acc = 0;
    for (std::size_t k = 0; k < opt.builds; ++k) {
      FaceMapBuilder b(nodes, C, field, cell);
      acc += b.build().face_count();
    }
    sink = acc;
  }) / ops;
  rows.push_back({"plane_full_mt", 1, pool_threads, mt_s * 1e9, 1.0 / mt_s, legacy_s / mt_s});

  // Incremental fail/recover rebuild: warm plane cache, so each build is
  // pure regroup — the path DistributedTracker::on_node_failed takes.
  // Gated against the legacy *full* rebuild it replaces.
  const double incr_s = time_incremental(opt, nodes, C, field, cell, victim, single);
  rows.push_back(
      {"incremental_revive", 1, 1, incr_s * 1e9, 1.0 / incr_s, legacy_s / incr_s});

  // The same rebuild at N = 64, gated against the legacy build of that
  // roster. Rasterization is cached, so this row is assembly: packing,
  // grouping and emitting 2016 planes for ~10k faces.
  const double legacy64_s = time_legacy(opt, nodes64, C, field, cell64, single);
  const double incr64_s = time_incremental(opt, nodes64, C, field, cell64, victim, single);
  rows.push_back({"incremental_revive_n64", 1, 1, incr64_s * 1e9, 1.0 / incr64_s,
                  legacy64_s / incr64_s});
  (void)sink;

  // Human-readable report.
  const UniformGrid grid(field, cell);
  std::cout << "facemap perf (Table 1 scenario: n=" << sensors
            << ", cells=" << grid.cell_count() << ", pairs=" << pair_count(sensors)
            << ", builds/pass=" << opt.builds
            << ", threads=" << ThreadPool::global().thread_count() << ")\n";
  for (const Row& r : rows) {
    std::cout << "  " << r.name << " (" << r.threads << " thr): " << r.ns_per_build / 1e6
              << " ms/build, "
              << r.throughput_per_s << " builds/s";
    if (r.speedup_vs_legacy > 0.0)
      std::cout << ", speedup " << r.speedup_vs_legacy << "x";
    std::cout << "\n";
  }

  // Machine-readable trajectory point. Keys mirror BENCH_matcher.json so
  // fttt_perfcmp.py gates both with one code path: "ns_per_localization"
  // here is ns per (re)build, "speedup_vs_scalar" is speedup vs the
  // legacy per-cell build.
  std::ofstream json(opt.json_path);
  if (!json) fail("cannot write " + opt.json_path);
  json.precision(6);
  json << "{\n"
       << "  \"bench\": \"facemap\",\n"
       << "  \"scenario\": {\"sensors\": " << sensors
       << ", \"cells\": " << grid.cell_count()
       << ", \"pairs\": " << pair_count(sensors)
       << ", \"builds_per_pass\": " << opt.builds
       << ", \"threads\": " << ThreadPool::global().thread_count()
       << ", \"fast\": " << (opt.fast ? "true" : "false") << "},\n"
       << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    json << "    {\"name\": \"" << r.name << "\", \"batch\": " << r.batch
         << ", \"threads\": " << r.threads
         << ", \"ns_per_localization\": " << r.ns_per_build
         << ", \"throughput_per_s\": " << r.throughput_per_s;
    if (r.speedup_vs_legacy > 0.0)
      json << ", \"speedup_vs_scalar\": " << r.speedup_vs_legacy;
    json << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "wrote " << opt.json_path << "\n";
  return 0;
}
