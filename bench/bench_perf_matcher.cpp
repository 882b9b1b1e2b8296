// Perf harness for the batched SoA matching engine.
//
// Unlike the table/figure benches this one is machine-readable: it times
// scalar reference matching vs the SoA batch engine on the Table 1
// default scenario and emits BENCH_matcher.json (ns/localization,
// throughput, speedup vs scalar). tools/fttt_perfcmp.py diffs that file
// against the checked-in baseline (bench/baselines/BENCH_matcher.json)
// and gates CI on regressions; docs/perf.md has the full procedure.
//
//   bench_perf_matcher [--fast] [--json PATH] [--threads N]
//
// The SoA engine runs on the selected pool (batches of 256 fan out over
// it); the scalar matchers are single-threaded. Before timing, every
// batch result is checked against the scalar reference — a
// wrong-but-fast engine fails the bench, not just the unit suite.
#include <memory>
#include <string>
#include <vector>

#include "core/batch_matcher.hpp"
#include "core/matcher.hpp"
#include "net/deployment.hpp"
#include "perf_harness.hpp"
#include "rf/uncertainty.hpp"

int main(int argc, char** argv) {
  using namespace fttt;
  using bench::fail;
  bench::PerfBench bench("matcher", "loc", argc, argv);
  const std::size_t threads = bench.threads();

  // Table 1 default scenario: 100 x 100 m^2 field, n = 10 random nodes,
  // beta = 4, sigma_X = 6, eps = 1 dBm; 2 m preprocessing grid (the bench
  // suite default).
  const Aabb field{{0.0, 0.0}, {100.0, 100.0}};
  const std::size_t sensors = 10;
  RngStream rng(42);
  const Deployment nodes = random_deployment(field, sensors, rng);
  const double C = uncertainty_constant(1.0, 4.0, 6.0);
  const auto map =
      std::make_shared<const FaceMap>(FaceMap::build(nodes, C, field, 2.0));

  const std::vector<SamplingVector> workload =
      bench::signature_workload(*map, bench.fast() ? 512 : 2048, 20120625);
  const ExhaustiveMatcher scalar;
  const BatchMatcher batched(map, BatchMatcher::Config{}, bench.pool());

  // Correctness gate before any timing.
  const std::vector<MatchResult> batch_results = batched.match(workload);
  for (std::size_t i = 0; i < workload.size(); ++i) {
    const MatchResult ref = scalar.match(*map, workload[i]);
    if (ref.face != batch_results[i].face ||
        ref.similarity != batch_results[i].similarity ||
        ref.tied_faces != batch_results[i].tied_faces)
      fail("batch/scalar mismatch at vector " + std::to_string(i));
  }

  // Heuristic path warm starts: the previous vector's optimum
  // (consecutive tracking).
  std::vector<FaceId> starts(workload.size(), map->face_at(field.center()));
  for (std::size_t i = 1; i < workload.size(); ++i) starts[i] = batch_results[i - 1].face;

  // Variants: the scalar reference (one vector at a time against the
  // row-of-structs map), the SoA engine at the contract batch sizes
  // (1 = per-query overhead floor, 256 = the acceptance point with pool
  // fan-out), then Algorithm 2's hill climb, scalar vs SoA column walk.
  volatile double sink = 0.0;  // defeat whole-loop elision
  const auto soa = [&](std::size_t batch_size) {
    return bench::Variant{[&, batch_size] {
      double acc = 0.0;
      std::vector<SamplingVector> chunk;
      for (std::size_t lo = 0; lo < workload.size(); lo += batch_size) {
        const std::size_t hi = std::min(workload.size(), lo + batch_size);
        chunk.assign(workload.begin() + static_cast<std::ptrdiff_t>(lo),
                     workload.begin() + static_cast<std::ptrdiff_t>(hi));
        for (const MatchResult& r : batched.match(chunk)) acc += r.similarity;
      }
      sink = acc;
    }};
  };
  const HeuristicMatcher scalar_heuristic;
  const std::vector<bench::SampleStats> t = bench.time({
      {[&] {
        double acc = 0.0;
        for (const SamplingVector& vd : workload) acc += scalar.match(*map, vd).similarity;
        sink = acc;
      }},
      soa(1),
      soa(16),
      soa(256),
      {[&] {
        double acc = 0.0;
        for (std::size_t i = 0; i < workload.size(); ++i)
          acc += scalar_heuristic.match(*map, workload[i], starts[i]).similarity;
        sink = acc;
      }},
      {[&] {
        double acc = 0.0;
        for (std::size_t i = 0; i < workload.size(); ++i)
          acc += batched.climb(workload[i], starts[i]).similarity;
        sink = acc;
      }},
  });
  (void)sink;

  const double n = static_cast<double>(workload.size());
  const auto speedup = [&](std::size_t ref, std::size_t v) {
    return bench::Metrics{{"speedup_vs_scalar", t[ref].median / t[v].median}};
  };
  bench.add({"exhaustive_scalar", 1, 1, t[0].per(n)});
  bench.add({"batch_soa", 1, threads, t[1].per(n), speedup(0, 1)});
  bench.add({"batch_soa", 16, threads, t[2].per(n), speedup(0, 2)});
  bench.add({"batch_soa", 256, threads, t[3].per(n), speedup(0, 3)});
  bench.add({"heuristic_scalar", 1, 1, t[4].per(n)});
  bench.add({"climb_soa", 1, threads, t[5].per(n), speedup(4, 5)});
  return bench.finish({{"sensors", static_cast<double>(sensors)},
                       {"faces", static_cast<double>(map->face_count())},
                       {"dimension", static_cast<double>(map->dimension())},
                       {"vectors", n}});
}
