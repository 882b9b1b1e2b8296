// Perf harness for the sublinear large-N matching path.
//
// Times the exhaustive scalar spec, the flat SoA batch engine, and the
// hierarchical descent (coarse tier + signature index) over deployments
// of N in {16, 32, 64, 100} sensors on the Table 1 field, and emits
// BENCH_largeN.json keyed (name, batch=N). The hier rows carry
// `speedup_vs_scalar` (gated by fttt_perfcmp.py's ratio gate) and
// `bytes_per_face` — the coarse tier + index memory budget per face,
// gated lower-is-better so the footprint cannot silently grow. The
// flat-engine rows double as in-file references: `speedup_vs_batch` on
// each hier row records the headline sublinearity claim (>= 10x at 64
// sensors; docs/perf.md "Large-N matching").
//
// Those rows time signature_workload queries — a face signature with
// three flips — which prune hard. Served frames do not: the
// `batch_soa_noisy` / `hier_noisy` rows at N <= 64 time the same two
// engines on SyntheticWorkload frames (bounded channel, 20% report
// dropout, built as the serve shard builds them), so `speedup_vs_batch`
// on `hier_noisy` is what the descent buys live traffic. The batch
// fan-out hides the single descent's own fan-out, so `hier_noisy_single`
// at N = 32 and 64 times the same frames one match_one() at a time — the
// shape of a cold serve frame, whose candidate rescore fans out itself.
//
//   bench_perf_largeN [--fast] [--json PATH] [--threads N]
//
// The flat and hierarchical BatchMatchers run on the selected pool; the
// scalar spec is single-threaded.
//
// Before timing, the descent's argmax is checked bit-identical to the
// exhaustive scalar spec on every deployment shape of the acceptance
// contract — random scatter, lattice, and the degenerate cross (heavy
// tie pressure) — plus an all-'*' vector per shape. A wrong-but-fast
// tier fails the bench, not just the unit suite.
#include <memory>
#include <string>
#include <vector>

#include "core/batch_matcher.hpp"
#include "core/facemap_builder.hpp"
#include "core/hier_facemap.hpp"
#include "core/matcher.hpp"
#include "core/sampling_vector.hpp"
#include "core/signature_index.hpp"
#include "net/deployment.hpp"
#include "perf_harness.hpp"
#include "rf/uncertainty.hpp"
#include "serve/workload.hpp"
#include "sim/scenario_build.hpp"

namespace {

using namespace fttt;
using bench::fail;

SamplingVector all_star(const FaceMap& map) {
  SamplingVector vd;
  vd.value.assign(map.dimension(), 0.0);
  vd.known.assign(map.dimension(), false);
  return vd;
}

/// `n` served-frame vectors on `roster`: SyntheticWorkload frames of 64
/// tracks under the default bounded channel (whose division constant the
/// timed maps use) with 20% report dropout, built into basic-mode vectors
/// as the serve shard builds them. Deterministic in `seed`.
std::vector<SamplingVector> served_workload(const Deployment& roster, const Aabb& field,
                                            std::size_t n, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.field = field;
  cfg.channel = Channel::kBounded;
  SyntheticWorkload::Config frames;
  frames.tracks = 64;
  frames.drop_probability = 0.2;
  frames.epoch_period = cfg.localization_period;
  frames.sampling = scenario_sampling(cfg, resolve_channel(cfg));
  const SyntheticWorkload source(roster, field, frames, seed);
  std::vector<SamplingVector> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(build_sampling_vector(source.frame(i % frames.tracks, i / frames.tracks).group,
                                        cfg.eps, VectorMode::kBasic, cfg.missing));
  return out;
}

/// Argmax bit-equivalence of descend() vs the scalar spec on `map`.
void check_equivalence(const FaceMap& map, const BatchMatcher& hier,
                       const std::vector<SamplingVector>& vectors,
                       const char* shape) {
  const ExhaustiveMatcher spec;
  for (std::size_t i = 0; i < vectors.size(); ++i) {
    const MatchResult want = spec.match(map, vectors[i]);
    const MatchResult got = hier.descend(vectors[i]);
    if (want.face != got.face || want.similarity != got.similarity ||
        want.tied_faces != got.tied_faces ||
        want.position.x != got.position.x || want.position.y != got.position.y)
      fail(std::string("descend/spec mismatch (") + shape + ", vector " +
           std::to_string(i) + ")");
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::PerfBench bench("largeN", "loc", argc, argv);
  const bool fast = bench.fast();
  ThreadPool& pool = bench.pool();
  const std::size_t threads = bench.threads();

  const Aabb field{{0.0, 0.0}, {100.0, 100.0}};
  const double C = uncertainty_constant(1.0, 4.0, 6.0);
  const double cell = 1.0;

  /// The flat engine plus the hierarchical descent over one roster.
  struct Engines {
    std::shared_ptr<const FaceMap> map;
    std::shared_ptr<const HierFaceMap> hier_map;
    std::shared_ptr<const SignatureIndex> index;
    BatchMatcher flat;
    BatchMatcher hier;
  };
  const auto engines = [&](const Deployment& nodes) {
    FaceMapBuilder builder(nodes, C, field, cell, pool);
    const auto map = std::make_shared<const FaceMap>(builder.build());
    const auto hier_map = std::make_shared<const HierFaceMap>(builder.build_hierarchy());
    const auto table =
        std::make_shared<const SignatureTable>(builder.take_signature_table());
    const auto index =
        std::make_shared<const SignatureIndex>(SignatureIndex::build(*hier_map));
    Engines e{map, hier_map, index, BatchMatcher(map, table, BatchMatcher::Config{}, pool),
              BatchMatcher(map, table, BatchMatcher::Config{}, pool)};
    e.hier.attach_hierarchy(hier_map, index);
    return e;
  };

  // Shape gate at a moderate N: the descent must be spec-identical on
  // every deployment geometry before any large-N timing is trusted.
  {
    RngStream rng(7);
    std::vector<std::pair<const char*, Deployment>> shapes;
    shapes.emplace_back("random", random_deployment(field, 24, rng));
    shapes.emplace_back("lattice", grid_deployment(field, 25));
    shapes.emplace_back("cross", cross_deployment(field.center(), 12.0));
    for (auto& [shape, nodes] : shapes) {
      const Engines e = engines(nodes);
      std::vector<SamplingVector> gate = bench::signature_workload(*e.map, fast ? 8 : 24, 11);
      gate.push_back(all_star(*e.map));
      check_equivalence(*e.map, e.hier, gate, shape);
    }
  }

  std::vector<std::size_t> sizes{16, 32, 64, 100};
  if (fast) sizes.pop_back();  // N=100 is a nightly/full-mode point

  for (const std::size_t sensors : sizes) {
    RngStream rng(1000 + sensors);
    const Deployment roster = random_deployment(field, sensors, rng);
    const Engines e = engines(roster);
    const FaceMap& map = *e.map;

    // Per-N gate: a few random and served vectors plus all-'*' straight
    // against the scalar spec at this exact N.
    const bool noisy = sensors <= 64;
    std::vector<SamplingVector> gate = bench::signature_workload(map, fast ? 4 : 8, 2000 + sensors);
    if (noisy)
      for (SamplingVector& vd : served_workload(roster, field, fast ? 4 : 8, 2500 + sensors))
        gate.push_back(std::move(vd));
    gate.push_back(all_star(map));
    check_equivalence(map, e.hier, gate, "timed-N");

    // Scale the timed workload down as per-vector cost grows; the
    // scalar spec and the flat engine additionally cap their own
    // vector counts (a full scan costs the same for every vector, so a
    // subset estimates per-localization cost; the descent's cost
    // varies per vector, so it runs the whole workload) and all rows
    // normalize per localization.
    const std::size_t vectors = std::max<std::size_t>(64, (fast ? 4096u : 16384u) / sensors);
    const std::vector<SamplingVector> workload = bench::signature_workload(map, vectors, 3000 + sensors);
    const std::size_t scalar_cap =
        std::min<std::size_t>(workload.size(), sensors >= 64 ? (fast ? 8 : 16) : 64);
    const std::size_t flat_cap = std::min<std::size_t>(workload.size(), 128);
    const std::vector<SamplingVector> flat_work(workload.begin(),
                                                workload.begin() + static_cast<std::ptrdiff_t>(flat_cap));

    // Served traffic: the descent runs as many vectors as on the
    // signature workload, the flat scan a flat_cap leading subset; each
    // row normalizes per localization.
    const std::vector<SamplingVector> noisy_work =
        noisy ? served_workload(roster, field, vectors, 3500 + sensors)
              : std::vector<SamplingVector>{};
    const std::vector<SamplingVector> noisy_flat_work(
        noisy_work.begin(),
        noisy_work.begin() + static_cast<std::ptrdiff_t>(std::min(noisy_work.size(), flat_cap)));

    volatile double sink = 0.0;
    const ExhaustiveMatcher spec;
    std::vector<bench::Variant> variants = {
        {[&] {
          double acc = 0.0;
          for (std::size_t i = 0; i < scalar_cap; ++i)
            acc += spec.match(map, workload[i]).similarity;
          sink = acc;
        }},
        {[&] {
          double acc = 0.0;
          for (const MatchResult& m : e.flat.match(flat_work)) acc += m.similarity;
          sink = acc;
        }},
        {[&] {
          double acc = 0.0;
          for (const MatchResult& m : e.hier.match(workload)) acc += m.similarity;
          sink = acc;
        }},
    };
    const bool single = noisy && sensors >= 32;
    if (noisy) {
      variants.push_back({[&] {
        double acc = 0.0;
        for (const MatchResult& m : e.flat.match(noisy_flat_work)) acc += m.similarity;
        sink = acc;
      }});
      variants.push_back({[&] {
        double acc = 0.0;
        for (const MatchResult& m : e.hier.match(noisy_work)) acc += m.similarity;
        sink = acc;
      }});
    }
    if (single) {
      variants.push_back({[&] {
        double acc = 0.0;
        for (const SamplingVector& vd : noisy_work) acc += e.hier.match_one(vd).similarity;
        sink = acc;
      }});
    }
    const std::vector<bench::SampleStats> t = bench.time(variants);
    (void)sink;

    const bench::SampleStats scalar = t[0].per(static_cast<double>(scalar_cap));
    const bench::SampleStats flat = t[1].per(static_cast<double>(flat_cap));
    const bench::SampleStats hier = t[2].per(static_cast<double>(workload.size()));
    const double bytes_per_face = static_cast<double>(e.hier_map->bytes() + e.index->bytes()) /
                                  static_cast<double>(map.face_count());
    bench.add({"exhaustive_scalar", sensors, 1, scalar});
    bench.add({"batch_soa", sensors, threads, flat,
               {{"speedup_vs_scalar", scalar.median / flat.median}}});
    bench.add({"hier", sensors, threads, hier,
               {{"speedup_vs_scalar", scalar.median / hier.median},
                {"speedup_vs_batch", flat.median / hier.median},
                {"bytes_per_face", bytes_per_face}}});
    if (noisy) {
      const bench::SampleStats flat_noisy = t[3].per(static_cast<double>(noisy_flat_work.size()));
      const bench::SampleStats hier_noisy = t[4].per(static_cast<double>(noisy_work.size()));
      bench.add({"batch_soa_noisy", sensors, threads, flat_noisy});
      bench.add({"hier_noisy", sensors, threads, hier_noisy,
                 {{"speedup_vs_batch", flat_noisy.median / hier_noisy.median}}});
      if (single) {
        const bench::SampleStats one = t[5].per(static_cast<double>(noisy_work.size()));
        bench.add({"hier_noisy_single", sensors, threads, one,
                   {{"speedup_vs_batch", flat_noisy.median / one.median}}});
      }
    }
  }
  return bench.finish({{"field", 100.0}, {"cell", cell}});
}
