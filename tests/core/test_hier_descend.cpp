// Bit-equivalence of the hierarchical descent (BatchMatcher::descend)
// against the exhaustive executable spec — the fourth matcher tier's
// acceptance contract (docs/matching.md): same face, same tie set, same
// similarity and position bits, on every deployment shape. Only
// faces_examined may differ (it honestly counts rescored faces).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.hpp"
#include "core/batch_matcher.hpp"
#include "core/facemap.hpp"
#include "core/facemap_builder.hpp"
#include "core/facemap_cache.hpp"
#include "core/hier_facemap.hpp"
#include "core/matcher.hpp"
#include "core/sampling_vector.hpp"
#include "core/signature_index.hpp"
#include "core/tracker.hpp"
#include "net/deployment.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"
#include "rf/uncertainty.hpp"
#include "serve/workload.hpp"
#include "sim/scenario_build.hpp"

namespace fttt {
namespace {

const Aabb kField{{0.0, 0.0}, {60.0, 60.0}};
const double kC = uncertainty_constant(1.0, 4.0, 6.0);

std::shared_ptr<const FaceMap> build_map(const Deployment& nodes) {
  return std::make_shared<const FaceMap>(FaceMap::build(nodes, kC, kField, 1.5));
}

/// The three deployment shapes of the acceptance contract: random
/// scatter, lattice, and a degenerate collinear/cross arrangement
/// (coincident bisectors produce heavily tied faces).
std::vector<Deployment> contract_deployments(std::size_t sensors,
                                             std::uint64_t seed) {
  RngStream rng(seed);
  std::vector<Deployment> out;
  out.push_back(random_deployment(kField, sensors, rng));
  out.push_back(grid_deployment(kField, sensors));
  out.push_back(cross_deployment(kField.center(), 12.0));
  return out;
}

SamplingVector noisy_vector(const FaceMap& map, RngStream& rng, bool extended) {
  const Face& f = map.faces()[rng.uniform_index(map.face_count())];
  SamplingVector vd;
  vd.known.assign(map.dimension(), true);
  vd.value.reserve(map.dimension());
  for (SigValue v : f.signature) vd.value.push_back(static_cast<double>(v));
  for (int i = 0; i < 4; ++i) {
    const std::size_t c = rng.uniform_index(vd.value.size());
    vd.value[c] = extended ? rng.uniform(-1.0, 1.0)
                           : static_cast<double>(static_cast<int>(rng.uniform_index(3)) - 1);
  }
  for (std::size_t c = 0; c < vd.known.size(); ++c)
    if (rng.bernoulli(0.1)) vd.known[c] = false;
  return vd;
}

SamplingVector all_star_vector(const FaceMap& map) {
  SamplingVector vd;
  vd.value.assign(map.dimension(), 0.0);
  vd.known.assign(map.dimension(), false);
  return vd;
}

/// Argmax fields only: faces_examined legitimately differs (the descent
/// counts the faces it actually rescored).
void expect_argmax_identical(const MatchResult& spec, const MatchResult& got,
                             const char* what) {
  EXPECT_EQ(spec.face, got.face) << what;
  EXPECT_EQ(spec.similarity, got.similarity) << what;
  EXPECT_EQ(spec.tied_faces, got.tied_faces) << what;
  EXPECT_EQ(spec.position.x, got.position.x) << what;
  EXPECT_EQ(spec.position.y, got.position.y) << what;
}

TEST(HierDescend, BitIdenticalToExhaustiveAcrossDeploymentShapes) {
  const ExhaustiveMatcher reference;
  for (const std::size_t sensors : {5u, 9u}) {
    for (Deployment& nodes : contract_deployments(sensors, sensors * 31)) {
      const auto map = build_map(nodes);
      BatchMatcher matcher(map);
      matcher.build_hierarchy();
      ASSERT_TRUE(matcher.has_hierarchy());
      RngStream rng(sensors * 7 + nodes.size());
      for (int i = 0; i < 48; ++i) {
        const SamplingVector vd = noisy_vector(*map, rng, i % 2 == 0);
        expect_argmax_identical(reference.match(*map, vd), matcher.descend(vd),
                                "descend");
        // match_one routes through the descent once a hierarchy exists.
        expect_argmax_identical(reference.match(*map, vd), matcher.match_one(vd),
                                "match_one routing");
      }
    }
  }
}

TEST(HierDescend, AllStarVectorDegradesToFullScanTyingEveryFace) {
  const auto map = build_map(contract_deployments(7, 3).front());
  BatchMatcher matcher(map);
  matcher.build_hierarchy();
  const SamplingVector vd = all_star_vector(*map);
  const MatchResult r = matcher.descend(vd);
  expect_argmax_identical(ExhaustiveMatcher{}.match(*map, vd), r, "all-star");
  EXPECT_EQ(r.tied_faces.size(), map->face_count());
  // Nothing prunes when every bound is zero: the descent *is* the spec's
  // full scan, face for face.
  EXPECT_EQ(r.faces_examined, map->face_count());
}

TEST(HierDescend, ExactSignatureVectorsTieBreakLikeTheSpec) {
  // Exact face signatures maximize tie pressure (similarity 1/sqrt(0+...)
  // collisions across symmetric faces); the tie set and the tie-mean
  // position must come out bit-identical.
  const ExhaustiveMatcher reference;
  for (Deployment& nodes : contract_deployments(6, 17)) {
    const auto map = build_map(nodes);
    BatchMatcher matcher(map);
    matcher.build_hierarchy();
    for (FaceId id = 0; id < map->face_count(); id += 3) {
      SamplingVector vd;
      vd.known.assign(map->dimension(), true);
      for (SigValue v : map->face(id).signature)
        vd.value.push_back(static_cast<double>(v));
      expect_argmax_identical(reference.match(*map, vd), matcher.descend(vd),
                              "exact signature");
    }
  }
}

TEST(HierDescend, BatchMatchRoutesThroughDescentAboveAndBelowParallelCutoff) {
  const auto map = build_map(contract_deployments(8, 29).front());
  BatchMatcher flat(map);
  // This map sits below the default fan-out threshold, so `hier` runs
  // every batch on the caller; `fanned` fans every multi-vector batch out
  // over the pool. Both resolve through per-slot descent scratch.
  BatchMatcher hier(map);
  hier.build_hierarchy();
  BatchMatcher::Config fan_out;
  fan_out.min_cells_per_helper = 1;
  BatchMatcher fanned(map, fan_out);
  fanned.attach_hierarchy(hier.shared_hierarchy(), hier.shared_index());
  RngStream rng(71);
  for (const std::size_t batch_size : {std::size_t{3}, std::size_t{64}}) {
    std::vector<SamplingVector> batch;
    for (std::size_t i = 0; i < batch_size; ++i)
      batch.push_back(noisy_vector(*map, rng, i % 3 == 0));
    batch.front() = all_star_vector(*map);
    const std::vector<MatchResult> expect = flat.match(batch);
    for (const BatchMatcher* m : {&hier, &fanned}) {
      const std::vector<MatchResult> got = m->match(batch);
      ASSERT_EQ(got.size(), expect.size());
      for (std::size_t i = 0; i < got.size(); ++i)
        expect_argmax_identical(expect[i], got[i], "batch item");
    }
  }
}

TEST(HierDescend, AttachSharesOneTierAndValidatesMismatch) {
  const auto map_a = build_map(contract_deployments(7, 5).front());
  const auto map_b = build_map(contract_deployments(9, 6).front());
  BatchMatcher owner(map_a);
  owner.build_hierarchy();
  BatchMatcher borrower(map_a);
  borrower.attach_hierarchy(owner.shared_hierarchy(), owner.shared_index());
  ASSERT_TRUE(borrower.has_hierarchy());
  EXPECT_EQ(borrower.shared_hierarchy().get(), owner.shared_hierarchy().get());
  RngStream rng(8);
  for (int i = 0; i < 8; ++i) {
    const SamplingVector vd = noisy_vector(*map_a, rng, i % 2 == 0);
    expect_argmax_identical(owner.descend(vd), borrower.descend(vd), "shared");
  }
  BatchMatcher other(map_b);
  EXPECT_THROW(
      other.attach_hierarchy(owner.shared_hierarchy(), owner.shared_index()),
      std::invalid_argument);
  EXPECT_THROW(other.attach_hierarchy(nullptr, owner.shared_index()),
               std::invalid_argument);
}

TEST(HierDescend, DescendWithoutHierarchyThrows) {
  const BatchMatcher matcher(build_map(contract_deployments(5, 2).front()));
  SamplingVector vd;
  vd.value.assign(matcher.table().dimension(), 0.0);
  vd.known.assign(matcher.table().dimension(), true);
  EXPECT_THROW(matcher.descend(vd), std::logic_error);
}

TEST(HierDescend, FailReviveRebuildKeepsTheTierBitEquivalent) {
  // Churn path: after every incremental rebuild the tier re-derived from
  // the builder matches a from-scratch build of the same active set —
  // and descent over it stays spec-identical.
  RngStream rng(91);
  const Deployment roster = random_deployment(kField, 9, rng);
  FaceMapBuilder builder(roster, kC, kField, 1.5);

  const auto check = [&](const Deployment& active) {
    const auto map = std::make_shared<const FaceMap>(builder.build());
    const HierFaceMap hier = builder.build_hierarchy();
    const SignatureTable table = builder.take_signature_table();
    const SignatureTable fresh(
        *std::make_shared<const FaceMap>(FaceMap::build(active, kC, kField, 1.5)));
    const HierFaceMap expect = HierFaceMap::build(fresh);
    ASSERT_EQ(hier.face_count(), expect.face_count());
    ASSERT_EQ(hier.level_count(), expect.level_count());
    for (std::size_t l = 0; l < hier.level_count(); ++l)
      for (std::size_t c = 0; c < hier.dimension(); ++c)
        for (std::size_t n = 0; n < hier.node_count(l); ++n)
          ASSERT_EQ(hier.mask(l, c, n), expect.mask(l, c, n))
              << "level " << l << " pair " << c << " node " << n;

    BatchMatcher matcher(map, std::make_shared<const SignatureTable>(
                                  SignatureTable(*map)));
    matcher.build_hierarchy();
    const ExhaustiveMatcher reference;
    RngStream vrng(active.size() * 13);
    for (int i = 0; i < 12; ++i) {
      const SamplingVector vd = noisy_vector(*map, vrng, i % 2 == 0);
      expect_argmax_identical(reference.match(*map, vd), matcher.descend(vd),
                              "churned descend");
    }
  };

  check(builder.active_deployment());
  builder.deactivate(3);
  builder.deactivate(6);
  check(builder.active_deployment());
  builder.activate(3);
  check(builder.active_deployment());
}

TEST(HierDescend, FaceMapCacheEntryCarriesTheTier) {
  FaceMapCache cache(4);
  RngStream rng(55);
  const Deployment nodes = random_deployment(kField, 8, rng);
  const FaceMapCache::Entry entry = cache.get_or_build(nodes, kC, kField, 1.5);
  ASSERT_NE(entry.hier, nullptr);
  ASSERT_NE(entry.index, nullptr);
  EXPECT_EQ(entry.hier->face_count(), entry.map->face_count());
  EXPECT_EQ(entry.index->tile_count(), entry.hier->node_count(0));
  // The cached tier attaches straight onto a matcher over the same entry.
  BatchMatcher matcher(entry.map, entry.table);
  matcher.attach_hierarchy(entry.hier, entry.index);
  const ExhaustiveMatcher reference;
  const auto map = entry.map;
  RngStream vrng(56);
  for (int i = 0; i < 8; ++i) {
    const SamplingVector vd = noisy_vector(*map, vrng, i % 2 == 0);
    expect_argmax_identical(reference.match(*map, vd), matcher.descend(vd),
                            "cache tier");
  }
}

TEST(HierDescend, HierarchicalTrackerMatchesFlatTrackerExactly) {
  const auto map = build_map(contract_deployments(8, 77).front());
  FtttTracker::Config flat_cfg;
  FtttTracker::Config hier_cfg;
  hier_cfg.hierarchical = true;
  // Noisy vectors drawn anywhere in the field: most climbs end below the
  // floor, so the exhaustive path (flat sweep vs descent) runs heavily.
  FtttTracker flat(map, flat_cfg);
  FtttTracker hier(map, hier_cfg);
  RngStream rng(12);
  for (int i = 0; i < 24; ++i) {
    const SamplingVector vd = noisy_vector(*map, rng, false);
    const TrackEstimate a = flat.localize(vd);
    const TrackEstimate b = hier.localize(vd);
    EXPECT_EQ(a.face, b.face);
    EXPECT_EQ(a.similarity, b.similarity);
    EXPECT_EQ(a.position.x, b.position.x);
    EXPECT_EQ(a.position.y, b.position.y);
  }
  EXPECT_GT(flat.stats().fallbacks, 0u);
}

/// Random N-node roster on the serving shape of the benchmark's churn
/// workload: 100 x 100 m field, 1 m grid, bounded channel (at N = 64 the
/// tier has two levels, so child expansions run, not just tile rescores).
struct ServeShape {
  ScenarioConfig scenario;
  ResolvedChannel channel;
  Deployment roster;
};

ServeShape serve_shape(std::size_t sensors, std::uint64_t seed) {
  ServeShape s;
  s.scenario.channel = Channel::kBounded;
  s.scenario.grid_cell = 1.0;
  s.scenario.seed = seed;
  s.channel = resolve_channel(s.scenario);
  RngStream rng(seed);
  s.roster = random_deployment(s.scenario.field, sensors, rng);
  return s;
}

/// Basic-mode vectors of served frames: SyntheticWorkload tracks with 20%
/// report dropout, built as the serve shard builds them.
std::vector<SamplingVector> served_vectors(const ServeShape& s, std::size_t tracks,
                                           std::size_t epochs) {
  SyntheticWorkload::Config cfg;
  cfg.tracks = tracks;
  cfg.drop_probability = 0.2;
  cfg.sampling = scenario_sampling(s.scenario, s.channel);
  const SyntheticWorkload source(s.roster, s.scenario.field, cfg, s.scenario.seed);
  std::vector<SamplingVector> out;
  for (std::uint64_t e = 0; e < epochs; ++e)
    for (TrackId t = 0; t < tracks; ++t)
      out.push_back(build_sampling_vector(source.frame(t, e).group, s.scenario.eps,
                                          VectorMode::kBasic, s.scenario.missing));
  return out;
}

TEST(HierDescend, DifferentialAgainstFlatAndSpecOnServedRosters) {
  // descend == match_one (flat) == ExhaustiveMatcher on every argmax
  // field, single and batch, at 1 and 4 pool threads. Inputs: served
  // frames with dropout, all-'*', all-0, and the last face's signature
  // (its tile is the partial last one) with and without flips.
  ThreadPool one(1);
  ThreadPool four(4);
  const ExhaustiveMatcher spec;
  for (const std::size_t sensors : {std::size_t{32}, std::size_t{64}}) {
    const ServeShape shape = serve_shape(sensors, 9100 + sensors);
    FaceMapBuilder builder(shape.roster, shape.channel.C, shape.scenario.field,
                           shape.scenario.grid_cell, four);
    const auto map = std::make_shared<const FaceMap>(builder.build());
    const auto hier = std::make_shared<const HierFaceMap>(builder.build_hierarchy());
    const auto table = std::make_shared<const SignatureTable>(builder.take_signature_table());
    const auto index = std::make_shared<const SignatureIndex>(SignatureIndex::build(*hier));
    ASSERT_NE(map->face_count() % HierFaceMap::kTileFaces, 0u) << "no partial last tile";
    if (sensors == 64) ASSERT_GE(hier->level_count(), 2u) << "no child expansion";

    std::vector<SamplingVector> vectors = served_vectors(shape, 6, 2);
    vectors.push_back(all_star_vector(*map));
    SamplingVector zeros;
    zeros.value.assign(map->dimension(), 0.0);
    zeros.known.assign(map->dimension(), true);
    vectors.push_back(zeros);
    SamplingVector last;
    last.known.assign(map->dimension(), true);
    for (SigValue v : map->faces().back().signature) last.value.push_back(static_cast<double>(v));
    vectors.push_back(last);
    RngStream rng(sensors);
    for (int i = 0; i < 2; ++i) {
      SamplingVector flipped = last;
      for (int f = 0; f < 3; ++f)
        flipped.value[rng.uniform_index(flipped.dimension())] =
            static_cast<double>(static_cast<int>(rng.uniform_index(3)) - 1);
      vectors.push_back(flipped);
    }

    std::vector<MatchResult> want;
    for (const SamplingVector& vd : vectors) want.push_back(spec.match(*map, vd));
    EXPECT_EQ(want[vectors.size() - 3].face, map->face_count() - 1);

    for (ThreadPool* pool : {&one, &four}) {
      BatchMatcher flat(map, table, BatchMatcher::Config{}, *pool);
      BatchMatcher tiered(map, table, BatchMatcher::Config{}, *pool);
      tiered.attach_hierarchy(hier, index);
      for (std::size_t i = 0; i < vectors.size(); ++i) {
        expect_argmax_identical(want[i], flat.match_one(vectors[i]), "flat match_one");
        expect_argmax_identical(want[i], tiered.descend(vectors[i]), "descend");
      }
      const std::vector<MatchResult> flat_batch = flat.match(vectors);
      const std::vector<MatchResult> tiered_batch = tiered.match(vectors);
      ASSERT_EQ(tiered_batch.size(), vectors.size());
      for (std::size_t i = 0; i < vectors.size(); ++i) {
        expect_argmax_identical(want[i], flat_batch[i], "flat batch");
        expect_argmax_identical(want[i], tiered_batch[i], "descend batch");
      }
    }
  }
}

/// Fan every descent's candidate rescore out: these maps sit far below
/// the default min_cells_per_helper, and the fan-out is what is under test.
BatchMatcher::Config fan_out_config() {
  BatchMatcher::Config c;
  c.min_cells_per_helper = 1;
  return c;
}

/// The tiered division of a served-shape roster, built once per test.
struct Tiered {
  std::shared_ptr<const FaceMap> map;
  std::shared_ptr<const SignatureTable> table;
  std::shared_ptr<const HierFaceMap> hier;
  std::shared_ptr<const SignatureIndex> index;
};

Tiered build_tiered(const ServeShape& shape, ThreadPool& pool) {
  FaceMapBuilder builder(shape.roster, shape.channel.C, shape.scenario.field,
                         shape.scenario.grid_cell, pool);
  Tiered t;
  t.map = std::make_shared<const FaceMap>(builder.build());
  t.hier = std::make_shared<const HierFaceMap>(builder.build_hierarchy());
  t.table = std::make_shared<const SignatureTable>(builder.take_signature_table());
  t.index = std::make_shared<const SignatureIndex>(SignatureIndex::build(*t.hier));
  return t;
}

TEST(HierDescend, SeededDescentIsIdenticalAtEveryPoolSize) {
  // The seeded descent's candidate set depends on the vector alone, so
  // at pool sizes 1/2/4/8 with every candidate rescore fanned out, the
  // argmax fields equal the flat match_one and the spec, and
  // faces_examined is the same at every size. Served basic-mode frames,
  // extended-mode vectors and all-'*' (every tile a candidate).
  ThreadPool build_pool(4);
  const Tiered t = build_tiered(serve_shape(32, 9300), build_pool);
  std::vector<SamplingVector> vectors = served_vectors(serve_shape(32, 9300), 8, 2);
  RngStream rng(9301);
  for (int i = 0; i < 8; ++i) vectors.push_back(noisy_vector(*t.map, rng, /*extended=*/true));
  vectors.push_back(all_star_vector(*t.map));
  const ExhaustiveMatcher spec;
  std::vector<MatchResult> want;
  for (const SamplingVector& vd : vectors) want.push_back(spec.match(*t.map, vd));

  obs::set_enabled(true);
  const std::uint64_t helpers_before = obs::counter("matcher.index.helpers").value();
  std::vector<std::size_t> examined;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    const BatchMatcher flat(t.map, t.table, BatchMatcher::Config{}, pool);
    BatchMatcher tiered(t.map, t.table, fan_out_config(), pool);
    tiered.attach_hierarchy(t.hier, t.index);
    for (std::size_t i = 0; i < vectors.size(); ++i) {
      const MatchResult got = tiered.descend(vectors[i]);
      expect_argmax_identical(want[i], flat.match_one(vectors[i]), "flat match_one");
      expect_argmax_identical(want[i], got, "seeded descend");
      // A batch of one runs on the caller, so its descent fans out too.
      expect_argmax_identical(want[i], tiered.match({vectors[i]}).front(), "batch of one");
      if (threads == 1)
        examined.push_back(got.faces_examined);
      else
        EXPECT_EQ(got.faces_examined, examined[i]) << threads << " threads, vector " << i;
    }
    EXPECT_EQ(tiered.descend(vectors.back()).faces_examined, t.map->face_count())
        << "all-'*' must rescore every face, " << threads << " threads";
  }
  if (obs::kCompiledIn)
    EXPECT_GT(obs::counter("matcher.index.helpers").value(), helpers_before)
        << "no descent fanned out";
  obs::set_enabled(false);
}

TEST(HierDescend, MaximumTiedAcrossTheSeedTileAndACandidateTile) {
  // Face a lies in tile 0, face b in the partial last tile. Marking '*'
  // every pair on which their signatures differ puts both at distance 0
  // (similarity +inf), so every node over tile 0 has bound 0 and the
  // (bound, level, id) pop order reaches tile 0 first: it is the seed,
  // and b's tile, whose ceiling +inf is not strictly below the seed's
  // +inf, is a candidate. The tie must survive across the two.
  ThreadPool build_pool(4);
  const Tiered t = build_tiered(serve_shape(32, 9400), build_pool);
  ASSERT_GT(t.map->face_count(), 2 * HierFaceMap::kTileFaces);
  const FaceId a = 5;
  const auto b = static_cast<FaceId>(t.map->face_count() - 1);
  SamplingVector vd;
  for (std::size_t c = 0; c < t.map->dimension(); ++c) {
    vd.value.push_back(static_cast<double>(t.map->face(a).signature[c]));
    vd.known.push_back(t.map->face(a).signature[c] == t.map->face(b).signature[c]);
  }
  const MatchResult want = ExhaustiveMatcher{}.match(*t.map, vd);
  ASSERT_TRUE(std::find(want.tied_faces.begin(), want.tied_faces.end(), a) !=
              want.tied_faces.end());
  ASSERT_TRUE(std::find(want.tied_faces.begin(), want.tied_faces.end(), b) !=
              want.tied_faces.end());
  for (const std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    for (const BatchMatcher::Config& config : {BatchMatcher::Config{}, fan_out_config()}) {
      BatchMatcher tiered(t.map, t.table, config, pool);
      tiered.attach_hierarchy(t.hier, t.index);
      expect_argmax_identical(want, tiered.descend(vd), "tie across seed and candidate");
    }
  }
}

TEST(HierDescend, IntegralKernelsStayExactAcrossTheUint16Flush) {
  // The kernels sum in 16-bit lanes and flush every kIntFlushPlanes
  // planes; a deployment whose tile mixes that many planes is far too
  // large to build here, so drive the kernels directly, on both sides of
  // the flush and with every term at its maximum of 4 (so an unflushed
  // lane would wrap past 65535).
  using detail::kIntFlushPlanes;
  using detail::kIntLanes;
  std::array<std::array<SigValue, kIntLanes>, 3> rows{};
  std::array<std::array<std::uint8_t, kIntLanes>, 3> masks{};
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t k = 0; k < kIntLanes; ++k) {
      rows[r][k] = static_cast<SigValue>(static_cast<int>((k + r) % 3) - 1);
      masks[r][k] = static_cast<std::uint8_t>((5 * k + r) % 8);
    }
  std::array<SigValue, kIntLanes> minus{};
  minus.fill(-1);
  std::array<std::uint8_t, kIntLanes> plus_only{};
  plus_only.fill(HierFaceMap::kHasPlus);

  for (const bool worst : {false, true}) {
    for (const std::size_t count : {kIntFlushPlanes - 1, kIntFlushPlanes, kIntFlushPlanes + 1,
                                    2 * kIntFlushPlanes + 7}) {
      std::vector<const SigValue*> planes(count);
      std::vector<const std::uint8_t*> mask_rows(count);
      std::vector<std::uint8_t> codes(count);
      for (std::size_t i = 0; i < count; ++i) {
        // worst: v = +1 against -1 (square term 4), v = -1 against a
        // node holding only +1 (min term 4).
        planes[i] = worst ? minus.data() : rows[i % 3].data();
        mask_rows[i] = worst ? plus_only.data() : masks[(i / 3) % 3].data();
        codes[i] = worst ? std::uint8_t{2} : static_cast<std::uint8_t>((i * 7 / 5) % 3);
      }
      std::array<std::uint64_t, kIntLanes> want_sq{};
      std::array<std::uint64_t, kIntLanes> want_min{};
      for (std::size_t k = 0; k < kIntLanes; ++k) {
        want_sq[k] = want_min[k] = 7;  // a nonzero base, as the descent passes
        for (std::size_t i = 0; i < count; ++i) {
          const int d = static_cast<int>(codes[i]) - 1 - planes[i][k];
          want_sq[k] += static_cast<std::uint64_t>(d * d);
          const std::uint8_t code = worst ? std::uint8_t{0} : codes[i];
          want_min[k] += HierFaceMap::kIntMinTerm[code][mask_rows[i][k]];
        }
      }
      if (worst) {
        ASSERT_EQ(want_sq[0], 7 + 4 * count);
        ASSERT_EQ(want_min[0], 7 + 4 * count);
      }
      std::array<std::uint32_t, kIntLanes> sq{};
      sq.fill(7);
      detail::add_square_terms(planes.data(), codes.data(), count, sq.data());
      std::vector<std::uint8_t> min_codes = codes;
      if (worst) std::fill(min_codes.begin(), min_codes.end(), std::uint8_t{0});
      std::array<std::uint32_t, kIntLanes> mins{};
      mins.fill(7);
      detail::add_min_terms(mask_rows.data(), min_codes.data(), count, mins.data());
      for (std::size_t k = 0; k < kIntLanes; ++k) {
        EXPECT_EQ(sq[k], want_sq[k]) << "square terms, " << count << " planes, lane " << k;
        EXPECT_EQ(mins[k], want_min[k]) << "min terms, " << count << " planes, lane " << k;
      }
    }
  }
}

}  // namespace
}  // namespace fttt
