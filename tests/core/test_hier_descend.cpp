// Bit-equivalence of the hierarchical descent (BatchMatcher::descend)
// against the exhaustive executable spec — the fourth matcher tier's
// acceptance contract (docs/matching.md): same face, same tie set, same
// similarity and position bits, on every deployment shape. Only
// faces_examined may differ (it honestly counts rescored faces).
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "common/random.hpp"
#include "core/batch_matcher.hpp"
#include "core/facemap.hpp"
#include "core/facemap_builder.hpp"
#include "core/facemap_cache.hpp"
#include "core/hier_facemap.hpp"
#include "core/matcher.hpp"
#include "core/signature_index.hpp"
#include "core/tracker.hpp"
#include "net/deployment.hpp"
#include "rf/uncertainty.hpp"

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
  BatchMatcher hier(map);
  hier.build_hierarchy();
  RngStream rng(71);
  // 64 vectors crosses Config::min_parallel_batch (16): both the serial
  // and the pool fan-out path resolve through per-slot descent scratch.
  for (const std::size_t batch_size : {std::size_t{3}, std::size_t{64}}) {
    std::vector<SamplingVector> batch;
    for (std::size_t i = 0; i < batch_size; ++i)
      batch.push_back(noisy_vector(*map, rng, i % 3 == 0));
    batch.front() = all_star_vector(*map);
    const std::vector<MatchResult> expect = flat.match(batch);
    const std::vector<MatchResult> got = hier.match(batch);
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      expect_argmax_identical(expect[i], got[i], "batch item");
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

}  // namespace
}  // namespace fttt
