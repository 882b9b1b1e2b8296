#include "core/batch_matcher.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/random.hpp"
#include "core/matcher.hpp"
#include "net/deployment.hpp"
#include "rf/uncertainty.hpp"

namespace fttt {
namespace {

const Aabb kField{{0.0, 0.0}, {60.0, 60.0}};

std::shared_ptr<const FaceMap> make_map(std::size_t sensors, std::uint64_t seed) {
  RngStream rng(seed);
  const Deployment nodes = random_deployment(kField, sensors, rng);
  const double C = uncertainty_constant(1.0, 4.0, 6.0);
  return std::make_shared<const FaceMap>(FaceMap::build(nodes, C, kField, 1.5));
}

/// Randomized sampling vector: a face signature with a few perturbed
/// components, a sprinkle of '*' unknowns, and (optionally) fractional
/// extended-mode values.
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
    if (rng.bernoulli(0.1)) vd.known[c] = false;  // missing-read '*'
  return vd;
}

SamplingVector all_star_vector(const FaceMap& map) {
  SamplingVector vd;
  vd.value.assign(map.dimension(), 0.0);
  vd.known.assign(map.dimension(), false);
  return vd;
}

/// The equivalence contract is exact: every field, including tie sets and
/// the floating-point similarity, must be identical.
void expect_identical(const MatchResult& scalar, const MatchResult& batch,
                      const char* what) {
  EXPECT_EQ(scalar.face, batch.face) << what;
  EXPECT_EQ(scalar.similarity, batch.similarity) << what;
  EXPECT_EQ(scalar.faces_examined, batch.faces_examined) << what;
  EXPECT_EQ(scalar.tied_faces, batch.tied_faces) << what;
  EXPECT_EQ(scalar.position.x, batch.position.x) << what;
  EXPECT_EQ(scalar.position.y, batch.position.y) << what;
}

TEST(SignatureTable, MirrorsFaceMapWithCacheLinePadding) {
  const auto map = make_map(6, 11);
  const SignatureTable table(*map);
  EXPECT_EQ(table.face_count(), map->face_count());
  EXPECT_EQ(table.dimension(), map->dimension());
  EXPECT_EQ(table.padded_faces() % SignatureTable::kBlock, 0u);
  EXPECT_GE(table.padded_faces(), table.face_count());
  for (const Face& f : map->faces())
    for (std::size_t c = 0; c < table.dimension(); ++c)
      ASSERT_EQ(table.at(c, f.id), f.signature[c]) << "pair " << c << " face " << f.id;
  for (std::size_t c = 0; c < table.dimension(); ++c)
    for (std::size_t pad = table.face_count(); pad < table.padded_faces(); ++pad)
      ASSERT_EQ(table.plane(c)[pad], 0) << "pad column " << pad;
}

TEST(BatchMatcher, NullMapThrows) {
  EXPECT_THROW(BatchMatcher(nullptr), std::invalid_argument);
}

TEST(BatchMatcher, EmptyBatchYieldsEmptyResults) {
  const BatchMatcher matcher(make_map(5, 3));
  EXPECT_TRUE(matcher.match({}).empty());
}

TEST(BatchMatcher, DimensionMismatchThrowsLikeScalarPath) {
  const auto map = make_map(5, 3);
  const BatchMatcher matcher(map);
  SamplingVector wrong;
  wrong.value.assign(map->dimension() + 1, 0.0);
  wrong.known.assign(map->dimension() + 1, true);
  EXPECT_THROW(matcher.match_one(wrong), std::invalid_argument);
  EXPECT_THROW(matcher.match({wrong}), std::invalid_argument);
  EXPECT_THROW(matcher.climb(wrong, 0), std::invalid_argument);
}

TEST(BatchMatcher, EquivalentToExhaustiveAcrossRandomDeployments) {
  const ExhaustiveMatcher reference;
  for (const std::size_t sensors : {4u, 7u, 10u}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const auto map = make_map(sensors, seed);
      // These maps are far below the default fan-out threshold, so the
      // default matcher runs every batch on the caller; the second one
      // fans every multi-vector batch out over the pool.
      const BatchMatcher matcher(map);
      BatchMatcher::Config fan_out;
      fan_out.min_cells_per_helper = 1;
      const BatchMatcher fanned(map, fan_out);
      RngStream rng(seed * 1000 + sensors);
      // All required batch sizes, including one exceeding the map size.
      for (const std::size_t batch_size : {std::size_t{1}, std::size_t{7}, std::size_t{256}}) {
        std::vector<SamplingVector> batch;
        batch.reserve(batch_size);
        for (std::size_t i = 0; i < batch_size; ++i)
          batch.push_back(noisy_vector(*map, rng, (i % 3) == 0));
        batch.front() = all_star_vector(*map);  // always cover all-'*'
        for (const BatchMatcher* m : {&matcher, &fanned}) {
          const std::vector<MatchResult> results = m->match(batch);
          ASSERT_EQ(results.size(), batch.size());
          for (std::size_t i = 0; i < batch.size(); ++i)
            expect_identical(reference.match(*map, batch[i]), results[i], "batch item");
        }
      }
    }
  }
}

TEST(BatchMatcher, MatchOneEquivalentToExhaustive) {
  const auto map = make_map(8, 17);
  const BatchMatcher matcher(map);
  const ExhaustiveMatcher reference;
  RngStream rng(99);
  for (int i = 0; i < 32; ++i) {
    const SamplingVector vd = noisy_vector(*map, rng, i % 2 == 0);
    expect_identical(reference.match(*map, vd), matcher.match_one(vd), "match_one");
  }
}

TEST(BatchMatcher, AllStarVectorTiesEveryFace) {
  const auto map = make_map(5, 7);
  const BatchMatcher matcher(map);
  const MatchResult r = matcher.match_one(all_star_vector(*map));
  EXPECT_EQ(r.tied_faces.size(), map->face_count());
  expect_identical(ExhaustiveMatcher{}.match(*map, all_star_vector(*map)), r,
                   "all-star");
}

TEST(BatchMatcher, ClimbEquivalentToHeuristicMatcher) {
  const auto map = make_map(7, 23);
  const BatchMatcher matcher(map);
  const HeuristicMatcher reference;
  RngStream rng(5);
  for (int i = 0; i < 32; ++i) {
    const SamplingVector vd = noisy_vector(*map, rng, i % 2 == 0);
    const FaceId start = static_cast<FaceId>(rng.uniform_index(map->face_count()));
    expect_identical(reference.match(*map, vd, start), matcher.climb(vd, start),
                     "climb");
  }
}

TEST(BatchMatcher, ClimbFromAdjacentStartFindsExactMatch) {
  const auto map = make_map(6, 29);
  const BatchMatcher matcher(map);
  for (FaceId id = 0; id < map->face_count(); id += 5) {
    if (map->neighbors(id).empty()) continue;
    SamplingVector vd;
    vd.known.assign(map->dimension(), true);
    for (SigValue v : map->face(id).signature)
      vd.value.push_back(static_cast<double>(v));
    const MatchResult r = matcher.climb(vd, map->neighbors(id).front());
    EXPECT_EQ(r.face, id);
  }
}

TEST(BatchMatcher, SelectFromSharedScoresMatchesMatchOne) {
  // The campaign engine's shared-scan contract: Direct MLE selecting
  // from a similarities_into buffer must equal its own full match_one,
  // every field, for plain / extended / all-'*' vectors.
  const auto map = make_map(8, 23);
  const BatchMatcher matcher(map);
  const std::size_t padded = SignatureTable::padded_for(map->face_count());
  std::vector<double> scores(padded);
  RngStream rng(123);
  for (int i = 0; i < 24; ++i) {
    const SamplingVector vd =
        i == 0 ? all_star_vector(*map) : noisy_vector(*map, rng, i % 2 == 0);
    matcher.similarities_into(vd, scores);
    expect_identical(matcher.match_one(vd), matcher.select_from(scores), "select_from");
  }
}

TEST(BatchMatcher, SelectFromRejectsShortSpans) {
  const auto map = make_map(5, 29);
  const BatchMatcher matcher(map);
  std::vector<double> short_scores(map->face_count() - 1, 0.0);
  EXPECT_THROW(matcher.select_from(short_scores), std::invalid_argument);
}

}  // namespace
}  // namespace fttt
