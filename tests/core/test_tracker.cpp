#include "core/tracker.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "net/deployment.hpp"
#include "net/faults.hpp"
#include "net/sampling.hpp"
#include "parallel/thread_pool.hpp"
#include "rf/uncertainty.hpp"

namespace fttt {
namespace {

const Aabb kField{{0.0, 0.0}, {40.0, 40.0}};

std::shared_ptr<const FaceMap> make_map(double C = 1.2) {
  const Deployment nodes = grid_deployment(kField, 9);
  return std::make_shared<const FaceMap>(FaceMap::build(nodes, C, kField, 0.5));
}

GroupingSampling sample_at(const FaceMap& map, Vec2 target, double sigma,
                           std::uint64_t epoch = 0) {
  SamplingConfig cfg;
  cfg.model = PathLossModel{.ref_power_dbm = -40.0, .beta = 4.0, .sigma = sigma, .d0 = 1.0};
  cfg.sensing_range = 100.0;
  cfg.sample_period = 0.1;
  cfg.samples_per_group = 5;
  const NoFaults faults;
  return collect_group(map.nodes(), cfg, faults, epoch, 0.0,
                       [&](double) { return target; }, RngStream(99).substream(epoch));
}

TEST(FtttTracker, NullMapThrows) {
  EXPECT_THROW(FtttTracker(nullptr, {}), std::invalid_argument);
}

TEST(FtttTracker, NodeCountMismatchThrows) {
  FtttTracker tracker(make_map(), {});
  GroupingSampling g(3, 1);
  EXPECT_THROW(tracker.localize(g), std::invalid_argument);
}

TEST(FtttTracker, NoiselessLocalizationIsAccurate) {
  // With sigma = 0 and eps = 0 the derived C is exactly 1; map and
  // sampling sides agree and the estimate is intra-face-accurate.
  auto map = make_map(1.0);
  FtttTracker tracker(map, FtttTracker::Config{VectorMode::kBasic, 0.0});
  // Pick targets well inside the field; with zero noise the estimate must
  // land within a few metres (intra-face error only).
  for (Vec2 target : {Vec2{10.0, 10.0}, Vec2{25.0, 14.0}, Vec2{31.0, 31.0}}) {
    const TrackEstimate e = tracker.localize(sample_at(*map, target, 0.0));
    EXPECT_LT(distance(e.position, target), 6.0) << "target " << target;
  }
}

TEST(FtttTracker, StatsAccumulate) {
  auto map = make_map();
  FtttTracker tracker(map, FtttTracker::Config{VectorMode::kBasic, 0.0});
  tracker.localize(sample_at(*map, {10.0, 10.0}, 0.0, 0));
  tracker.localize(sample_at(*map, {11.0, 10.0}, 0.0, 1));
  EXPECT_EQ(tracker.stats().localizations, 2u);
  EXPECT_GT(tracker.stats().faces_examined, 0u);
}

FaceId center_face(const FaceMap& map) {
  return map.face_at(map.grid().extent().center());
}

SamplingVector vector_of(const GroupingSampling& group, double eps) {
  return build_sampling_vector(group, eps, VectorMode::kBasic,
                               MissingPolicy::kMissingReadsSmaller);
}

TEST(FtttTracker, WarmStartReducesWork) {
  auto map = make_map();
  const BatchMatcher matcher(map);

  // A climb from the previous face follows a slowly moving target; a
  // cold climb starts from the field centre every time. Warm should
  // examine fewer faces in the steady state.
  std::size_t warm_faces = 0;
  std::size_t cold_faces = 0;
  FaceId previous = center_face(*map);
  for (int i = 0; i < 20; ++i) {
    const Vec2 target{10.0 + 0.5 * i, 20.0};
    const SamplingVector vd =
        vector_of(sample_at(*map, target, 0.0, static_cast<std::uint64_t>(i)), 0.0);
    const MatchResult warm = matcher.climb(vd, previous);
    warm_faces += warm.faces_examined;
    cold_faces += matcher.climb(vd, center_face(*map)).faces_examined;
    previous = warm.face;
  }
  EXPECT_LE(warm_faces, cold_faces);
}

TEST(FtttTracker, ExhaustiveModeMatchesOrBeatsHeuristicSimilarity) {
  auto map = make_map();
  const BatchMatcher matcher(map);
  for (int i = 0; i < 10; ++i) {
    const Vec2 target{8.0 + 2.0 * i, 15.0};
    const SamplingVector vd =
        vector_of(sample_at(*map, target, 6.0, static_cast<std::uint64_t>(i)), 1.0);
    EXPECT_GE(matcher.match_one(vd).similarity,
              matcher.climb(vd, center_face(*map)).similarity);
  }
}

TEST(FtttTracker, FallbackTriggersOnPoorSimilarity) {
  // Noisy samples (sigma = 6 dB): many climbs end below the floor. Each
  // epoch, replay the tracker's climb from its own start and check that
  // it falls back exactly when that climb is below kFallbackSimilarity,
  // and that its work counter then adds the climb and the exhaustive
  // pass once each.
  auto map = make_map();
  FtttTracker tracker(map, FtttTracker::Config{VectorMode::kBasic, 1.0});
  const BatchMatcher& matcher = tracker.matcher();
  FaceId start = center_face(*map);
  std::size_t expected_fallbacks = 0;
  for (std::uint64_t e = 0; e < 12; ++e) {
    const Vec2 target{8.0 + 2.0 * static_cast<double>(e), 20.0};
    const SamplingVector vd = vector_of(sample_at(*map, target, 6.0, e), 1.0);
    const MatchResult climbed = matcher.climb(vd, start);
    const std::size_t faces_before = tracker.stats().faces_examined;
    const TrackEstimate got = tracker.localize(vd);

    if (climbed.similarity >= kFallbackSimilarity) {
      EXPECT_EQ(got.face, climbed.face) << "epoch " << e;
      EXPECT_EQ(tracker.stats().faces_examined - faces_before, climbed.faces_examined);
    } else {
      ++expected_fallbacks;
      const MatchResult full = matcher.match_one(vd);
      const MatchResult& kept = full.similarity > climbed.similarity ? full : climbed;
      EXPECT_EQ(got.face, kept.face) << "epoch " << e;
      EXPECT_EQ(got.similarity, kept.similarity) << "epoch " << e;
      EXPECT_EQ(tracker.stats().faces_examined - faces_before,
                climbed.faces_examined + full.faces_examined)
          << "epoch " << e;
    }
    EXPECT_EQ(tracker.stats().fallbacks, expected_fallbacks) << "epoch " << e;
    start = got.face;
  }
  EXPECT_GE(expected_fallbacks, 1u);  // the seeded stream really falls back
}

TEST(FtttTracker, ExtendedModeTracksToo) {
  auto map = make_map(1.0);
  FtttTracker tracker(map, FtttTracker::Config{VectorMode::kExtended, 0.0});
  const TrackEstimate e = tracker.localize(sample_at(*map, {22.0, 18.0}, 0.0));
  EXPECT_LT(distance(e.position, {22.0, 18.0}), 6.0);
}

TEST(FtttTracker, ResetForgetsWarmStart) {
  auto map = make_map(1.0);
  FtttTracker tracker(map, FtttTracker::Config{VectorMode::kBasic, 0.0});
  tracker.localize(sample_at(*map, {10.0, 10.0}, 0.0));
  tracker.reset();
  // After reset the next localization still works (cold start path).
  const TrackEstimate e = tracker.localize(sample_at(*map, {30.0, 30.0}, 0.0, 1));
  EXPECT_LT(distance(e.position, {30.0, 30.0}), 6.0);
}

/// Random vectors over `map`: a face's signature with a few flipped and
/// '*' components, the all-'*' vector (every face ties), and extended
/// vectors on the half-integer lattice, whose distances tie exactly.
SamplingVector random_vector(const FaceMap& map, RngStream& rng) {
  const std::size_t dim = map.dimension();
  SamplingVector vd;
  vd.known.assign(dim, true);
  switch (rng.uniform_index(4)) {
    case 0:
      vd.value.assign(dim, 0.0);
      vd.known.assign(dim, false);
      break;
    case 1:
      for (std::size_t c = 0; c < dim; ++c)
        vd.value.push_back(0.5 * (static_cast<double>(rng.uniform_index(5)) - 2.0));
      break;
    default: {
      const Face& f = map.faces()[rng.uniform_index(map.face_count())];
      for (SigValue v : f.signature) vd.value.push_back(static_cast<double>(v));
      for (int i = 0; i < 3; ++i)
        vd.value[rng.uniform_index(dim)] =
            static_cast<double>(rng.uniform_index(3)) - 1.0;
      for (std::size_t c = 0; c < dim; ++c)
        if (rng.bernoulli(0.1)) vd.known[c] = false;
    }
  }
  return vd;
}

void expect_same(const Localized& got, const Localized& want, const std::string& what) {
  EXPECT_EQ(got.warm, want.warm) << what;
  EXPECT_EQ(got.match.face, want.match.face) << what;
  EXPECT_EQ(got.match.similarity, want.match.similarity) << what;
  EXPECT_EQ(got.match.position.x, want.match.position.x) << what;
  EXPECT_EQ(got.match.position.y, want.match.position.y) << what;
  EXPECT_EQ(got.match.faces_examined, want.match.faces_examined) << what;
  EXPECT_EQ(got.match.tied_faces, want.match.tied_faces) << what;
}

TEST(LocalizationRule, BatchFormEqualsSingleFormOnRandomInputs) {
  // Random deployments, vectors, start faces (or none) and batch splits,
  // on the flat sweep and the descent tier, with pools of 1 and 4
  // threads: the batch form is the single form, vector for vector.
  const Aabb field{{0.0, 0.0}, {60.0, 60.0}};
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(threads);
    for (const std::size_t n : {std::size_t{4}, std::size_t{10}, std::size_t{20}}) {
      RngStream rng = RngStream(2024).substream(n, threads);
      const auto map = std::make_shared<const FaceMap>(
          FaceMap::build(random_deployment(field, n, rng), 1.2, field, 2.0));
      for (const bool hierarchical : {false, true}) {
        BatchMatcher matcher(map, BatchMatcher::Config{}, pool);
        if (hierarchical) matcher.build_hierarchy();
        for (int round = 0; round < 6; ++round) {
          const std::size_t size = 1 + rng.uniform_index(40);
          std::vector<SamplingVector> vectors;
          std::vector<std::optional<FaceId>> starts;
          for (std::size_t i = 0; i < size; ++i) {
            vectors.push_back(random_vector(*map, rng));
            starts.push_back(rng.bernoulli(0.25)
                                 ? std::nullopt
                                 : std::optional<FaceId>(static_cast<FaceId>(
                                       rng.uniform_index(map->face_count()))));
          }
          const std::vector<Localized> batch = match_with_fallback(matcher, vectors, starts);
          ASSERT_EQ(batch.size(), size);
          for (std::size_t i = 0; i < size; ++i)
            expect_same(batch[i], match_with_fallback(matcher, vectors[i], starts[i]),
                        "n=" + std::to_string(n) + " threads=" + std::to_string(threads) +
                            " hier=" + std::to_string(hierarchical) + " round=" +
                            std::to_string(round) + " vector=" + std::to_string(i));
        }
      }
    }
  }
}

TEST(LocalizationRule, BatchFormRejectsMismatchedStarts) {
  const BatchMatcher matcher(make_map());
  const std::vector<std::optional<FaceId>> starts(2);
  EXPECT_THROW(match_with_fallback(matcher, std::vector<SamplingVector>(1), starts),
               std::invalid_argument);
}

}  // namespace
}  // namespace fttt
