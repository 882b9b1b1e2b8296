// Bit-plane kernel pool sweep (runs under TSan via tests_parallel, whose
// build has no clones, so there it drives the generic kernel): match(),
// match_one(), similarities_into() and climb() equal the scalar spec on
// every argmax field at pools of 1, 2, 4 and 8 workers, with every fan-out
// forced — the batch over vectors and an extended-mode vector's descent
// rescore — and mixed batches whose extended-mode vectors take the int8
// scan or the descent.
#include "core/batch_matcher.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "core/matcher.hpp"
#include "core/similarity.hpp"
#include "net/deployment.hpp"
#include "rf/uncertainty.hpp"

namespace fttt {
namespace {

const Aabb kField{{0.0, 0.0}, {40.0, 40.0}};

/// Enough faces for several 256-face scan blocks.
std::shared_ptr<const FaceMap> make_map(std::size_t sensors, std::uint64_t seed) {
  RngStream rng(seed);
  const Deployment nodes = random_deployment(kField, sensors, rng);
  return std::make_shared<const FaceMap>(
      FaceMap::build(nodes, uncertainty_constant(1.0, 4.0, 6.0), kField, 0.5));
}

BatchMatcher::Config fan_out() {
  BatchMatcher::Config c;
  c.min_cells_per_helper = 1;
  return c;
}

/// Basic-mode noisy signatures, one in four made extended-mode by a
/// fractional component, plus an all-'*' vector.
std::vector<SamplingVector> make_vectors(const FaceMap& map, std::size_t n, std::uint64_t seed) {
  RngStream rng(seed);
  std::vector<SamplingVector> out;
  for (std::size_t i = 0; i < n; ++i) {
    const Face& f = map.faces()[rng.uniform_index(map.face_count())];
    SamplingVector vd;
    vd.known.assign(map.dimension(), true);
    for (SigValue v : f.signature) vd.value.push_back(static_cast<double>(v));
    for (int k = 0; k < 3; ++k)
      vd.value[rng.uniform_index(vd.dimension())] =
          static_cast<double>(static_cast<int>(rng.uniform_index(3)) - 1);
    for (std::size_t c = 0; c < vd.dimension(); ++c)
      if (rng.bernoulli(0.15)) vd.known[c] = false;
    if (i % 4 == 3) {
      const std::size_t c = rng.uniform_index(vd.dimension());
      vd.value[c] = -0.25;
      vd.known[c] = true;
    }
    out.push_back(std::move(vd));
  }
  SamplingVector stars;
  stars.value.assign(map.dimension(), 0.0);
  stars.known.assign(map.dimension(), false);
  out.push_back(stars);
  return out;
}

void expect_argmax(const MatchResult& want, const MatchResult& got, const char* what,
                   std::size_t threads, std::size_t i) {
  EXPECT_EQ(want.face, got.face) << what << " threads " << threads << " vector " << i;
  EXPECT_EQ(want.similarity, got.similarity) << what << " threads " << threads << " vector " << i;
  EXPECT_EQ(want.tied_faces, got.tied_faces) << what << " threads " << threads << " vector " << i;
  EXPECT_EQ(want.position.x, got.position.x) << what << " threads " << threads << " vector " << i;
  EXPECT_EQ(want.position.y, got.position.y) << what << " threads " << threads << " vector " << i;
}

TEST(BitPlaneParallel, EveryEntryPointEqualsSpecAtEveryPoolSize) {
  const auto map = make_map(12, 3);
  ASSERT_GT(map->face_count(), 512u) << "fixture too small to span several scan blocks";
  const std::vector<SamplingVector> vectors = make_vectors(*map, 24, 5);
  const ExhaustiveMatcher spec;
  const HeuristicMatcher heuristic;
  std::vector<MatchResult> want;
  for (const SamplingVector& vd : vectors) want.push_back(spec.match(*map, vd));

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    const BatchMatcher flat(map, fan_out(), pool);
    BatchMatcher tiered(map, flat.shared_table(), fan_out(), pool);
    tiered.build_hierarchy();
    const std::vector<MatchResult> flat_batch = flat.match(vectors);
    const std::vector<MatchResult> tiered_batch = tiered.match(vectors);
    std::vector<double> sims(flat.table().padded_faces());
    for (std::size_t i = 0; i < vectors.size(); ++i) {
      expect_argmax(want[i], flat_batch[i], "flat match", threads, i);
      expect_argmax(want[i], tiered_batch[i], "tiered match", threads, i);
      expect_argmax(want[i], flat.match_one(vectors[i]), "flat match_one", threads, i);
      expect_argmax(want[i], tiered.match_one(vectors[i]), "tiered match_one", threads, i);
      expect_argmax(want[i], flat.match({vectors[i]}).front(), "batch of one", threads, i);
      flat.similarities_into(vectors[i], sims);
      for (const Face& f : map->faces())
        ASSERT_EQ(sims[f.id], similarity(vectors[i], f.signature))
            << "threads " << threads << " vector " << i << " face " << f.id;
      const FaceId start = want[(i + 1) % want.size()].face;
      const MatchResult h = heuristic.match(*map, vectors[i], start);
      const MatchResult c = flat.climb(vectors[i], start);
      expect_argmax(h, c, "climb", threads, i);
      EXPECT_EQ(h.faces_examined, c.faces_examined) << "threads " << threads << " vector " << i;
    }
  }
}

TEST(BitPlaneParallel, ConcurrentLoneScansShareOnePool) {
  // Several callers share one matcher and pool: each thread scans with
  // its own scratch, extended-mode descents fan out over the shared pool,
  // and every caller gets the spec's answer.
  const auto map = make_map(11, 9);
  ThreadPool pool(4);
  const BatchMatcher matcher(map, fan_out(), pool);
  const ExhaustiveMatcher spec;
  constexpr std::size_t kCallers = 4;
  std::vector<std::vector<SamplingVector>> inputs;
  for (std::size_t t = 0; t < kCallers; ++t) inputs.push_back(make_vectors(*map, 8, 50 + t));
  std::vector<std::vector<MatchResult>> got(kCallers);
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < kCallers; ++t)
    callers.emplace_back([&, t] {
      for (const SamplingVector& vd : inputs[t]) got[t].push_back(matcher.match_one(vd));
    });
  for (std::thread& c : callers) c.join();
  for (std::size_t t = 0; t < kCallers; ++t)
    for (std::size_t i = 0; i < inputs[t].size(); ++i)
      expect_argmax(spec.match(*map, inputs[t][i]), got[t][i], "concurrent match_one", t, i);
}

TEST(BitPlaneParallel, StoppedPoolScansOnTheCaller) {
  const auto map = make_map(11, 13);
  ThreadPool pool(4);
  const BatchMatcher matcher(map, fan_out(), pool);
  pool.shutdown();
  const std::vector<SamplingVector> vectors = make_vectors(*map, 6, 17);
  const std::vector<MatchResult> batch = matcher.match(vectors);
  for (std::size_t i = 0; i < vectors.size(); ++i) {
    const MatchResult want = ExhaustiveMatcher{}.match(*map, vectors[i]);
    expect_argmax(want, matcher.match_one(vectors[i]), "stopped match_one", 0, i);
    expect_argmax(want, batch[i], "stopped match", 0, i);
  }
}

}  // namespace
}  // namespace fttt
