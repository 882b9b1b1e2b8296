// BatchMatcher concurrency harness (runs under TSan via tests_parallel):
// the batch fan-out must be race-free, deterministic at any thread count,
// and degrade gracefully against a stopped pool.
#include "core/batch_matcher.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "core/matcher.hpp"
#include "net/deployment.hpp"
#include "rf/uncertainty.hpp"

namespace fttt {
namespace {

const Aabb kField{{0.0, 0.0}, {40.0, 40.0}};

std::shared_ptr<const FaceMap> make_map() {
  RngStream rng(31);
  const Deployment nodes = random_deployment(kField, 6, rng);
  const double C = uncertainty_constant(1.0, 4.0, 6.0);
  return std::make_shared<const FaceMap>(FaceMap::build(nodes, C, kField, 1.0));
}

/// Fan out every multi-vector batch: these maps sit far below the
/// default min_cells_per_helper, and the fan-out is what is under test.
BatchMatcher::Config fan_out() {
  BatchMatcher::Config c;
  c.min_cells_per_helper = 1;
  return c;
}

std::vector<SamplingVector> make_batch(const FaceMap& map, std::size_t n,
                                       std::uint64_t seed) {
  RngStream rng(seed);
  std::vector<SamplingVector> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Face& f = map.faces()[rng.uniform_index(map.face_count())];
    SamplingVector vd;
    vd.known.assign(map.dimension(), true);
    for (SigValue v : f.signature) vd.value.push_back(static_cast<double>(v));
    const std::size_t c = rng.uniform_index(vd.value.size());
    vd.value[c] = static_cast<double>(static_cast<int>(rng.uniform_index(3)) - 1);
    if (rng.bernoulli(0.3)) vd.known[rng.uniform_index(vd.known.size())] = false;
    batch.push_back(std::move(vd));
  }
  return batch;
}

void expect_equal_results(const std::vector<MatchResult>& a,
                          const std::vector<MatchResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].face, b[i].face) << i;
    EXPECT_EQ(a[i].similarity, b[i].similarity) << i;
    EXPECT_EQ(a[i].tied_faces, b[i].tied_faces) << i;
  }
}

TEST(BatchMatcherParallel, IdenticalResultsAcrossThreadCounts) {
  const auto map = make_map();
  const std::vector<SamplingVector> batch = make_batch(*map, 128, 7);

  ThreadPool one(1);
  ThreadPool two(2);
  ThreadPool eight(8);
  const auto r1 = BatchMatcher(map, fan_out(), one).match(batch);
  const auto r2 = BatchMatcher(map, fan_out(), two).match(batch);
  const auto r8 = BatchMatcher(map, fan_out(), eight).match(batch);
  expect_equal_results(r1, r2);
  expect_equal_results(r1, r8);

  // And all agree with the scalar reference.
  const ExhaustiveMatcher reference;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const MatchResult s = reference.match(*map, batch[i]);
    EXPECT_EQ(s.face, r8[i].face);
    EXPECT_EQ(s.similarity, r8[i].similarity);
    EXPECT_EQ(s.tied_faces, r8[i].tied_faces);
  }
}

TEST(BatchMatcherParallel, StoppedPoolFallsBackToCaller) {
  const auto map = make_map();
  ThreadPool pool(4);
  pool.shutdown();
  const BatchMatcher matcher(map, fan_out(), pool);
  const std::vector<SamplingVector> batch = make_batch(*map, 64, 9);
  const auto results = matcher.match(batch);
  const ExhaustiveMatcher reference;
  for (std::size_t i = 0; i < batch.size(); ++i)
    EXPECT_EQ(reference.match(*map, batch[i]).face, results[i].face) << i;
}

TEST(BatchMatcherParallel, ConcurrentMatchCallsAreIndependent) {
  // match() is const and the fan-out state is per-call; several threads
  // sharing one matcher (and one pool) must not interfere.
  const auto map = make_map();
  ThreadPool pool(4);
  const BatchMatcher matcher(map, fan_out(), pool);
  const ExhaustiveMatcher reference;

  std::vector<std::vector<SamplingVector>> batches;
  batches.reserve(4);
  for (std::uint64_t s = 0; s < 4; ++s) batches.push_back(make_batch(*map, 48, 100 + s));

  std::vector<std::vector<MatchResult>> results(batches.size());
  std::vector<std::thread> callers;
  callers.reserve(batches.size());
  for (std::size_t t = 0; t < batches.size(); ++t)
    callers.emplace_back([&, t] { results[t] = matcher.match(batches[t]); });
  for (std::thread& t : callers) t.join();

  for (std::size_t t = 0; t < batches.size(); ++t) {
    ASSERT_EQ(results[t].size(), batches[t].size());
    for (std::size_t i = 0; i < batches[t].size(); ++i) {
      const MatchResult s = reference.match(*map, batches[t][i]);
      EXPECT_EQ(s.face, results[t][i].face) << t << "/" << i;
      EXPECT_EQ(s.similarity, results[t][i].similarity) << t << "/" << i;
    }
  }
}

}  // namespace
}  // namespace fttt
