// Hierarchical-descent concurrency harness (runs under TSan via
// tests_parallel): several matchers sharing one immutable coarse tier,
// concurrent descents on one matcher, batch determinism across thread
// counts with the descent engaged, and the single descent's candidate
// rescore fanned out over the pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "core/batch_matcher.hpp"
#include "core/facemap.hpp"
#include "core/hier_facemap.hpp"
#include "core/matcher.hpp"
#include "core/signature_index.hpp"
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

TEST(HierParallel, BatchDescentIdenticalAcrossThreadCounts) {
  const auto map = make_map();
  const std::vector<SamplingVector> batch = make_batch(*map, 128, 7);

  ThreadPool one(1);
  ThreadPool two(2);
  ThreadPool eight(8);
  const auto run = [&](ThreadPool& pool) {
    BatchMatcher matcher(map, fan_out(), pool);
    matcher.build_hierarchy();
    return matcher.match(batch);
  };
  const auto r1 = run(one);
  const auto r2 = run(two);
  const auto r8 = run(eight);
  const ExhaustiveMatcher reference;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const MatchResult s = reference.match(*map, batch[i]);
    for (const auto* r : {&r1, &r2, &r8}) {
      EXPECT_EQ(s.face, (*r)[i].face) << i;
      EXPECT_EQ(s.similarity, (*r)[i].similarity) << i;
      EXPECT_EQ(s.tied_faces, (*r)[i].tied_faces) << i;
    }
  }
}

TEST(HierParallel, ConcurrentDescentsShareOneTierRaceFree) {
  // One tier, four matchers, four caller threads: the tier and index are
  // immutable after build, so concurrent descents must be clean under
  // TSan and agree with the scalar reference.
  const auto map = make_map();
  ThreadPool pool(4);
  BatchMatcher owner(map, {}, pool);
  owner.build_hierarchy();

  std::vector<std::unique_ptr<BatchMatcher>> matchers;
  for (int i = 0; i < 4; ++i) {
    matchers.push_back(std::make_unique<BatchMatcher>(map, BatchMatcher::Config{}, pool));
    matchers.back()->attach_hierarchy(owner.shared_hierarchy(), owner.shared_index());
  }

  std::vector<std::vector<SamplingVector>> batches;
  for (std::uint64_t s = 0; s < 4; ++s) batches.push_back(make_batch(*map, 48, 100 + s));

  std::vector<std::vector<MatchResult>> results(batches.size());
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < batches.size(); ++t)
    callers.emplace_back([&, t] {
      results[t].resize(batches[t].size());
      for (std::size_t i = 0; i < batches[t].size(); ++i)
        results[t][i] = matchers[t]->descend(batches[t][i]);
    });
  for (std::thread& t : callers) t.join();

  const ExhaustiveMatcher reference;
  for (std::size_t t = 0; t < batches.size(); ++t) {
    for (std::size_t i = 0; i < batches[t].size(); ++i) {
      const MatchResult s = reference.match(*map, batches[t][i]);
      EXPECT_EQ(s.face, results[t][i].face) << t << "/" << i;
      EXPECT_EQ(s.similarity, results[t][i].similarity) << t << "/" << i;
    }
  }
}

TEST(HierParallel, ConcurrentBatchCallsOnOneHierMatcher) {
  const auto map = make_map();
  ThreadPool pool(4);
  BatchMatcher matcher(map, fan_out(), pool);
  matcher.build_hierarchy();

  std::vector<std::vector<SamplingVector>> batches;
  for (std::uint64_t s = 0; s < 4; ++s) batches.push_back(make_batch(*map, 48, 200 + s));

  std::vector<std::vector<MatchResult>> results(batches.size());
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < batches.size(); ++t)
    callers.emplace_back([&, t] { results[t] = matcher.match(batches[t]); });
  for (std::thread& t : callers) t.join();

  const ExhaustiveMatcher reference;
  for (std::size_t t = 0; t < batches.size(); ++t) {
    ASSERT_EQ(results[t].size(), batches[t].size());
    for (std::size_t i = 0; i < batches[t].size(); ++i)
      EXPECT_EQ(reference.match(*map, batches[t][i]).face, results[t][i].face)
          << t << "/" << i;
  }
}

/// Vectors that leave many tiles as candidates: a face signature with
/// half its components '*', plus one all-'*' vector.
std::vector<SamplingVector> wide_vectors(const FaceMap& map, std::size_t n,
                                         std::uint64_t seed) {
  std::vector<SamplingVector> out = make_batch(map, n, seed);
  RngStream rng(seed + 1);
  for (SamplingVector& vd : out)
    for (std::size_t c = 0; c < vd.known.size(); ++c)
      if (rng.bernoulli(0.5)) vd.known[c] = false;
  SamplingVector all_star;
  all_star.value.assign(map.dimension(), 0.0);
  all_star.known.assign(map.dimension(), false);
  out.push_back(std::move(all_star));
  return out;
}

TEST(HierParallel, SeededDescentFansOutIdenticallyAcrossPoolSizes) {
  const auto map = make_map();
  const std::vector<SamplingVector> vectors = wide_vectors(*map, 24, 400);
  BatchMatcher owner(map);
  owner.build_hierarchy();
  const ExhaustiveMatcher reference;
  std::vector<std::size_t> examined;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    BatchMatcher matcher(map, fan_out(), pool);
    matcher.attach_hierarchy(owner.shared_hierarchy(), owner.shared_index());
    for (std::size_t i = 0; i < vectors.size(); ++i) {
      const MatchResult s = reference.match(*map, vectors[i]);
      const MatchResult r = matcher.descend(vectors[i]);
      EXPECT_EQ(s.face, r.face) << threads << "/" << i;
      EXPECT_EQ(s.similarity, r.similarity) << threads << "/" << i;
      EXPECT_EQ(s.tied_faces, r.tied_faces) << threads << "/" << i;
      if (threads == 1)
        examined.push_back(r.faces_examined);
      else
        EXPECT_EQ(examined[i], r.faces_examined) << threads << "/" << i;
    }
    EXPECT_EQ(examined.back(), map->face_count()) << "all-'*' rescores every face";
  }
}

TEST(HierParallel, MatcherDestroyedWhileDescentHelpersStraggle) {
  // Both workers are held busy, so every helper a descent submits queues
  // behind them: the caller rescores every candidate itself, returns,
  // and its matcher, vector and scratch are gone before the helpers run.
  // They must claim nothing and touch none of it (TSan/ASan verify).
  const auto map = make_map();
  const std::vector<SamplingVector> vectors = wide_vectors(*map, 8, 500);
  BatchMatcher owner(map);
  owner.build_hierarchy();
  const ExhaustiveMatcher reference;
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  for (int w = 0; w < 2; ++w)
    ASSERT_TRUE(pool.submit([&release] { release.wait(false); }));
  for (const SamplingVector& vd : vectors) {
    auto matcher = std::make_unique<BatchMatcher>(map, fan_out(), pool);
    matcher->attach_hierarchy(owner.shared_hierarchy(), owner.shared_index());
    const MatchResult r = matcher->descend(vd);
    matcher.reset();
    EXPECT_EQ(reference.match(*map, vd).tied_faces, r.tied_faces);
  }
  release.store(true);
  release.notify_all();
  // Free workers now race the callers for chunks while matchers die.
  for (const SamplingVector& vd : vectors) {
    auto matcher = std::make_unique<BatchMatcher>(map, fan_out(), pool);
    matcher->attach_hierarchy(owner.shared_hierarchy(), owner.shared_index());
    const MatchResult r = matcher->descend(vd);
    matcher.reset();
    EXPECT_EQ(reference.match(*map, vd).tied_faces, r.tied_faces);
  }
  pool.shutdown();  // the stragglers drain before the test's locals go
}

}  // namespace
}  // namespace fttt
