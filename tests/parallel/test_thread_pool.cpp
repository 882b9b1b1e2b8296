#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "common/random.hpp"
#include "common/stats.hpp"

namespace fttt {
namespace {

TEST(ThreadPool, ExecutesSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&] {
      counter.fetch_add(1);
      done.fetch_add(1);
      done.notify_all();
    });
  int d = done.load();
  while (d < 100) {
    done.wait(d);
    d = done.load();
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ThreadCountRespected) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
}

TEST(ThreadPool, IsWorkerThreadOnlyOnItsOwnWorkers) {
  ThreadPool pool(2);
  ThreadPool other(1);
  EXPECT_FALSE(pool.is_worker_thread());
  std::atomic<int> seen{0};  // bit 0: own worker, bit 1: other pool's worker
  std::atomic<int> done{0};
  const auto finish = [&] {
    done.fetch_add(1);
    done.notify_all();
  };
  ASSERT_TRUE(pool.submit([&] {
    if (pool.is_worker_thread() && !other.is_worker_thread()) seen.fetch_or(1);
    finish();
  }));
  ASSERT_TRUE(other.submit([&] {
    if (!pool.is_worker_thread() && other.is_worker_thread()) seen.fetch_or(2);
    finish();
  }));
  int d = done.load();
  while (d < 2) {
    done.wait(d);
    d = done.load();
  }
  EXPECT_EQ(seen.load(), 3);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(0, n, [&](std::size_t i) { hits[i].fetch_add(1); }, pool);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, EmptyAndSingletonRanges) {
  ThreadPool pool(4);
  int count = 0;
  parallel_for(5, 5, [&](std::size_t) { ++count; }, pool);
  EXPECT_EQ(count, 0);
  parallel_for(7, 8, [&](std::size_t i) { count += static_cast<int>(i); }, pool);
  EXPECT_EQ(count, 7);
}

TEST(ParallelFor, NonZeroBegin) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  parallel_for(100, 200, [&](std::size_t i) { sum.fetch_add(static_cast<long>(i)); }, pool);
  EXPECT_EQ(sum.load(), (100 + 199) * 100 / 2);
}

TEST(ParallelFor, NestedCallsDoNotDeadlock) {
  ThreadPool pool(2);  // deliberately small: all workers may be busy
  std::atomic<int> total{0};
  parallel_for(0, 8,
               [&](std::size_t) {
                 parallel_for(0, 8, [&](std::size_t) { total.fetch_add(1); }, pool);
               },
               pool);
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelMap, ResultsInIndexOrder) {
  ThreadPool pool(8);
  const auto squares =
      parallel_map<std::size_t>(100, [](std::size_t i) { return i * i; }, pool);
  ASSERT_EQ(squares.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(squares[i], i * i);
}

TEST(ParallelMap, DeterministicAcrossThreadCounts) {
  // The same substream-keyed computation must give identical results on 1
  // and 8 threads — the reproducibility contract of the Monte-Carlo layer.
  auto compute = [](ThreadPool& pool) {
    return parallel_map<double>(64,
                                [](std::size_t i) {
                                  RngStream rng = RngStream(2024).substream(i);
                                  RunningStats s;
                                  for (int d = 0; d < 100; ++d) s.add(rng.normal(0.0, 1.0));
                                  return s.mean();
                                },
                                pool);
  };
  ThreadPool one(1);
  ThreadPool eight(8);
  EXPECT_EQ(compute(one), compute(eight));
}

TEST(ParallelFor, GlobalPoolWorks) {
  std::atomic<int> n{0};
  parallel_for(0, 1000, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 1000);
}

}  // namespace
}  // namespace fttt
