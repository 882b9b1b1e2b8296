// A small fixed-size thread pool plus data-parallel helpers.
//
// Usage philosophy (per the C++ Core Guidelines concurrency rules): tasks
// share no mutable state; parallel_for hands each worker a disjoint index
// range, and reductions merge per-worker accumulators at the join point.
// Combined with fttt::RngStream substreams keyed by index, every parallel
// sweep in this repo is bit-reproducible at any thread count.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace fttt {

/// Fixed-size worker pool executing void() tasks.
class ThreadPool {
 public:
  /// `threads == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; runs on some worker. Returns true if the task was
  /// accepted. After shutdown() (or once the destructor has begun) the
  /// pool rejects new work and returns false — the task is destroyed
  /// without running, never silently raced against the joining workers.
  bool submit(std::function<void()> task);

  /// Bulk submission: enqueue `count` tasks fn(0) .. fn(count-1) under a
  /// *single* queue-mutex acquisition (batch fan-outs would otherwise pay
  /// one lock round-trip per task). All-or-nothing: returns `count` when
  /// every task was accepted, 0 when the pool is (being) shut down —
  /// the same rejection contract as submit(), so a racing shutdown either
  /// drains the whole range or none of it.
  std::size_t submit_range(std::size_t count, std::function<void(std::size_t)> fn);

  /// Stop accepting work, drain every already-queued task, and join the
  /// workers. Idempotent and safe to call concurrently with submit(): a
  /// racing submit either enqueues before the stop (and its task runs
  /// during the drain) or observes the stop and returns false.
  void shutdown();

  /// True once shutdown() has been called (or the destructor has begun).
  bool stopped() const;

  std::size_t thread_count() const { return workers_.size(); }

  /// True when the calling thread is one of this pool's workers. A
  /// fan-out sizes its helpers by it: a worker that fans out already
  /// holds one of the pool's threads, any other caller holds none.
  bool is_worker_thread() const;

  /// Process-wide default pool (lazily constructed, hardware-sized).
  static ThreadPool& global();

 private:
  /// Queue element: the task plus its enqueue timestamp (obs "ns since
  /// trace epoch"; 0 when observability recording was off at submit, so
  /// the pop side never mixes clocks across an enable/disable flip).
  struct Task {
    std::function<void()> fn;
    std::uint64_t enqueue_ns{0};
  };

  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable cv_task_;
  std::queue<Task> tasks_;
  bool stopping_{false};
  std::vector<std::thread> workers_;
};

/// Run `fn(i)` for every i in [begin, end) across the pool.
///
/// The calling thread participates in the work, so the call is safe to
/// nest (an inner parallel_for issued from a worker degrades gracefully to
/// caller-runs-everything instead of deadlocking) and completion tracking
/// is per-call, not pool-global. Indices are claimed in contiguous chunks
/// so per-chunk setup (e.g. deriving an RNG substream) amortizes.
/// `fn` must not throw: simulation kernels are noexcept boundaries.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  ThreadPool& pool = ThreadPool::global());

/// Map helper: `results[i] = fn(i)` computed in parallel, returned in
/// index order (deterministic regardless of scheduling).
template <typename T>
std::vector<T> parallel_map(std::size_t n, const std::function<T(std::size_t)>& fn,
                            ThreadPool& pool = ThreadPool::global()) {
  std::vector<T> results(n);
  parallel_for(0, n, [&](std::size_t i) { results[i] = fn(i); }, pool);
  return results;
}

}  // namespace fttt
